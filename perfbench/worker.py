"""One cold measurement round in a fresh interpreter.

Usage: worker.py <workload|setup> <trace 0|1>, with the round's inputs as JSON
on stdin (see workloads.py) and ``src`` on PYTHONPATH.  Prints one JSON object
on stdout.  ``ready`` is CLOCK_MONOTONIC right after ``import tautint``
returns; the parent subtracts its own clock reading taken before the spawn.
Between calls the worker times the reference loop of probe.py (``probes``:
[index of the next call, seconds]); ``wall_s`` leaves those loops out.
"""

import time

import tautint

READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402  (after the set-up stamp on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

from tautint import arith, cli, identities, psi, strata  # noqa: E402

import probe  # noqa: E402


def _load_graphs(texts: dict) -> dict:
    graphs = {name: strata.builtin_graph(name) for name in strata.BUILTIN_GRAPHS}
    graphs.update((name, strata.parse_graph(text)) for name, text in texts.items() if text)
    return graphs


def _verify_sweep(inputs: dict, out: dict, probes: probe.Probes) -> None:
    latencies = out["lat"]
    counted = cli.verify

    def timed_verify(n_max):
        # One latency sample per partition row: all seven routes for it.
        steps = counted(n_max)
        due = 0.0
        while True:
            if perf_counter() >= due:
                due = probes.record(len(latencies)) + probe.PROBE_EVERY_S
            start = perf_counter()
            try:
                report = next(steps)
            except StopIteration:
                probes.record(len(latencies))
                return
            latencies.append(perf_counter() - start)
            yield report

    cli.verify = timed_verify
    buffer = io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(buffer):
        out["rc"] = cli.main(list(inputs["argv"]))
    out["wall_s"] = perf_counter() - start - probes.total
    out["csv"] = buffer.getvalue()


def _calls(out: dict, evaluate, prepared, probes: probe.Probes) -> None:
    latencies, values = out["lat"], []
    due = 0.0
    start = perf_counter()
    for target, k in prepared:
        if perf_counter() >= due:
            due = probes.record(len(latencies)) + probe.PROBE_EVERY_S
        began = perf_counter()
        try:
            value = evaluate(target, k)
        except Exception as exc:  # a raising call is a counted failure
            value = exc
        latencies.append(perf_counter() - began)
        values.append(value)
    probes.record(len(latencies))
    out["wall_s"] = perf_counter() - start - probes.total
    out["values"] = [f"error: {v!r}" if isinstance(v, Exception) else str(v) for v in values]


def _peak_rss_kb() -> int:
    """This process's own peak RSS.  ru_maxrss would not do: it keeps the
    high-water mark of the parent's memory image from before the exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    workload, traced = sys.argv[1], sys.argv[2] == "1"
    out = {"ready": READY, "module": tautint.__file__}
    if workload == "setup":
        # The core's speed right after the import, to scale the set-up time.
        probes = probe.Probes()
        for _ in range(3):
            probes.record(0)
        out["probe_s"] = sorted(probes.seconds)[1]
        print(json.dumps(out))
        return
    inputs = json.load(sys.stdin)
    graphs = _load_graphs(inputs.get("graphs", {}))
    tracer = None
    if traced:
        import tracing
        tracer = tracing.install((arith, psi, strata, identities, cli),
                                 {graph: name for name, graph in graphs.items()})
    out["lat"] = []
    probes = probe.Probes()
    cpu = process_time()
    if workload == "verify-sweep":
        _verify_sweep(inputs, out, probes)
    elif workload == "psi-cold":
        spaces = {}
        prepared = [(spaces.setdefault((g, len(k)), psi.ModuliIndex(g, len(k))), tuple(k))
                    for g, k in inputs["calls"]]
        _calls(out, psi.psi_integral, prepared, probes)
    else:
        prepared = [(graphs[name], tuple(k)) for name, k in inputs["calls"]]
        _calls(out, strata.pullback_integral, prepared, probes)
    out["cpu_s"] = process_time() - cpu - probes.total
    out["maxrss_kb"] = _peak_rss_kb()
    out["probes"] = probes.marks()
    if tracer is not None:
        out["trace"] = tracing.summary(tracer, psi, identities)
        if workload == "verify-sweep":
            # The loops ran between rows, inside cli.main but outside verify.
            out["trace"]["cli.self_s"] -= probes.total
    print(json.dumps(out))


if __name__ == "__main__":
    main()

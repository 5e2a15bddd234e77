"""tautint benchmark: cold-process rounds of one workload, checked against
independent oracles.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  verify-sweep     ``tautint verify --n-max 10 --format csv`` through cli.main
  psi-cold         ~10k genus-0/1 psi_integral calls at 20-30 marks
  pullback-graphs  pullback_integral over five graphs, 5-14 marks
  all              the three above in turn

Each round starts a fresh interpreter (worker.py), so every module cache is
empty; ``clear_cache()`` would not do, since identities._DELTA_MEMO has no
clearing function.  Set-up spawns, then rounds on identical seeded inputs,
run until ``--seconds`` have passed.  Times are in reference seconds: each
is scaled by the speed of the core at that moment, gauged by the reference
loop of probe.py, because on a shared host that speed wanders by ~1.8x.
With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported;
with ``--trace 1`` untraced and traced rounds alternate and the per-layer
metrics are reported.  Human-readable lines come first; the last stdout
line is the JSON result.  A full record (seed, input digest, machine facts,
every round) is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import probe
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("verify-sweep", "psi-cold", "pullback-graphs")
SETUP_PROBES = 21         # measured spawns, after one unmeasured warm-up
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10          # the tail percentile keeps this many samples above it
EXACT_SUFFIXES = (".calls", ".misses", ".entries")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, traced: bool, payload: str = "") -> tuple[dict | None, float, str]:
    """Run one worker; return (result or None, clock before spawn, error)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    command = [sys.executable, os.path.join(HERE, "worker.py"), workload, "1" if traced else "0"]
    started = monotonic()
    try:
        proc = subprocess.run(command, input=payload, capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, started, f"worker timed out after {WORKER_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, started, f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return None, started, "worker printed no result"
    if not os.path.abspath(result["module"]).startswith(os.path.join(ROOT, "src") + os.sep):
        return None, started, f"imported tautint from {result['module']}, not from src/"
    return result, started, ""


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def machine() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu_model": model,
            "platform": platform.platform()}


def measure_setup() -> tuple[list[float], list[str]]:
    """Spawn-to-import times in reference seconds, scaled by the reference
    loop the fresh process runs right after the import."""
    samples, errors = [], []
    for index in range(SETUP_PROBES + 1):
        result, started, error = spawn("setup", False)
        if result is None:
            errors.append(error)
        elif index:
            samples.append((result["ready"] - started) * probe.REFERENCE_S / result["probe_s"])
    return samples, errors


def scaled_round(result: dict) -> tuple[list[float], float]:
    """One round's call times and body time, in reference seconds.  Time
    outside the calls is scaled by the round's median loop timing."""
    if not result["probes"]:
        return [], result["wall_s"]  # the program failed before its first call
    times = probe.scale(result["lat"], result["probes"])
    typical = statistics.median(loop for _, loop in result["probes"])
    outside = max(result["wall_s"] - sum(result["lat"]), 0.0)
    return times, sum(times) + outside * probe.REFERENCE_S / typical


def run_rounds(workload: str, inputs: dict, deadline: float, traced: bool) -> dict:
    payload = json.dumps(inputs)
    plan = (False, True) if traced else (False,)
    rounds, messages = [], []
    while True:
        for with_trace in plan:
            result, _, error = spawn(workload, with_trace, payload)
            if result is None:
                attempted, failed, _ = workloads.check(workload, inputs, {})
                rounds.append({"traced": with_trace, "attempted": attempted, "failed": failed})
                messages.append(error)
                continue
            attempted, failed, notes = workloads.check(workload, inputs, result)
            messages.extend(notes)
            latencies, wall = scaled_round(result)
            rounds.append({
                "traced": with_trace, "attempted": attempted, "failed": failed,
                "wall_s": wall, "raw_wall_s": result["wall_s"], "cpu_s": result["cpu_s"],
                "maxrss_kb": result["maxrss_kb"],
                "loop_ms": 1000 * statistics.median([loop for _, loop in result["probes"]] or [0]),
                "loops": len(result["probes"]),
                "evals_per_s": (attempted - failed) / wall,
                "p50_ms": 1000 * statistics.median(latencies) if latencies else 0.0,
                "tail_ms": 1000 * tail(latencies)[0] if latencies else 0.0,
                "trace": result.get("trace"), "lat": latencies,
            })
        traced_done = sum(r["traced"] and "wall_s" in r for r in rounds)
        if monotonic() >= deadline and (not traced or traced_done >= 2):
            break
        if any("wall_s" not in r for r in rounds):
            break  # a crashing or hanging program gets no more rounds
    return {"rounds": rounds, "messages": messages[:20]}


def end_to_end(setup: list[float], rounds: list[dict]) -> dict:
    """Medians over the untraced rounds, all times in reference seconds.

    ``wall_s`` and ``evals_per_s`` are medians of the rounds' figures.  Every
    round repeats the same calls in the same order on a cold process, so call
    i does the same work in every round: ``eval_p50_ms`` and ``eval_tail_ms``
    are the median and tail over calls of each call's median across rounds.
    ``raw_median`` in the record is the unscaled median wall time.
    ``peak_rss_mb`` is the mean of the rounds' peaks: a median of whole
    kilobytes would read the same on most runs.
    """
    plain = [r for r in rounds if not r["traced"] and "wall_s" in r]
    out = {"setup_s": {"value": statistics.median(setup) if setup else 0.0,
                       "samples": len(setup), "spread": spread(setup)}}
    if not plain:
        return out | {name: {"value": 0.0, "samples": 0} for name in
                      ("wall_s", "evals_per_s", "eval_p50_ms", "eval_tail_ms", "peak_rss_mb")}

    def median_of(key):
        values = [r[key] for r in plain]
        return {"value": statistics.median(values), "samples": len(values),
                "spread": spread(values)}

    per_call = [statistics.median(times) for times in zip(*(r["lat"] for r in plain))] or [0.0]
    tail_value, tail_pct = tail(per_call)
    return out | {
        "wall_s": median_of("wall_s") | {"raw_median": median_of("raw_wall_s")["value"]},
        "evals_per_s": median_of("evals_per_s"),
        "eval_p50_ms": {"value": 1000 * statistics.median(per_call), "samples": len(plain),
                        "calls_per_round": len(per_call)},
        "eval_tail_ms": {"value": 1000 * tail_value, "samples": len(plain),
                         "calls_per_round": len(per_call), "percentile": tail_pct},
        "peak_rss_mb": {"value": statistics.mean(r["maxrss_kb"] for r in plain) / 1024,
                        "samples": len(plain)},
    }


def per_layer(rounds: list[dict], names: list[str]) -> tuple[dict, list[str]]:
    """Medians over the traced rounds.  Span times are scaled to reference
    seconds by their round's mean factor (scaled over raw wall time)."""
    traced = [r for r in rounds if r["traced"] and r.get("trace")]
    plain = [r["wall_s"] for r in rounds if not r["traced"] and "wall_s" in r]
    traced_wall = [r["wall_s"] for r in traced]
    problems = []
    out = {}
    for name in sorted({key for r in traced for key in r["trace"]}):
        timed = name.endswith("_s") or ".miss_s." in name
        values = [r["trace"].get(name, 0) * (r["wall_s"] / r["raw_wall_s"] if timed else 1)
                  for r in traced]
        exact = name.endswith(EXACT_SUFFIXES)
        if exact and len(set(values)) > 1:
            problems.append(f"exact counter {name} differs between traced rounds: {values}")
        out[name] = {"value": values[0] if exact else statistics.median(values),
                     "samples": len(values)}
    for name in names:
        if name.startswith("strata.pullback.growth."):
            graph = name.rsplit(".", 1)[1]
            out[name] = {"value": _growth(out, names, graph), "samples": len(traced)}
    if plain and traced_wall:
        out["trace.overhead_frac"] = {
            "value": statistics.median(traced_wall) / statistics.median(plain) - 1,
            "samples": len(traced_wall)}
    for name in names:
        out.setdefault(name, {"value": 0, "samples": 0})
    return out, problems


def _growth(measured: dict, names: list[str], graph: str) -> float:
    """Median ratio of pullback miss time between consecutive mark counts."""
    prefix = f"strata.pullback.miss_s.{graph}.n"
    times = {int(n[len(prefix):]): measured[n]["value"]
             for n in names if n.startswith(prefix) and n in measured}
    ratios = [times[n + 1] / times[n] for n in sorted(times) if n + 1 in times and times[n] > 0]
    return statistics.median(ratios) if ratios else 0.0


def run_workload(workload: str, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    inputs = workloads.generate(workload, seed)
    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()
    deadline = monotonic() + seconds
    setup, setup_errors = measure_setup()
    run = run_rounds(workload, inputs, deadline, traced)
    rounds = run["rounds"]
    messages = setup_errors + run["messages"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if traced:
        names = [m["name"] for m in spec["per_layer"]]
        metrics, problems = per_layer(rounds, names)
        messages.extend(problems)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        metrics = end_to_end(setup, rounds)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced),
        "inputs_sha256": digest, "machine": machine(),
        "correct": not messages and failed == 0 and any("wall_s" in r for r in rounds),
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "messages": messages, "setup_samples_s": setup,
        "metrics": {name: {**metrics[name], "unit": units[name]} for name in names},
        "layer_extra": {k: v for k, v in metrics.items() if k not in names} if traced else {},
        "rounds": [{k: v for k, v in r.items() if k not in ("trace", "lat")} for r in rounds],
        "traces": [r.get("trace") for r in rounds if r["traced"]],
    }


def report(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
          f"inputs_sha256={record['inputs_sha256'][:16]}  rounds={len(record['rounds'])}")
    for name, metric in record["metrics"].items():
        extra = "".join(f"  {k}={v:.4g}" if isinstance(v, float) else f"  {k}={v}"
                        for k, v in metric.items() if k not in ("value", "unit"))
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']:<6}{extra}")
    print(f"  {'fail_frac':<44} {record['fail_frac']:>14.6g} {'ratio':<6}"
          f"  failed={record['failed']}  attempted={record['attempted']}")
    for message in record["messages"]:
        print(f"  ! {message}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "tautint", "__init__.py")):
        print(f"no tautint sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in chosen]
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    for record in records:
        report(record)
        name = f"{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(HERE, "results", name), "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    print(f"machine: {json.dumps(records[0]['machine'])}")

    def key(record, name):
        return name if len(records) == 1 else f"{record['workload']}.{name}"

    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {key(r, name): {"value": m["value"], "unit": m["unit"]}
                    for r in records for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

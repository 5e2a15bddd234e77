"""Per-layer spans and counters, recorded from outside the library.

:func:`install` rebinds each public function at every module that imported it
(``from .x import f`` copies the reference, so patching only the defining
module would miss those call sites).  Each wrapped call is a span: its
duration adds to the span's busy time once per outermost call and to its
parent's child time, so self time is duration minus child spans.  Cache
misses are read as growth of the library's memo dicts during a call.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter

ROUTES = ("delta_closed", "delta_recursive", "delta_brute",
          "lambda2_closed", "lambda2_eq5", "lambda2_eq3", "lambda_g_pred")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.miss_times: defaultdict[str, list[float]] = defaultdict(list)
        self.last_elapsed = 0.0
        self._children: list[float] = []
        self._depth: Counter[str] = Counter()

    def call(self, name, fn, *args, **kwargs):
        children = self._children
        children.append(0.0)
        depth = self._depth
        outermost = not depth[name]
        depth[name] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            depth[name] -= 1
            inner = children.pop()
            if children:
                children[-1] += elapsed
            self.calls[name] += 1
            if outermost:
                self.busy[name] += elapsed
            self.self_time[name] += elapsed - inner
            self.last_elapsed = elapsed

    def span(self, name, fn):
        def wrapped(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapped

    def span_generator(self, name, fn):
        """Time each step of a generator; the consumer's time is excluded."""
        def wrapped(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, steps)
                except StopIteration:
                    return
                yield item
        return wrapped


def install(tautint_modules, graph_names: dict) -> Tracer:
    """Wrap the public functions of arith, psi, strata, identities and cli.

    ``graph_names`` maps DualGraph -> name, to label pullback miss times.
    """
    arith, psi, strata, identities, cli = tautint_modules
    tracer = Tracer()

    for attr in ("as_exponents", "canonical", "multinomial"):
        wrapped = tracer.span(f"arith.{attr}", getattr(arith, attr))
        for module in (arith, psi, identities, strata):
            if hasattr(module, attr):
                setattr(module, attr, wrapped)

    psi_cache, psi_integral = psi._CACHE, psi.psi_integral

    def traced_psi(space, exponents):
        before = len(psi_cache)
        value = tracer.call("psi", psi_integral, space, exponents)
        if len(psi_cache) > before:
            tracer.counts["psi.misses"] += 1
        return value

    for module in (psi, strata, cli):
        module.psi_integral = traced_psi

    strata.validate_graph = tracer.span("strata.validate", strata.validate_graph)
    pullback_cache, pullback_integral = strata._PULLBACK_CACHE, strata.pullback_integral

    def traced_pullback(graph, exponents=()):
        before = len(pullback_cache)
        value = tracer.call("strata.pullback", pullback_integral, graph, exponents)
        if len(pullback_cache) > before:
            tracer.counts["strata.pullback.misses"] += 1
            label = f"{graph_names.get(graph, 'other')}.n{len(tuple(exponents))}"
            tracer.miss_times[label].append(tracer.last_elapsed)
        return value

    strata.pullback_integral = cli.pullback_integral = traced_pullback

    route = {"delta_closed": "pullback_delta_closed",
             "delta_recursive": "pullback_delta_recursive",
             "delta_brute": "pullback_integral",
             "lambda2_closed": "lambda2_closed",
             "lambda_g_pred": "lambda_g_prediction"}
    identities.pullback_integral = traced_pullback
    for name, attr in route.items():
        setattr(identities, attr, tracer.span(f"identities.route.{name}", getattr(identities, attr)))
    cli.lambda2_closed = identities.lambda2_closed

    lambda2_integral = identities.lambda2_integral

    def traced_lambda2(n, exponents, method="eq5"):
        return tracer.call(f"identities.route.lambda2_{method}", lambda2_integral, n, exponents, method)

    identities.lambda2_integral = cli.lambda2_integral = traced_lambda2
    cli.verify = tracer.span_generator("identities.verify", identities.verify)
    cli.main = tracer.span("cli.main", cli.main)
    return tracer


def summary(tracer: Tracer, psi, identities) -> dict:
    """Raw per-layer numbers of one traced round (JSON-ready)."""
    out = {
        "cli.self_s": tracer.self_time["cli.main"],
        "identities.delta_memo.entries": len(identities._DELTA_MEMO),
        "strata.validate.calls": tracer.calls["strata.validate"],
        "strata.validate.busy_s": tracer.busy["strata.validate"],
        "psi.cache.entries": len(psi._CACHE),
    }
    for name in ROUTES:
        out[f"identities.route.{name}.busy_s"] = tracer.busy[f"identities.route.{name}"]
    for layer, span in (("strata.pullback", "strata.pullback"), ("psi", "psi")):
        calls = tracer.calls[span]
        misses = tracer.counts[f"{layer}.misses"]
        out[f"{layer}.calls"] = calls
        out[f"{layer}.misses"] = misses
        out[f"{layer}.hit_ratio"] = 1 - misses / calls if calls else 0.0
        out[f"{layer}.busy_s"] = tracer.busy[span]
        out[f"{layer}.self_s"] = tracer.self_time[span]
    for attr in ("as_exponents", "canonical", "multinomial"):
        out[f"arith.{attr}.calls"] = tracer.calls[f"arith.{attr}"]
        out[f"arith.{attr}.busy_s"] = tracer.busy[f"arith.{attr}"]
    for label, times in tracer.miss_times.items():
        out[f"strata.pullback.miss_s.{label}"] = statistics.median(times)
    return out

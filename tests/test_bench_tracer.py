"""Contract between the library and the benchmark's per-layer tracer.

``perfbench/tracing.py`` rebinds library functions and reads private memos by
name, so a rename in ``src/`` can break ``perfbench/run.py --trace 1`` without
any other test noticing.  The traced run happens in a child process, so the
rebinding cannot leak into other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from tautint import arith, cli, identities, psi, strata
graphs = {strata.builtin_graph(name): name for name in strata.BUILTIN_GRAPHS}
tracer = tracing.install((arith, psi, strata, identities, cli), graphs)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "--n-max", "6", "--format", "csv"])
print(json.dumps({"code": code, "summary": tracing.summary(tracer, psi, identities)}))
"""


def derived(name):
    # Figures that run.py computes from several rounds, not from one summary.
    return ".growth." in name or ".miss_s." in name or name == "trace.overhead_frac"


def test_traced_verify_reports_every_per_layer_metric():
    result = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["code"] == 0
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in benchmark["per_layer"] if not derived(m["name"])}
    assert wanted and wanted <= set(out["summary"])
    assert out["summary"]["identities.delta_memo.entries"] > 0


ROUTE_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from tautint import arith, cli, identities, psi, strata
tracer = tracing.install((arith, psi, strata, identities, cli), {})
spans = [f"identities.route.{name}" for name in tracing.ROUTES]
added = {}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["verify", "--n-max", "6", "--format", "csv"])]
    summary = tracing.summary(tracer, psi, identities)
    for method in ("closed", "eq5", "eq3"):
        before = {span: tracer.calls[span] for span in spans}
        codes.append(cli.main(["lambda2", "--k", "2,1", "--method", method]))
        added[method] = {span: tracer.calls[span] - before[span]
                         for span in spans if tracer.calls[span] != before[span]}
print(json.dumps({"codes": codes, "summary": summary, "added": added}))
"""


def test_traced_routes_reach_their_spans():
    # The tracer rebinds each route on identities, so verify and the lambda2
    # command must look their routes up there at call time: a route bound
    # once at import would run untraced and read 0.
    result = subprocess.run([sys.executable, "-c", ROUTE_SCRIPT, str(ROOT / "perfbench")],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["codes"] == [0, 0, 0, 0]
    busy = {name: value for name, value in out["summary"].items()
            if name.startswith("identities.route.")}
    assert len(busy) == 7 and all(value > 0 for value in busy.values()), busy
    assert out["added"] == {method: {f"identities.route.lambda2_{method}": 1}
                            for method in ("closed", "eq5", "eq3")}

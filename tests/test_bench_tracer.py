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

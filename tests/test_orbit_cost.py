"""The orbit cost guard charges a decorated vertex as an undecorated one.

A decorated vertex factor runs the string and dilaton laws over its marks, as
an undecorated one does, and its base inputs need no bubble correction.  So
the estimate depends on the number of marks, the vertex count and the
multiplicities of k only.  Inputs on decorated graphs that the old
decoration term refused now run, and the next sizes up are still refused
before any vertex factor is evaluated."""

import subprocess
import sys
from pathlib import Path

import pytest

from oracles import DECORATED_DELTA, LEGGED_DECO
from tautint import strata
from tautint.strata import DualGraph, _recursive, pullback_integral


def staircase(a, zeros):
    # 3^a 2^a 1^5 0^zeros, sorted descending
    return (3,) * a + (2,) * a + (1,) * 5 + (0,) * zeros


@pytest.mark.parametrize("graph, k", [(DualGraph(*DECORATED_DELTA), staircase(10, 30)),
                                      (DualGraph(*LEGGED_DECO), staircase(10, 29))],
                         ids=["decorated-delta-55", "legged-deco-54"])
def test_decorated_inputs_accepted_and_equal_the_recursion(graph, k):
    strata.clear_cache()
    value = pullback_integral(graph, k)
    strata.clear_cache()
    assert value == _recursive(graph, k)
    assert value != 0


@pytest.mark.parametrize("graph, k", [(DualGraph(*DECORATED_DELTA), staircase(24, 72)),
                                      (DualGraph(*LEGGED_DECO), staircase(24, 71))],
                         ids=["decorated-delta-125", "legged-deco-124"])
def test_larger_decorated_inputs_refused_before_any_work(graph, k, monkeypatch):
    def no_factor(*args):
        raise AssertionError("vertex factor evaluated")

    strata.clear_cache()
    monkeypatch.setattr(strata, "_factor_value", no_factor)
    with pytest.raises(ValueError, match="too costly"):
        pullback_integral(graph, k)


def test_orbit_cost_tool_times_one_shape():
    # tools/check/orbit_cost.py calls strata._peel itself, and its child exits
    # 1 if that call's sum is not _orbit_sum's; on the 55-mark decorated
    # delta it prints the cold s, warm ms and peak RSS MB.
    root = Path(__file__).resolve().parents[1]
    run = subprocess.run([sys.executable, str(root / "tools" / "check" / "orbit_cost.py"), "--child", "1"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    cold, warm, rss = map(float, run.stdout.split())
    assert cold >= 0 and warm >= 0 and rss > 0

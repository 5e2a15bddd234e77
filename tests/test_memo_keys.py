"""The engine's memo layout: one dict per family, keyed by the exponent
multiset as a str of code points in descending order, so that no memo entry
leaves an object for the garbage collector to track; and the outcome digest
that a refactor of the strata layer must leave unchanged."""

import gc
import random
import subprocess
import sys
from pathlib import Path

from oracles import LEGGED_DECO
from tautint import psi
from tautint.identities import pullback_delta_recursive
from tautint.psi import ModuliIndex, psi_integral
from tautint.strata import DualGraph, delta_graph, pullback_integral

ROOT = Path(__file__).resolve().parents[1]


def test_every_memo_key_is_an_untracked_descending_str():
    rng = random.Random(22)
    k = [0] * 22
    for _ in range(19):  # the dimension of M_{0,22}, spread over random points
        k[rng.randrange(12)] += 1
    k1 = [0] * 22
    for _ in range(22):  # the dimension of M_{1,22}
        k1[rng.randrange(12)] += 1
    psi.clear_cache()
    try:
        assert psi_integral(ModuliIndex(0, 22), k) > 0
        assert psi_integral(ModuliIndex(1, 22), k1) > 0
        assert pullback_integral(DualGraph(*LEGGED_DECO), (3, 2, 1, 1, 0, 0)) > 0
        assert pullback_delta_recursive(6, (3, 2, 1, 1, 0, 0)) > 0
        families = [*psi._CACHE, *psi._GRAPH_MEMO]
        assert 0 in families and delta_graph() in families
        # and legged-deco's decorated vertex factors
        assert any(isinstance(family, tuple) and sum(family[1]) for family in families)
        keys = [key for memo in (psi._CACHE, psi._GRAPH_MEMO)
                for table in memo.values() for key in table]
    finally:
        psi.clear_cache()
    assert len(keys) > 100
    for key in keys:
        assert type(key) is str and not gc.is_tracked(key), key
        exponents = psi._exponents(key)
        assert exponents == tuple(sorted(exponents, reverse=True)), exponents
        assert psi._key(exponents) == key


def test_outcome_digest_of_seed_1():
    # tools/check/outcome_digest.py in a fresh interpreter, so every memo starts cold.
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "check" / "outcome_digest.py"),
                          "--seed", "1"], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["5184 outcomes, md5 dee4b8a1dd97d8b982aab170bac13622",
                                       "memos, md5 fb61538421a41ab50d30b02037c5d46b"]

"""The one memo layer: every memo of the package is registered beside the psi
engine, one clear_cache empties them all, and the engine that fills them
refuses a costly recursion before writing any entry."""

import importlib
import pkgutil
import time

import pytest

import tautint
from tautint import cli, identities, psi, strata
from tautint.psi import ModuliIndex, psi_integral
from tautint.strata import gamma_psi_graph, pullback_integral, validate_graph

# Module-level dicts that are tables of constants, not memos.
CONSTANT_TABLES = [strata.BUILTIN_GRAPHS, strata._LINE_KINDS,
                   identities._LAMBDA2_EXPRESSIONS]


def delta_staircase(m):
    """(m, m-1, ..., 1) padded with zeros to n marks, n + 1 = m(m+1)/2: a
    delta-recursion input whose memo holds every partition fitting in it."""
    return tuple(range(m, 0, -1)) + (0,) * (m * (m + 1) // 2 - 1 - m)


def test_one_clear_function():
    assert psi.clear_cache is strata.clear_cache
    assert "functools" not in vars(strata)


def test_registry_holds_the_four_memos():
    memos = [psi._CACHE, psi._GRAPH_MEMO, strata._PULLBACK_CACHE, strata._CHECKED]
    assert sorted(map(id, psi._MEMOS.values())) == sorted(map(id, memos))
    assert identities._DELTA_MEMO is psi._GRAPH_MEMO


def test_every_module_dict_is_registered_or_constant():
    # A new ad-hoc memo must join the registry, or clear_cache misses it.
    allowed = {id(table) for table in CONSTANT_TABLES + list(psi._MEMOS.values())}
    allowed.add(id(psi._MEMOS))
    modules = [tautint] + [importlib.import_module(f"tautint.{info.name}")
                           for info in pkgutil.iter_modules(tautint.__path__)]
    assert {"psi", "strata", "identities", "arith", "cli"} <= {m.__name__[8:] for m in modules}
    for module in modules:
        for name, value in vars(module).items():
            if isinstance(value, dict) and not name.startswith("__"):
                assert id(value) in allowed, f"{module.__name__}.{name} is not registered"


def test_one_clear_empties_every_memo(monkeypatch):
    checked = []

    def counted(graph):
        checked.append(graph)
        return validate_graph(graph)

    monkeypatch.setattr(strata, "validate_graph", counted)
    psi.clear_cache()
    psi_integral(ModuliIndex(1, 3), (2, 1, 0))
    pullback_integral(gamma_psi_graph(), (2, 1, 1))
    identities.pullback_delta_recursive(3, (2, 1, 1))
    assert all(psi._MEMOS.values())
    strata.clear_cache()
    assert not any(psi._MEMOS.values())
    checked.clear()
    pullback_integral(gamma_psi_graph(), (2, 1, 1))
    assert checked == [gamma_psi_graph()]


@pytest.mark.parametrize("n_max, steps", [(6, 173), (10, 835)])
def test_each_engine_step_writes_one_entry(monkeypatch, n_max, steps):
    # One miss, one entry: every engine step that runs is a miss and writes
    # its key once, so the entries a cold run leaves in the engine's families
    # count its misses.
    ran = []
    step = psi._step

    def counted(*args):
        ran.append(args)
        return step(*args)

    monkeypatch.setattr(psi, "_step", counted)
    psi.clear_cache()
    assert all(report.agreed for report in identities.verify(n_max))
    families = list(psi._CACHE.values()) + list(psi._GRAPH_MEMO.values())
    assert len(ran) == sum(map(len, families)) == steps


class TestEngineGuard:
    """The memo-size guard sits in the engine, so it bounds the psi memo, the
    vertex factors and a graph's recursion alike."""

    def test_delta_recursion_staircase_refused_at_once(self):
        k = delta_staircase(18)
        psi.clear_cache()
        started = time.monotonic()
        with pytest.raises(ValueError, match="too costly"):
            identities.pullback_delta_recursive(len(k), k)
        assert time.monotonic() - started < 1
        assert not identities._DELTA_MEMO

    def test_delta_recursion_staircase_9_matches_closed_form(self):
        k = delta_staircase(9)
        assert len(k) > psi._FREE_MARKS  # the guard counts, and lets it through
        psi.clear_cache()
        n = len(k)
        assert identities.pullback_delta_recursive(n, k) == identities.pullback_delta_closed(n, k)

    def test_vertex_factor_staircase_refused(self):
        # 171 marks on a genus-0 vertex with three fixed points: with those,
        # the psi staircase of 174 points, whose memo holds Catalan(19) entries.
        assigned = tuple(range(18, 0, -1)) + (0,) * 153
        psi.clear_cache()
        with pytest.raises(ValueError, match="too costly"):
            strata._vertex_factor(0, (0, 0, 0), assigned)
        assert not psi._CACHE and not psi._GRAPH_MEMO

    def test_small_recursions_skip_the_count(self, monkeypatch):
        def no_count(*args):
            raise AssertionError("memo size counted")

        monkeypatch.setattr(psi, "_fitting_partitions", no_count)
        psi.clear_cache()
        k = (3, 3, 3) + (1,) * 31 + (0,) * 5  # 39 marks, degree 40
        assert identities.pullback_delta_recursive(39, k) == identities.pullback_delta_closed(39, k)

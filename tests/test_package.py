"""Tests for the package namespace built from each module's ``__all__``."""

import ast
import pathlib
import sys

import tautint

# The names the package exported before it star-imported its modules.
PACKAGE_NAMES = [
    "Exponents", "bernoulli", "canonical", "format_rational", "multinomial",
    "parse_rational", "partitions",
    "ModuliIndex", "UnsupportedGenusError", "genus0_closed_form", "psi_integral",
    "BUILTIN_GRAPHS", "DualGraph", "Edge", "EdgeEnd", "GraphParseError",
    "InvalidGraphError", "Leg", "StrataExpression", "StratumTerm",
    "UnsupportedDecorationError", "ValidationReport", "VertexFactor", "builtin_graph",
    "delta0_graph", "delta_graph", "expression_integral", "format_graph",
    "gamma_psi_graph", "parse_graph", "pullback_integral", "stratum_terms",
    "total_genus", "validate_graph",
    "VerificationReport", "lambda2_closed", "lambda2_expression", "lambda2_integral",
    "lambda_g_initial", "lambda_g_prediction", "pullback_delta_closed",
    "pullback_delta_recursive", "verify",
]


def test_earlier_names_stay_exported():
    assert len(set(PACKAGE_NAMES)) == 43
    for name in PACKAGE_NAMES:
        assert name in tautint.__all__
        assert getattr(tautint, name) is not None


def test_every_exported_name_resolves():
    assert len(set(tautint.__all__)) == len(tautint.__all__)
    for name in tautint.__all__:
        assert hasattr(tautint, name), name
    assert tautint.__version__ == "0.1.0"


def test_clear_cache_is_named_by_module():
    # psi and strata each clear their own memos; the package picks neither.
    assert "clear_cache" not in tautint.__all__
    assert not hasattr(tautint, "clear_cache")
    assert callable(tautint.psi.clear_cache) and callable(tautint.strata.clear_cache)


def test_runtime_imports_only_the_standard_library():
    # The package must run with nothing installed beyond Python itself.
    sources = sorted((pathlib.Path(__file__).parents[1] / "src" / "tautint").glob("*.py"))
    assert len(sources) >= 6
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["tautint" if node.level else node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "tautint" or top in sys.stdlib_module_names, (source.name, name)

"""Exact tautological intersection numbers on moduli of stable pointed curves.

Three mutually checking computation routes at genus 2 — a multinomial closed
form, a string/dilaton-style recursion, and a sum over boundary strata —
plus the genus-0/1 psi-integral engine they rest on.
All arithmetic is exact rational.
"""

from .arith import (
    Exponents,
    bernoulli,
    canonical,
    format_rational,
    multinomial,
    parse_rational,
    partitions,
)
from .identities import (
    VerificationReport,
    lambda2_closed,
    lambda2_expression,
    lambda2_integral,
    lambda_g_initial,
    lambda_g_prediction,
    pullback_delta_closed,
    pullback_delta_recursive,
    verify,
)
from .psi import (
    ModuliIndex,
    UnsupportedGenusError,
    genus0_closed_form,
    psi_integral,
)
from .strata import (
    BUILTIN_GRAPHS,
    DualGraph,
    Edge,
    EdgeEnd,
    GraphParseError,
    InvalidGraphError,
    Leg,
    StrataExpression,
    StratumTerm,
    UnsupportedDecorationError,
    ValidationReport,
    VertexFactor,
    builtin_graph,
    delta0_graph,
    delta_graph,
    expression_integral,
    format_graph,
    gamma_psi_graph,
    parse_graph,
    pullback_integral,
    stratum_terms,
    total_genus,
    validate_graph,
)

__version__ = "0.1.0"

__all__ = [
    "Exponents",
    "bernoulli",
    "canonical",
    "format_rational",
    "multinomial",
    "parse_rational",
    "partitions",
    "ModuliIndex",
    "UnsupportedGenusError",
    "genus0_closed_form",
    "psi_integral",
    "BUILTIN_GRAPHS",
    "DualGraph",
    "Edge",
    "EdgeEnd",
    "GraphParseError",
    "InvalidGraphError",
    "Leg",
    "StrataExpression",
    "StratumTerm",
    "UnsupportedDecorationError",
    "ValidationReport",
    "VertexFactor",
    "builtin_graph",
    "delta0_graph",
    "delta_graph",
    "expression_integral",
    "format_graph",
    "gamma_psi_graph",
    "parse_graph",
    "pullback_integral",
    "stratum_terms",
    "total_genus",
    "validate_graph",
    "VerificationReport",
    "lambda2_closed",
    "lambda2_expression",
    "lambda2_integral",
    "lambda_g_initial",
    "lambda_g_prediction",
    "pullback_delta_closed",
    "pullback_delta_recursive",
    "verify",
]

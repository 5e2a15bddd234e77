"""Tests for the closed forms, the recursion route, and the verifier."""

from fractions import Fraction

import pytest

from tautint import identities, psi, strata
from tautint.arith import multinomial, partitions
from tautint.identities import (
    DELTA_METHODS,
    LAMBDA2_METHODS,
    VERIFY_METHODS,
    lambda2_closed,
    lambda2_expression,
    lambda2_integral,
    lambda_g_initial,
    lambda_g_prediction,
    pullback_delta_closed,
    pullback_delta_recursive,
    verify,
)
from tautint.strata import delta_graph, pullback_integral


class TestDeltaClosed:
    @pytest.mark.parametrize(
        "n, k, expected",
        [
            (1, (2,), Fraction(1, 24)),
            (2, (2, 1), Fraction(1, 8)),
            (3, (2, 1, 1), Fraction(1, 2)),
            (2, (3, 0), Fraction(1, 24)),
        ],
    )
    def test_known_values(self, n, k, expected):
        assert pullback_delta_closed(n, k) == expected

    def test_degree_mismatch_raises(self):
        with pytest.raises(ValueError):
            pullback_delta_closed(2, (2, 2))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            pullback_delta_closed(3, (2, 1))


class TestDeltaRecursive:
    @pytest.mark.parametrize(
        "n, k, expected",
        [
            (1, (2,), Fraction(1, 24)),
            (2, (3, 0), Fraction(1, 24)),
            (2, (2, 1), Fraction(1, 8)),
            (4, (2, 1, 1, 1), Fraction(5, 2)),
        ],
    )
    def test_known_values(self, n, k, expected):
        assert pullback_delta_recursive(n, k) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_three_route_agreement(self, n):
        for k in partitions(n + 1, n):
            closed = pullback_delta_closed(n, k)
            assert pullback_delta_recursive(n, k) == closed
            assert pullback_integral(delta_graph(), k) == closed

    def test_every_partition_through_n20_matches_closed_form(self):
        for n in range(1, 21):
            for k in partitions(n + 1, n):
                assert pullback_delta_recursive(n, k) == pullback_delta_closed(n, k), k

    def test_only_stratum_sum_input_is_the_one_point_base(self, monkeypatch):
        seen = set()
        orbit_sum = strata._orbit_sum

        def recorded(graph, k):
            seen.add((graph, k))
            return orbit_sum(graph, k)

        monkeypatch.setattr(strata, "_orbit_sum", recorded)
        psi.clear_cache()
        strata.clear_cache()
        for n in range(1, 11):
            for k in partitions(n + 1, n):
                pullback_delta_recursive(n, k)
        assert seen == {(delta_graph(), "\x02")}  # the memo key psi._key((2,))

    @pytest.mark.parametrize("k", [(1101,) + (0,) * 1099, (2,) + (1,) * 1099])
    def test_deep_input_matches_closed_form(self, k):
        # A string chain and a dilaton chain, each 1100 points deep.
        assert pullback_delta_recursive(1100, k) == pullback_delta_closed(1100, k)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_zero_part_expansion_matches_pascal_recombination(self, n):
        # With a zero part, the recursion's expansion must agree with the
        # generalized Pascal recombination of the closed form.
        for k in partitions(n + 1, n):
            if 0 not in k:
                continue
            rest = list(k)
            rest.remove(0)
            expansion = sum(
                (
                    pullback_delta_closed(
                        n - 1, rest[:j] + [rest[j] - 1] + rest[j + 1:])
                    for j in range(n - 1)
                    if rest[j] > 0
                ),
                Fraction(0),
            )
            assert expansion == pullback_delta_closed(n, k)
            assert expansion == pullback_delta_recursive(n, k)


class TestLambda2:
    @pytest.mark.parametrize(
        "n, k, expected",
        [
            (1, (2,), Fraction(7, 5760)),
            (2, (3, 0), Fraction(7, 5760)),
            (3, (2, 2, 0), Fraction(7, 960)),
        ],
    )
    def test_closed_values(self, n, k, expected):
        assert lambda2_closed(n, k) == expected

    def test_closed_constant_factorization(self):
        assert lambda2_closed(1, (2,)) == Fraction(7, 24 * 8 * 30)

    @pytest.mark.parametrize("method", ["eq5", "eq3"])
    def test_integral_base_case(self, method):
        assert lambda2_integral(1, (2,), method) == Fraction(7, 5760)

    def test_integral_example(self):
        assert lambda2_integral(2, (2, 1), "eq5") == Fraction(7, 1920)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_routes_agree(self, n):
        for k in partitions(n + 1, n):
            closed = lambda2_closed(n, k)
            assert lambda2_integral(n, k, "eq5") == closed
            assert lambda2_integral(n, k, "eq3") == closed
            assert lambda_g_prediction(2, n, k) == closed

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            lambda2_integral(1, (2,), "fast")
        with pytest.raises(ValueError):
            lambda2_expression("closed")

    def test_expression_term_counts(self):
        assert len(lambda2_expression("eq5").terms) == 2
        assert len(lambda2_expression("eq3").terms) == 2

    def test_expressions_are_built_once_with_the_same_terms(self):
        assert lambda2_expression("eq5") is lambda2_expression("eq5")
        assert lambda2_expression("eq3") == strata.StrataExpression((
            (Fraction(1, 240), strata.gamma_psi_graph()),
            (Fraction(1, 1152), strata.delta0_graph()),
        ))
        assert lambda2_expression("eq5") == strata.StrataExpression((
            (Fraction(1, 1152) + Fraction(1, 5760), strata.delta0_graph()),
            (Fraction(1, 240), delta_graph()),
        ))
        with pytest.raises(ValueError, match="unknown method 'eq4'; choices: eq5, eq3"):
            lambda2_expression("eq4")


class TestLambdaG:
    @pytest.mark.parametrize(
        "g, expected",
        [
            (1, Fraction(1, 24)),
            (2, Fraction(7, 5760)),
            (3, Fraction(31, 967680)),
        ],
    )
    def test_initial_condition(self, g, expected):
        assert lambda_g_initial(g) == expected

    def test_initial_rejects_nonpositive_genus(self):
        with pytest.raises(ValueError):
            lambda_g_initial(0)

    @pytest.mark.parametrize(
        "g, n, k, expected",
        [
            (2, 1, (2,), Fraction(7, 5760)),
            (2, 2, (2, 1), Fraction(7, 1920)),
            (1, 1, (0,), Fraction(1, 24)),
        ],
    )
    def test_prediction(self, g, n, k, expected):
        assert lambda_g_prediction(g, n, k) == expected

    def test_prediction_degree_mismatch_raises(self):
        with pytest.raises(ValueError):
            lambda_g_prediction(2, 1, (3,))

    def test_prediction_formula_only_genus(self):
        # No independent route exists here for g >= 3; the formula still
        # evaluates exactly.
        value = lambda_g_prediction(3, 2, (3, 2))
        assert value == multinomial(5, (3, 2)) * Fraction(31, 967680)


class TestVerify:
    def test_single_report(self):
        (report,) = list(verify(1))
        assert report.n == 1
        assert report.partition == (2,)
        assert report.agreed
        assert tuple(report.values) == VERIFY_METHODS
        assert {report.values[m] for m in DELTA_METHODS} == {Fraction(1, 24)}
        assert {report.values[m] for m in LAMBDA2_METHODS} == {Fraction(7, 5760)}

    def test_report_order_and_counts(self):
        reports = list(verify(2))
        assert [(r.n, r.partition) for r in reports] == [
            (1, (2,)), (2, (3, 0)), (2, (2, 1)),
        ]
        # one report per partition of n+1 into at most n parts
        assert len(list(verify(4))) == 13

    def test_all_agree_through_n6(self):
        assert all(report.agreed for report in verify(6))

    def test_lambda2_group_must_be_7_240_of_delta_group(self, monkeypatch):
        # Doubling all four Hodge-class routes keeps each group consistent,
        # but breaks the ratio between the groups.
        for name in ("lambda2_closed", "lambda2_integral", "lambda_g_prediction"):
            route = getattr(identities, name)
            monkeypatch.setattr(identities, name, lambda *args, route=route: 2 * route(*args))
        (report,) = list(verify(1))
        assert {report.values[m] for m in LAMBDA2_METHODS} == {Fraction(7, 2880)}
        assert not report.agreed

    def test_rows_build_no_graphs(self, monkeypatch):
        built = []
        init = strata.DualGraph.__init__

        def recorded(graph, *args, **kwargs):
            init(graph, *args, **kwargs)
            built.append(graph)

        monkeypatch.setattr(strata.DualGraph, "__init__", recorded)
        assert all(report.agreed for report in verify(5))
        assert built == []

    def test_nonpositive_n_max_rejected(self):
        with pytest.raises(ValueError):
            list(verify(0))

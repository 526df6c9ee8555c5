"""End-to-end tests of the executable NP-hardness gadgets (Figs 9-12, P17)."""

from fractions import Fraction

import pytest

from repro.core import CommModel, CostModel
from repro.reductions import (
    forest_latency,
    minlatency,
    minperiod_oneport,
    minperiod_overlap,
    orchestration_latency,
    orchestration_period,
)
from repro.reductions.partition import PartitionInstance
from repro.reductions.rn3dm import RN3DMInstance, is_solvable

SOLVABLE = [(2, 4, 6), (3, 4, 5), (3, 3, 6)]
SOLVABLE_N4 = [(2, 4, 6, 8), (5, 5, 5, 5)]
UNSOLVABLE = [(2, 2, 8, 8)]


class TestFig9OrchestrationPeriod:
    """Props 2-3: one-port period orchestration on the fork-join gadget."""

    @pytest.mark.parametrize("A", SOLVABLE)
    def test_forward_reaches_K(self, A):
        g = orchestration_period.build(RN3DMInstance(A))
        assert orchestration_period.forward_period(g) == g.K

    @pytest.mark.parametrize("A", SOLVABLE)
    def test_saturated_servers(self, A):
        g = orchestration_period.build(RN3DMInstance(A))
        cm = CostModel(g.graph)
        n = g.instance.n
        assert cm.cexec("C1", CommModel.INORDER) == g.K
        assert cm.cexec(f"C{2 * n + 5}", CommModel.INORDER) == g.K

    # The unsolvable (2,2,8,8) gadget's decision is the slowest tier-1 case;
    # benchmarks/test_bench_reductions.py::test_fig9_orchestration_period
    # asserts it (False) in tier-1 and in ``make bench``.
    @pytest.mark.parametrize("A", SOLVABLE)
    def test_decision_matches_solvability(self, A):
        inst = RN3DMInstance(A)
        g = orchestration_period.build(inst)
        assert orchestration_period.decision(g) == is_solvable(inst)


class TestFig10MinPeriodOverlap:
    """Prop 5: MinPeriod-OVERLAP gadget."""

    @pytest.mark.parametrize("A", SOLVABLE + SOLVABLE_N4)
    def test_forward_reaches_K(self, A):
        g = minperiod_overlap.build(RN3DMInstance(A))
        assert minperiod_overlap.forward_period(g) <= g.K

    @pytest.mark.parametrize("A", SOLVABLE + SOLVABLE_N4 + UNSOLVABLE)
    def test_structure_decision_matches_solvability(self, A):
        inst = RN3DMInstance(A)
        g = minperiod_overlap.build(inst)
        assert minperiod_overlap.structure_restricted_decision(g) == is_solvable(
            inst
        )

    @pytest.mark.parametrize("A", SOLVABLE + UNSOLVABLE)
    def test_observations_hold(self, A):
        g = minperiod_overlap.build(RN3DMInstance(A))
        assert minperiod_overlap.verify_observations(g) == []

    def test_parameters_are_exact(self):
        for n in (2, 3, 4, 5, 6):
            a, b, gamma = minperiod_overlap.find_parameters(n)
            assert Fraction(3, 4) < a ** (2 * n) < b ** (2 * n) < Fraction(4, 5)
            assert 1 < gamma
            assert gamma**n < b / a


class TestFig11MinPeriodOnePort:
    """Props 6-7: MinPeriod one-port gadget."""

    @pytest.mark.parametrize("A", SOLVABLE + SOLVABLE_N4)
    def test_forward_reaches_K(self, A):
        g = minperiod_oneport.build(RN3DMInstance(A))
        assert minperiod_oneport.forward_period(g) <= g.K

    @pytest.mark.parametrize("A", SOLVABLE + SOLVABLE_N4 + UNSOLVABLE)
    def test_structure_decision_matches_solvability(self, A):
        inst = RN3DMInstance(A)
        g = minperiod_oneport.build(inst)
        assert minperiod_oneport.structure_restricted_decision(
            g
        ) == is_solvable(inst)

    @pytest.mark.parametrize("A", SOLVABLE + UNSOLVABLE)
    def test_observations_hold(self, A):
        g = minperiod_oneport.build(RN3DMInstance(A))
        assert minperiod_oneport.verify_observations(g) == []

    def test_forward_bound_is_achievable(self):
        """The star-of-chains bound is met by a real INORDER schedule."""
        from repro.scheduling import exact_inorder_period

        inst = RN3DMInstance((2, 4))  # n = 2 keeps the order space small
        g = minperiod_oneport.build(inst)
        from repro.reductions.rn3dm import solve

        graph = minperiod_oneport.star_chain_plan(g, *solve(inst))
        lam, plan = exact_inorder_period(graph)
        assert lam == minperiod_oneport.plan_period_bound(g, graph)
        assert plan.validate().ok


class TestFig12OrchestrationLatency:
    """Props 9-11: fork-join latency orchestration."""

    @pytest.mark.parametrize("A", SOLVABLE)
    def test_forward_reaches_K(self, A):
        g = orchestration_latency.build(RN3DMInstance(A))
        assert orchestration_latency.forward_latency(g) == g.K

    @pytest.mark.parametrize("A", SOLVABLE + UNSOLVABLE)
    def test_decision_matches_solvability(self, A):
        inst = RN3DMInstance(A)
        g = orchestration_latency.build(inst)
        assert orchestration_latency.decision(g) == is_solvable(inst)

    @pytest.mark.parametrize("A", SOLVABLE + UNSOLVABLE)
    def test_formula_matches_branch_and_bound(self, A):
        """The closed-form fork-join optimum equals the generic exact
        scheduler — validating both."""
        g = orchestration_latency.build(RN3DMInstance(A))
        assert orchestration_latency.optimal_latency(
            g
        ) == orchestration_latency.optimal_latency_branch_and_bound(g)

    def test_unsolvable_strictly_above_K(self):
        g = orchestration_latency.build(RN3DMInstance((2, 2, 8, 8)))
        assert orchestration_latency.optimal_latency(g) > g.K


class TestMinLatencyGadget:
    """Props 13-15."""

    @pytest.mark.parametrize("A", SOLVABLE + UNSOLVABLE)
    def test_decision_matches_solvability(self, A):
        inst = RN3DMInstance(A)
        g = minlatency.build(inst)
        assert minlatency.decision(g) == is_solvable(inst)

    @pytest.mark.parametrize("A", SOLVABLE)
    def test_forward_within_K(self, A):
        """K upper-bounds the solvable optimum (the paper bounds each
        branch by ``c_F + sigma_F * 10n``); the exact optimum sits slightly
        below because the last receive slot saves ``(1 - sigma) *
        lambda2``."""
        g = minlatency.build(RN3DMInstance(A))
        forward = minlatency.forward_latency(g)
        assert forward is not None
        assert forward <= g.K
        assert minlatency.optimal_fork_join_latency(g) <= forward

    @pytest.mark.parametrize("A", SOLVABLE + UNSOLVABLE)
    def test_wrong_structures_penalised(self, A):
        g = minlatency.build(RN3DMInstance(A))
        for label, bound in minlatency.structure_penalties(g):
            assert bound > g.K, label


class TestForestLatencyGadget:
    """Prop 17 — reproduction finding: the printed gadget is monotone."""

    def test_full_chain_is_optimal_not_balance(self):
        """Measured behaviour: latency decreases with the chained sum, so
        the minimum is the full chain regardless of partition solvability
        (see the module docstring and EXPERIMENTS.md)."""
        g = forest_latency.build(PartitionInstance((3, 5, 3, 5)))
        profile = forest_latency.full_profile(g)
        best_latency = min(lat for _, lat in profile)
        full = forest_latency.subset_latency(g, range(4))
        assert full == best_latency

    def test_monotone_in_chained_sum(self):
        g = forest_latency.build(PartitionInstance((2, 3, 4, 5)))
        import itertools

        rows = []
        for size in range(5):
            for subset in itertools.combinations(range(4), size):
                s = sum(g.instance.xs[i] for i in subset)
                rows.append((s, forest_latency.subset_latency(g, subset)))
        rows.sort()
        # latency strictly decreases as the chained sum grows
        for (s1, l1), (s2, l2) in zip(rows, rows[1:]):
            if s1 < s2:
                assert l1 > l2

    def test_gadget_constants_match_paper(self):
        g = forest_latency.build(PartitionInstance((3, 5, 3, 5)))
        app = g.application
        S, A = 16, g.A
        assert app.cost("C5") == Fraction(2 * A + S, 2 * A - 2 * S)
        assert g.beta == Fraction(A - S, 2 * A + S)
        assert app.selectivity("C1") == 1 - Fraction(3, A) + g.beta * Fraction(
            3, A
        ) ** 2

    def test_comm_inclusive_latency_also_monotone(self):
        g = forest_latency.build(PartitionInstance((3, 5, 3, 5)))
        assert not forest_latency.decision(g, include_comm=True)

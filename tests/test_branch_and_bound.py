"""Branch and bound: exactness vs enumeration, pruning, planner wiring."""

import random
from fractions import Fraction

import pytest

from repro.core import CommModel, Mapping, make_application
from repro.optimize import (
    Effort,
    bb_minlatency,
    bb_minperiod,
    exhaustive_minlatency,
    exhaustive_minperiod,
    iter_forests,
    make_latency_objective,
    make_period_objective,
)
from repro.planner import AUTO_EXHAUSTIVE_MAX, EvaluationCache, solve
from repro.workloads import fig1_example
from repro.workloads.generators import (
    alternating_platform,
    random_application,
    random_platform,
)
from repro.workloads.paper import (
    b1_application,
    b2_latency_ports,
    b3_period_ports,
)

F = Fraction


class TestPeriodExactness:
    """bb_minperiod optimises exactly what the enumeration optimises."""

    def test_matches_enumeration_on_random_instances(self):
        checked = 0
        for seed in range(60):
            n = 2 + seed % 4
            app = random_application(
                n, seed=seed, filter_fraction=(0.3, 0.6, 0.9)[seed % 3]
            )
            exact, _ = exhaustive_minperiod(app, CommModel.OVERLAP)
            value, graph, stats = bb_minperiod(
                app, make_period_objective(CommModel.OVERLAP)
            )
            assert value == exact, (seed, value, exact)
            assert graph.is_forest
            checked += 1
        assert checked == 60

    @pytest.mark.parametrize("model", [CommModel.INORDER, CommModel.OUTORDER])
    def test_one_port_models_match_enumeration(self, model):
        # The bound effort is cheap enough to sweep; the heuristic effort
        # runs a scheduler per candidate, so only tiny instances compare.
        for seed in range(10):
            app = random_application(2 + seed % 3, seed=seed)
            exact, _ = exhaustive_minperiod(app, model, effort=Effort.BOUND)
            value, _, _ = bb_minperiod(
                app, make_period_objective(model, Effort.BOUND)
            )
            assert value == exact, (seed, model)
        for seed in range(3):
            app = random_application(3, seed=seed + 20)
            exact, _ = exhaustive_minperiod(app, model, effort=Effort.HEURISTIC)
            value, _, _ = bb_minperiod(
                app, make_period_objective(model, Effort.HEURISTIC)
            )
            assert value == exact, (seed, model)

    @pytest.mark.parametrize("n", [4, 5])
    def test_chain_bound_matches_enumeration(self, n):
        # Every child is bounded by m·chain(U), m the least out-size of a
        # placed node with the new leaf's own included: leaving the leaf
        # out prunes the optimum on 13 of these 240 problems.  The
        # "exhaustive" solver is the facade form of exhaustive_minperiod.
        for fraction in (0.3, 0.6, 0.9):
            for seed in range(40):
                app = random_application(n, seed=seed, filter_fraction=fraction)
                for model, effort in (("overlap", "exact"), ("inorder", "bound")):
                    options = dict(model=model, effort=effort, schedule=False)
                    exact = solve(app, method="exhaustive",
                                  cache=EvaluationCache(), **options)
                    result = solve(app, method="branch-and-bound",
                                   cache=EvaluationCache(), **options)
                    assert result.value == exact.value, (fraction, seed, model)

    def test_rejects_precedence(self):
        app = make_application(
            [("a", 1, 1), ("b", 1, 1)], precedence=[("a", "b")]
        )
        with pytest.raises(ValueError):
            bb_minperiod(app, make_period_objective(CommModel.OVERLAP))

    def test_single_service(self):
        app = make_application([("only", 7, "1/2")])
        value, graph, _ = bb_minperiod(
            app, make_period_objective(CommModel.OVERLAP)
        )
        assert value == 7 and graph.edges == frozenset()

    def test_node_limit_returns_incumbent(self):
        app = random_application(6, seed=4)
        value, graph, stats = bb_minperiod(
            app, make_period_objective(CommModel.OVERLAP), node_limit=1
        )
        # The incumbent (at worst the scored greedy seed) is still a valid
        # upper bound.
        exact, _ = exhaustive_minperiod(app, CommModel.OVERLAP)
        assert value >= exact
        assert stats.expanded <= 1


class TestLatencyExactness:
    def test_matches_dag_enumeration(self):
        for seed in range(25):
            n = 2 + seed % 3
            app = random_application(n, seed=seed + 77)
            exact, _ = exhaustive_minlatency(app, CommModel.OVERLAP)
            value, _, _ = bb_minlatency(
                app, make_latency_objective(CommModel.OVERLAP)
            )
            assert value == exact, seed

    def test_nonforest_optimum_is_found(self):
        # A fork-join shape where the optimal latency plan is not a forest
        # would be missed by forest-only search; the DAG space must win.
        for seed in range(6):
            app = random_application(4, seed=seed + 300, filter_fraction=0.9)
            exact, _ = exhaustive_minlatency(app, CommModel.OVERLAP)
            value, _, _ = bb_minlatency(
                app, make_latency_objective(CommModel.OVERLAP)
            )
            assert value == exact

    def test_size_guard(self):
        app = random_application(9, seed=1)
        with pytest.raises(ValueError):
            bb_minlatency(app, make_latency_objective(CommModel.OVERLAP))


class TestHeterogeneousExactness:
    """Pruning divides by the fastest resources, so het stays exact."""

    def test_pinned_mapping_matches_enumeration(self, pinned_mapping):
        for seed in range(12):
            n = 2 + seed % 3
            app = random_application(n, seed=seed + 40)
            platform = random_platform(n, seed=seed)
            mapping = pinned_mapping(app, platform)
            objective = make_period_objective(
                CommModel.OVERLAP, Effort.EXACT, platform, mapping
            )
            exact = min(objective(g) for g in iter_forests(app))
            value, _, _ = bb_minperiod(app, objective)
            assert value == exact, seed

    def test_free_mapping_matches_enumeration(self):
        for seed in range(6):
            n = 2 + seed % 2
            app = random_application(n, seed=seed + 60)
            platform = random_platform(n + 1, seed=seed + 5)
            objective = make_period_objective(
                CommModel.OVERLAP, Effort.EXACT, platform, None
            )
            exact = min(objective(g) for g in iter_forests(app))
            value, _, _ = bb_minperiod(app, objective)
            assert value == exact, seed


class TestCatalogWorkloads:
    """The named paper instances, as far as enumeration can certify."""

    def test_fig1_application_all_models(self):
        # OVERLAP is exact at every effort; the one-port models compare at
        # the bound effort (the heuristic effort schedules each of the
        # 1296 candidate forests — minutes of MCR, same parity statement).
        app = fig1_example().application
        for model, effort in [
            (CommModel.OVERLAP, "exact"),
            (CommModel.INORDER, "bound"),
            (CommModel.OUTORDER, "bound"),
        ]:
            result = solve(
                app, objective="period", model=model,
                method="branch-and-bound", effort=effort,
                schedule=False, cache=EvaluationCache(),
            )
            reference = solve(
                app, objective="period", model=model, method="exhaustive",
                effort=effort, schedule=False, cache=EvaluationCache(),
            )
            assert result.value == reference.value, model

    def test_fig1_latency(self):
        # The bound effort keeps the 29281-DAG reference sweep tractable
        # (higher efforts schedule every candidate DAG); parity across
        # efforts is covered on smaller instances in TestLatencyExactness.
        app = fig1_example().application
        result = solve(app, objective="latency", model="overlap",
                       method="branch-and-bound", effort="bound",
                       schedule=False, cache=EvaluationCache())
        reference = solve(app, objective="latency", model="overlap",
                          method="exhaustive", effort="bound",
                          schedule=False, cache=EvaluationCache())
        assert result.value == reference.value

    def test_hetdemo_on_demo2(self):
        # The platform-dependent optimum: the empty forest, period 2.
        from repro.planner import load_workload

        wl = load_workload("hetdemo")
        result = solve(wl.application, objective="period", model="overlap",
                       method="branch-and-bound", platform=wl.platform,
                       schedule=False, cache=EvaluationCache())
        assert result.value == F(2)
        assert result.graph.edges == frozenset()

    @pytest.mark.parametrize(
        "maker,size", [(b1_application, 5),
                       (lambda: b2_latency_ports().application, 6),
                       (lambda: b3_period_ports().application, 6)]
    )
    def test_restricted_paper_instances(self, maker, size):
        # The full instances (up to n=202) are far beyond enumeration; the
        # restrictions keep the same cost/selectivity structure and stay
        # certifiable both ways.
        app = maker()
        sub = app.restricted_to(list(app.names)[:size])
        exact, _ = exhaustive_minperiod(sub, CommModel.OVERLAP)
        value, _, _ = bb_minperiod(
            sub, make_period_objective(CommModel.OVERLAP)
        )
        assert value == exact

    @pytest.mark.parametrize(
        "maker,size", [(b1_application, 5),
                       (lambda: b3_period_ports().application, 5)]
    )
    def test_restricted_het_variants(self, maker, size, pinned_mapping):
        # The b*het variants run on alternating-speed platforms; the same
        # platforms restricted to the sub-instance stay certifiable.
        app = maker()
        sub = app.restricted_to(list(app.names)[:size])
        platform = alternating_platform(size)
        mapping = pinned_mapping(sub, platform)
        objective = make_period_objective(
            CommModel.OVERLAP, Effort.EXACT, platform, mapping
        )
        exact = min(objective(g) for g in iter_forests(sub))
        value, _, _ = bb_minperiod(sub, objective)
        assert value == exact


class TestPlannerWiring:
    def test_registered_and_auto_selected(self):
        app = random_application(AUTO_EXHAUSTIVE_MAX["period"], seed=9)
        result = solve(app, schedule=False, cache=EvaluationCache())
        assert result.method == "branch-and-bound"
        assert result.requested_method == "auto"
        assert result.stats.extras["certified"] is True
        assert result.stats.extras["space"] == "forests"

    def test_prunes_relative_to_enumeration(self):
        app = random_application(6, seed=2)
        result = solve(app, method="branch-and-bound", schedule=False,
                       cache=EvaluationCache())
        enumeration = solve(app, method="exhaustive", schedule=False,
                            cache=EvaluationCache())
        assert result.value == enumeration.value
        # 6 services: 16807 forests enumerated; bb must evaluate far fewer
        # complete graphs than that.
        assert enumeration.stats.graphs_considered == 16807
        assert result.stats.graphs_considered < 1000

    def test_solver_options_forwarded(self):
        # seed 57 needs real expansions (the root bound does not certify
        # the incumbent), so a zero node budget must report uncertified.
        app = random_application(5, seed=57)
        result = solve(app, method="branch-and-bound", schedule=False,
                       node_limit=0, cache=EvaluationCache())
        assert result.stats.extras["certified"] is False

    def test_n9_well_past_enumeration_caps(self):
        # ~10^8 forests at n=9: plain enumeration is infeasible, branch
        # and bound certifies the optimum in well under a minute (the
        # benchmark records the actual wall time).
        app = random_application(9, seed=4, filter_fraction=0.6)
        result = solve(app, method="branch-and-bound", schedule=False,
                       cache=EvaluationCache())
        ls = solve(app, method="local-search", schedule=False,
                   cache=EvaluationCache())
        assert result.value <= ls.value
        assert result.stats.extras["certified"] is True

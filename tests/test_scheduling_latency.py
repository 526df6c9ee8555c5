"""Tests for latency orchestration: serialized, exact, trees, fork-joins."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CommModel, CostModel, ExecutionGraph, make_application
from repro.scheduling import (
    NodeLimitExceeded,
    exact_oneport_latency,
    exact_oneport_schedule,
    minmax_two_permutations,
    oneport_latency_schedule,
    tree_latency,
    tree_latency_schedule,
)
from repro.scheduling.latency import greedy_second_permutation

F = Fraction


def small_app(n, data, max_cost=6):
    costs = [data.draw(st.integers(0, max_cost)) for _ in range(n)]
    sels = [
        data.draw(
            st.sampled_from([F(1, 2), F(1), F(2), F(1, 4), F(3)])
        )
        for _ in range(n)
    ]
    return make_application(
        [(f"C{i}", costs[i], sels[i]) for i in range(n)]
    )


def random_dag(app, data):
    names = list(app.names)
    edges = []
    for j in range(1, len(names)):
        for i in range(j):
            if data.draw(st.booleans()):
                edges.append((names[i], names[j]))
    return ExecutionGraph(app, edges)


class TestSerializedScheduler:
    def test_single_service(self):
        app = make_application([("a", 3, F(1, 2))])
        plan = oneport_latency_schedule(ExecutionGraph(app, []))
        # in (1) + comp (3) + out (1/2)
        assert plan.latency == F(9, 2)
        assert plan.validate().ok

    def test_chain(self):
        app = make_application([("a", 2, F(1, 2)), ("b", 4, 1)])
        plan = oneport_latency_schedule(ExecutionGraph.chain(app, ["a", "b"]))
        # 1 + 2 + 1/2 + 2 + 1/2 = 6
        assert plan.latency == 6
        assert plan.validate().ok

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_valid_for_all_models(self, data):
        n = data.draw(st.integers(2, 5))
        app = small_app(n, data)
        graph = random_dag(app, data)
        plan = oneport_latency_schedule(graph)
        for model in (CommModel.OVERLAP, CommModel.INORDER, CommModel.OUTORDER):
            report = plan.operation_list and plan
            from repro.core import validate

            rep = validate(graph, plan.operation_list, model)
            assert rep.ok, (model, rep.violations)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_at_least_critical_path(self, data):
        n = data.draw(st.integers(2, 5))
        app = small_app(n, data)
        graph = random_dag(app, data)
        plan = oneport_latency_schedule(graph)
        assert plan.latency >= CostModel(graph).latency_lower_bound()


class TestExactLatency:
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_exact_le_greedy(self, data):
        n = data.draw(st.integers(2, 4))
        app = small_app(n, data)
        graph = random_dag(app, data)
        exact = exact_oneport_latency(graph)
        greedy = oneport_latency_schedule(graph).latency
        assert exact <= greedy
        assert exact >= CostModel(graph).latency_lower_bound()

    def test_exact_beats_bad_tie_breaks(self):
        """Fork with unequal branches: feeding the long branch first wins."""
        app = make_application(
            [("f", 1, 1), ("short", 1, 1), ("long", 10, 1), ("j", 1, 1)]
        )
        graph = ExecutionGraph(
            app,
            [("f", "short"), ("f", "long"), ("short", "j"), ("long", "j")],
        )
        exact = exact_oneport_latency(graph)
        # in 1 + f 1 + send long 1 + long 10 + recv(short early) + recv long 1
        # + j 1 + out 1 = 16
        assert exact == 16
        plan = exact_oneport_schedule(graph)
        assert plan.latency == 16 and plan.is_valid()

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_schedule_achieves_the_exact_value(self, data):
        n = data.draw(st.integers(2, 4))
        graph = random_dag(small_app(n, data), data)
        for model in CommModel:
            plan = exact_oneport_schedule(graph, model)
            assert plan.latency == exact_oneport_latency(graph)
            assert plan.model is model and plan.is_valid()

    def test_node_limit_carries_the_best_schedule(self):
        from repro.planner import load_workload

        # The latency-optimal DAG of random:n=5,seed=17: the greedy
        # serialized schedule takes 39373/2048, the exact one 38477/2048.
        graph = ExecutionGraph(
            load_workload("random:n=5,seed=17").application,
            [("C1", "C0"), ("C1", "C3"), ("C2", "C0"), ("C2", "C3")],
        )
        for limit, latency in ((5, F(39373, 2048)), (20, F(38477, 2048))):
            with pytest.raises(NodeLimitExceeded) as caught:
                exact_oneport_schedule(graph, node_limit=limit)
            assert isinstance(caught.value, RuntimeError)
            assert caught.value.plan.latency == latency
            assert caught.value.plan.is_valid()
        assert exact_oneport_latency(graph) == F(38477, 2048)


class TestExactLatencyPlans:
    """A solve scored at the exact effort returns a plan achieving its value."""

    @pytest.mark.parametrize("model", ["overlap", "inorder", "outorder"])
    def test_dag_optimum_plan(self, model):
        from repro.planner import load_workload, solve

        # The optimum is a DAG whose exact one-port latency 38477/2048
        # beats the greedy serialized schedule's 39373/2048.
        result = solve(
            load_workload("random:n=5,seed=17").application,
            objective="latency", model=model,
        )
        assert result.method == "branch-and-bound"
        assert result.value == F(38477, 2048)
        assert result.plan.latency == result.value
        assert result.plan.is_valid()

    def test_seeded_instances(self):
        from repro.planner import load_workload, solve

        for seed in range(20):
            result = solve(
                load_workload(f"random:n=5,seed={seed}").application,
                objective="latency", model="inorder",
            )
            assert result.plan.latency == result.value, seed
            assert result.plan.is_valid(), seed

    def test_fixed_graph_at_the_exact_effort(self):
        from repro.planner import load_workload, solve

        app = load_workload("random:n=5,seed=17").application
        graph = solve(app, objective="latency", schedule=False).graph
        result = solve(graph, objective="latency", method="exhaustive")
        assert result.value == F(38477, 2048)
        assert result.plan.latency == result.value and result.plan.is_valid()

    def test_node_limit_returns_an_uncertified_plan(self, monkeypatch):
        import functools

        import repro.optimize.evaluation as evaluation
        from repro.planner import load_workload, solve

        monkeypatch.setattr(
            evaluation, "exact_oneport_latency",
            functools.partial(evaluation.exact_oneport_latency, node_limit=20),
        )
        result = solve(
            load_workload("random:n=5,seed=3").application,
            objective="latency", model="outorder", method="branch-and-bound",
        )
        assert result.plan.is_valid()
        assert result.plan.latency <= result.value
        assert result.stats.extras["certified"] is False


class TestTreeLatency:
    def test_single_chain_matches_formula(self):
        app = make_application([("a", 2, F(1, 2)), ("b", 4, 1)])
        graph = ExecutionGraph.chain(app, ["a", "b"])
        assert tree_latency(graph) == 6

    def test_star_feeds_longest_first(self):
        app = make_application(
            [("r", 1, 1), ("x", 10, 1), ("y", 1, 1)]
        )
        graph = ExecutionGraph(app, [("r", "x"), ("r", "y")])
        # feed x first: x done at 1+1+1+10+1 = 14; y: 1+1+2+1+1 = 6 -> 14
        assert tree_latency(graph) == 14

    def test_rejects_non_forest(self):
        app = make_application([("a", 1, 1), ("b", 1, 1), ("c", 1, 1)])
        graph = ExecutionGraph(app, [("a", "c"), ("b", "c")])
        with pytest.raises(ValueError):
            tree_latency(graph)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_exact_search(self, data):
        """Algorithm 1 equals branch-and-bound over all orders (Prop 12)."""
        n = data.draw(st.integers(2, 5))
        app = small_app(n, data, max_cost=4)
        names = list(app.names)
        parents = {names[0]: None}
        for j in range(1, n):
            pick = data.draw(st.integers(-1, j - 1))
            parents[names[j]] = None if pick < 0 else names[pick]
        graph = ExecutionGraph.from_parents(app, parents)
        assert tree_latency(graph) == exact_oneport_latency(graph)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_schedule_realises_value(self, data):
        n = data.draw(st.integers(2, 5))
        app = small_app(n, data, max_cost=4)
        names = list(app.names)
        parents = {names[0]: None}
        for j in range(1, n):
            pick = data.draw(st.integers(-1, j - 1))
            parents[names[j]] = None if pick < 0 else names[pick]
        graph = ExecutionGraph.from_parents(app, parents)
        plan = tree_latency_schedule(graph)
        assert plan.latency == tree_latency(graph)
        assert plan.validate().ok, plan.validate().violations

    def test_paper_literal_leaf_variant(self):
        """include_output=False reproduces the paper's Algorithm-1 leaf case."""
        app = make_application([("a", 3, F(2))])
        graph = ExecutionGraph(app, [])
        assert tree_latency(graph, include_output=False) == 4  # 1 + 3
        assert tree_latency(graph, include_output=True) == 6  # + sigma=2


class TestMinMaxTwoPermutations:
    def test_greedy_second_permutation(self):
        vals = [F(5), F(1), F(3)]
        best, mu = greedy_second_permutation(vals)
        assert sorted(mu) == [1, 2, 3]
        assert best == max(vals[i] + mu[i] for i in range(3))
        assert mu[0] == 1  # largest value gets smallest slot

    def test_uniform_values(self):
        best, l1, l2 = minmax_two_permutations([F(0)] * 4)
        # some i has lambda1(i) + lambda2(i) >= average 5
        assert best == 5

    def test_rn3dm_encoding(self):
        # B = n - A + n^2 with A = (2, 4, 6), n = 3 -> B = (10, 8, 6); the
        # average of lambda1 + B + lambda2 is n + n^2 = 12, reached exactly
        # iff lambda1 + lambda2 = A pointwise (A is solvable here).
        best, l1, l2 = minmax_two_permutations([F(10), F(8), F(6)])
        assert best == 12

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(0, 12), min_size=2, max_size=5),
    )
    def test_exact_le_heuristic(self, values):
        vals = [F(v) for v in values]
        exact, _, _ = minmax_two_permutations(vals, exact=True)
        heur, _, _ = minmax_two_permutations(vals, exact=False)
        assert exact <= heur

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=2, max_size=5))
    def test_certificates_are_permutations(self, values):
        vals = [F(v) for v in values]
        best, l1, l2 = minmax_two_permutations(vals)
        n = len(vals)
        assert sorted(l1) == list(range(1, n + 1))
        assert sorted(l2) == list(range(1, n + 1))
        assert best == max(vals[i] + l1[i] + l2[i] for i in range(n))

"""Delta evaluation: exact-Fraction parity with full CostModel recomputes."""

import random
from fractions import Fraction

import pytest

from repro.core import (
    CommModel,
    CostModel,
    ExecutionGraph,
    Mapping,
    make_application,
)
from repro.optimize import (
    Effort,
    IncrementalForestPeriod,
    IncrementalSharedCosts,
    local_search_forest,
    make_period_objective,
    optimize_mapping,
    placement_local_search,
)
from repro.workloads.generators import random_application, random_platform

F = Fraction


class TestForestParity:
    """score/apply_reparent == CostModel.period_lower_bound, bit for bit.

    The randomized sweep covers > 200 (graph, platform) configurations —
    unit and heterogeneous (pinned mapping) — across all three models,
    with several committed moves per configuration.
    """

    def test_randomized_parity_unit_and_het(self, forest_graph):
        rng = random.Random(7)
        configurations = 0
        moves_checked = 0
        for seed in range(72):
            n = 2 + seed % 5
            app = random_application(n, seed=seed)
            graph = forest_graph(app, rng)
            names = list(app.names)
            for model in CommModel:
                if seed % 2:
                    platform = random_platform(n + 1, seed=seed)
                    mapping = Mapping(dict(zip(names, platform.names)))
                else:
                    platform = mapping = None
                inc = IncrementalForestPeriod(
                    graph, model=model, platform=platform, mapping=mapping
                )
                expected = CostModel(graph, platform, mapping)
                assert inc.value() == expected.period_lower_bound(model)
                configurations += 1
                for _ in range(5):
                    node = rng.choice(names)
                    cand = rng.choice(
                        [None] + [p for p in names if p != node]
                    )
                    score = inc.score_reparent(node, cand)
                    if score is None:
                        continue
                    inc.apply_reparent(node, cand)
                    full = CostModel(
                        inc.graph(), platform, mapping
                    ).period_lower_bound(model)
                    assert score == full == inc.value()
                    moves_checked += 1
        assert configurations >= 200
        assert moves_checked >= 300

    def test_cycle_detection(self):
        app = make_application([("A", 1, "1/2"), ("B", 2, 1), ("C", 3, 1)])
        graph = ExecutionGraph(app, [("A", "B"), ("B", "C")])
        inc = IncrementalForestPeriod(graph)
        assert inc.score_reparent("A", "C") is None      # C descends from A
        assert inc.score_reparent("A", "B") is None      # likewise
        assert inc.score_reparent("C", "A") is not None  # reparent up: fine
        assert inc.score_reparent("B", "B") is None      # self
        assert inc.score_reparent("B", "A") is None      # no-op

    def test_rejects_non_forest_and_free_het_mapping(self):
        app = make_application([("A", 1, 1), ("B", 1, 1), ("C", 4, 1)])
        dag = ExecutionGraph(app, [("A", "C"), ("B", "C")])
        with pytest.raises(ValueError):
            IncrementalForestPeriod(dag)
        platform = random_platform(3, seed=0)
        with pytest.raises(ValueError):
            IncrementalForestPeriod(
                ExecutionGraph.empty(app), platform=platform
            )


class TestMappingParity:
    def test_randomized_parity(self, forest_graph):
        rng = random.Random(11)
        moves_checked = 0
        for seed in range(30):
            n = 2 + seed % 4
            app = random_application(n, seed=seed + 900)
            graph = forest_graph(app, rng)
            platform = random_platform(n + 2, seed=seed + 3)
            names = list(app.names)
            mapping = Mapping(dict(zip(names, platform.names)))
            for model in CommModel:
                inc = IncrementalSharedCosts(
                    graph, platform, mapping, model=model, shared=False
                )
                assert inc.value() == CostModel(
                    graph, platform, mapping
                ).period_lower_bound(model)
                for _ in range(4):
                    if rng.random() < 0.5:
                        svc = rng.choice(names)
                        idle = [
                            s for s in platform.names
                            if s not in inc.assignment.values()
                        ]
                        if not idle:
                            continue
                        srv = rng.choice(idle)
                        score = inc.score_reassign(svc, srv)
                        inc.apply_reassign(svc, srv)
                    elif n >= 2:
                        a, b = rng.sample(names, 2)
                        score = inc.score_swap(a, b)
                        inc.apply_swap(a, b)
                    else:
                        continue
                    full = CostModel(
                        graph, platform, inc.mapping()
                    ).period_lower_bound(model)
                    assert score == full == inc.value()
                    moves_checked += 1
        assert moves_checked >= 200


class TestSearchEquivalence:
    """The delta paths reach the same answers as the baseline paths."""

    def test_local_search_same_value_with_and_without_delta(self, monkeypatch):
        import repro.optimize.local_search as ls

        # The search builds its delta itself; keep a handle on it.
        deltas = []
        real_delta = ls.period_delta
        monkeypatch.setattr(
            ls, "period_delta",
            lambda *a, **k: deltas.append(real_delta(*a, **k)) or deltas[-1],
        )
        for seed in range(15):
            n = 3 + seed % 5
            app = random_application(n, seed=seed + 50)
            start = ExecutionGraph.empty(app)
            objective = make_period_objective(CommModel.OVERLAP)
            # A plain callable scores every candidate graph.
            base_val, base_graph = local_search_forest(
                start, lambda g: objective(g)
            )
            fast_val, fast_graph = local_search_forest(start, objective)
            delta = deltas[-1]
            assert isinstance(delta, IncrementalForestPeriod)
            assert fast_val == base_val
            assert fast_graph.edges == base_graph.edges
            # Delta state tracked the committed moves exactly.
            assert delta.graph().edges == fast_graph.edges
            assert objective(fast_graph) == fast_val

    def test_delta_search_avoids_objective_calls(self):
        app = random_application(12, seed=8)
        start = ExecutionGraph.empty(app)
        objective = make_period_objective(CommModel.OVERLAP)
        calls = {"n": 0}

        def counting(graph):
            calls["n"] += 1
            return objective(graph)

        base_val, _ = local_search_forest(start, counting)
        baseline_calls = calls["n"]
        # The objective itself carries its configuration: priced on deltas.
        before = objective.evaluations
        fast_val, _ = local_search_forest(start, objective)
        calls["n"] = objective.evaluations - before
        assert fast_val == base_val
        # The whole point: candidates priced by deltas, not evaluations.
        assert calls["n"] == 0
        assert baseline_calls >= 3 * max(calls["n"], 1)

    def test_placement_search_same_value_with_evaluator(self):
        for seed in range(8):
            n = 2 + seed % 3
            app = random_application(n, seed=seed + 200)
            graph = ExecutionGraph.empty(app)
            platform = random_platform(n + 2, seed=seed)
            names = list(app.names)
            start = Mapping(dict(zip(names, platform.names)))

            def objective(m):
                return CostModel(graph, platform, m).period_lower_bound(
                    CommModel.OVERLAP
                )

            base_val, base_map = placement_local_search(
                graph, objective, start, platform
            )
            evaluator = IncrementalSharedCosts(
                graph, platform, start, model=CommModel.OVERLAP, shared=False
            )
            fast_val, fast_map = placement_local_search(
                graph, objective, start, platform, evaluator=evaluator
            )
            assert fast_val == base_val
            assert fast_map == base_map
            assert evaluator.mapping() == fast_map

    def test_optimize_mapping_large_space_uses_evaluator(self):
        # 7 services on 8 servers: P(8,7) = 40320 > 720, so the local
        # search (and hence the evaluator) path runs; the result must
        # agree with scoring the final mapping from scratch.
        app = random_application(7, seed=31)
        graph = ExecutionGraph.empty(app)
        platform = random_platform(8, seed=2)
        value, mapping = optimize_mapping(
            graph, "period", CommModel.OVERLAP, Effort.HEURISTIC, platform
        )
        assert value == CostModel(graph, platform, mapping).period_lower_bound(
            CommModel.OVERLAP
        )

"""Regression tests for the search hot-path fixes.

1. ``clear_default_cache`` also clears the module-level placement memo.
2. ``local_search_forest`` resumes its scan after an accepted move
   (instead of restarting at the first service) and only swallows the
   cycle error when probing candidate parents.
3. ``solve(graph, method="auto", schedule=False)`` reads the memoized
   objective instead of running the placement optimiser and building an
   operation list it would immediately discard.
"""

from fractions import Fraction

import pytest

from repro.core import CommModel, CostModel, ExecutionGraph, make_application
from repro.optimize import (
    Effort,
    clear_placement_memo,
    local_search_forest,
    make_period_objective,
    optimize_mapping,
    placement_memo_size,
)
from repro.planner import EvaluationCache, clear_default_cache, solve
from repro.workloads import fig1_example
from repro.workloads.generators import random_application, random_platform

F = Fraction


# ---------------------------------------------------------------------------
# 1. Placement memo lifecycle
# ---------------------------------------------------------------------------

class TestPlacementMemoClear:
    def test_clear_default_cache_clears_placement_memo(self):
        clear_default_cache()
        assert placement_memo_size() == 0
        app = random_application(3, seed=1)
        platform = random_platform(4, seed=1)
        optimize_mapping(
            ExecutionGraph.empty(app), "period", CommModel.OVERLAP,
            Effort.HEURISTIC, platform,
        )
        assert placement_memo_size() > 0
        clear_default_cache()
        assert placement_memo_size() == 0

    def test_clear_placement_memo_direct(self):
        app = random_application(3, seed=2)
        platform = random_platform(4, seed=2)
        optimize_mapping(
            ExecutionGraph.empty(app), "period", CommModel.OVERLAP,
            Effort.HEURISTIC, platform,
        )
        assert placement_memo_size() > 0
        clear_placement_memo()
        assert placement_memo_size() == 0


# ---------------------------------------------------------------------------
# 2. Local-search scan behaviour and error handling
# ---------------------------------------------------------------------------

def _naive_restart_search(graph, objective, max_moves=200):
    """The pre-fix loop: restart the scan at the first service after every
    accepted move (kept here as the comparison baseline)."""
    app = graph.application
    parents = {
        n: (graph.predecessors(n)[0] if graph.predecessors(n) else None)
        for n in graph.nodes
    }
    current = objective(graph)
    moves, improved = 0, True
    while improved and moves < max_moves:
        improved = False
        for node in app.names:
            for candidate in [None] + [p for p in app.names if p != node]:
                if candidate == parents[node]:
                    continue
                trial = dict(parents)
                trial[node] = candidate
                try:
                    trial_graph = ExecutionGraph.from_parents(app, trial)
                except Exception:
                    continue
                val = objective(trial_graph)
                if val < current:
                    parents, current = trial, val
                    moves += 1
                    improved = True
                    break
            if improved:
                break
    return current, ExecutionGraph.from_parents(app, parents)


class TestScanResume:
    def test_scan_continues_after_accepted_move(self):
        # Crafted so no move on A improves, the first accepted move is on
        # B (position 1), and C still has candidates to probe.  The fixed
        # scan must probe C next; the old loop restarted at A.
        app = make_application([("A", 2, 1), ("B", 8, 1), ("C", 1, "1/2")])
        objective = make_period_objective(CommModel.OVERLAP)
        probes = []
        state = {
            "parents": {n: None for n in app.names},
            "value": objective(ExecutionGraph.empty(app)),
        }

        def tracking(graph):
            trial = {
                n: (graph.predecessors(n)[0] if graph.predecessors(n) else None)
                for n in graph.nodes
            }
            changed = [
                n for n in app.names if trial[n] != state["parents"][n]
            ]
            value = objective(graph)
            if len(changed) == 1:  # a probe, not the final reconstruction
                accepted = value < state["value"]
                probes.append((changed[0], accepted))
                if accepted:  # mirror first-improvement acceptance
                    state["parents"], state["value"] = trial, value
            return value

        value, graph = local_search_forest(
            ExecutionGraph.empty(app), tracking
        )
        assert value == F(4) and sorted(graph.edges) == [("C", "B")]
        accepted_at = [i for i, (_, ok) in enumerate(probes) if ok]
        assert probes[accepted_at[0]][0] == "B"
        # Regression: the probe right after the accepted move is on C (the
        # next service in scan order), not a restart at A.
        assert probes[accepted_at[0] + 1][0] == "C"

    def test_same_local_optimum_quality_as_restart_scan(self):
        for seed in (3, 9, 21):
            app = random_application(8, seed=seed, filter_fraction=0.8)
            start = ExecutionGraph.empty(app)
            objective = make_period_objective(CommModel.OVERLAP)
            naive_val, _ = _naive_restart_search(start, objective)
            fixed_val, fixed_graph = local_search_forest(start, objective)
            # Different trajectories, but both must end in a local optimum
            # no worse than the empty start.
            assert fixed_val <= objective(start)
            assert fixed_graph.is_forest

    def test_terminates_at_local_optimum(self):
        # After the search stops, no single reparent can improve.
        app = random_application(5, seed=13)
        objective = make_period_objective(CommModel.OVERLAP)
        value, graph = local_search_forest(
            ExecutionGraph.empty(app), objective
        )
        parents = {
            n: (graph.predecessors(n)[0] if graph.predecessors(n) else None)
            for n in graph.nodes
        }
        for node in app.names:
            for candidate in [None] + [p for p in app.names if p != node]:
                if candidate == parents[node]:
                    continue
                trial = dict(parents)
                trial[node] = candidate
                try:
                    trial_graph = ExecutionGraph.from_parents(app, trial)
                except ValueError:
                    continue
                assert objective(trial_graph) >= value


class TestNarrowedExceptionGuard:
    def test_cycle_candidates_are_skipped(self):
        app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        objective = make_period_objective(CommModel.OVERLAP)
        value, graph = local_search_forest(
            ExecutionGraph.empty(app),
            lambda g: objective(g),  # a plain callable: graphs are built
        )
        assert value == F(4) and sorted(graph.edges) == [("A", "B")]

    def test_unexpected_errors_propagate(self, monkeypatch):
        # The old bare ``except Exception`` silently ate *any* failure when
        # probing a candidate; only the cycle error may be swallowed now.
        import repro.optimize.local_search as ls

        app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        original = ls.ExecutionGraph.from_parents.__func__
        calls = {"n": 0}

        def flaky(cls, application, parents):
            calls["n"] += 1
            if calls["n"] == 2:  # first trial construction blows up
                raise RuntimeError("storage layer fell over")
            return original(cls, application, parents)

        monkeypatch.setattr(
            ls.ExecutionGraph, "from_parents", classmethod(flaky)
        )
        objective = make_period_objective(CommModel.OVERLAP)
        with pytest.raises(RuntimeError, match="storage layer"):
            local_search_forest(
                ExecutionGraph.empty(app),
                lambda g: objective(g),  # a plain callable: graphs are built
            )


# ---------------------------------------------------------------------------
# 3. Fixed-graph auto solves without a schedule
# ---------------------------------------------------------------------------

class TestNoScheduleFastPath:
    def test_no_placement_and_no_plan_on_unit_platform(self, monkeypatch):
        import repro.optimize.placement as placement

        def boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("placement optimiser must not run")

        monkeypatch.setattr(placement, "optimize_mapping", boom)
        graph = fig1_example().graph
        result = solve(graph, objective="period", model="overlap",
                       schedule=False, cache=EvaluationCache())
        assert result.plan is None
        assert result.method == "schedule"
        assert result.value == 4

    def test_value_matches_scheduled_value(self):
        graph = fig1_example().graph
        for objective in ("period", "latency"):
            for model in CommModel:
                fast = solve(graph, objective=objective, model=model,
                             schedule=False, cache=EvaluationCache())
                full = solve(graph, objective=objective, model=model,
                             schedule=True, cache=EvaluationCache())
                assert fast.value == full.value, (objective, model)
                assert fast.plan is None and full.plan is not None

    def test_evaluations_are_accounted(self):
        graph = fig1_example().graph
        cache = EvaluationCache()
        first = solve(graph, model="inorder", schedule=False, cache=cache)
        assert first.stats.evaluations > 0
        again = solve(graph, model="inorder", schedule=False, cache=cache)
        assert again.stats.evaluations == 0
        assert again.stats.cache_hits > 0
        assert again.value == first.value

    def test_het_platform_value_consistent(self):
        # On a non-unit platform the no-schedule value must equal the
        # with-schedule value (both optimise the placement through the
        # same memoized objective).
        app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        graph = ExecutionGraph(app, [("A", "B")])
        fast = solve(graph, model="overlap", platform="demo2",
                     schedule=False, cache=EvaluationCache())
        full = solve(graph, model="overlap", platform="demo2",
                     schedule=True, cache=EvaluationCache())
        assert fast.value == full.value
        assert fast.plan is None
        # The winning placement is still reported (resolved from the
        # placement memo the objective just populated, not re-searched).
        assert fast.mapping == full.mapping
        assert fast.mapping is not None

"""Anytime portfolio solving: ``solve(deadline=...)`` and the racer engine.

The contracts under test:

1. ``deadline=None`` is the identity — every catalog workload solves to
   exactly the result it solved to before the anytime layer existed.
2. Any deadline — including one that has already expired — returns a
   valid plan (the greedy racer runs unconditionally), never an error.
3. A sufficient budget reproduces the unbudgeted result (the portfolio's
   primary racer is the method the caller asked for).
4. Fixed seeds make the portfolio deterministic; among equal-valued
   racers the *earliest in priority order* wins (greedy, primary,
   seeded local searches, branch and bound last).
"""

import json
import random
from fractions import Fraction as F

import pytest

from repro.core import CommModel, Exactness
from repro.optimize.evaluation import Effort
from repro.optimize.portfolio import (
    PortfolioOutcome,
    Racer,
    build_racers,
    portfolio_search,
    random_forest,
    run_portfolio,
)
from repro.planner import EvaluationCache, load_workload, solve, solve_many, workload_names
from repro.workloads.generators import random_application

#: Catalog specs small enough for unit-test budgets (b1/b1het are n=202 —
#: their solve path is byte-identical code, just slow).
CATALOG = [
    name for name in workload_names()
    if not name.startswith("b1") and load_workload(name).application is not None
]


def _workload_args(spec):
    w = load_workload(spec)
    return w.application, {"platform": w.platform, "mapping": w.mapping}


class TestDeadlineNoneIsIdentity:
    def test_full_catalog(self):
        for spec in CATALOG:
            app, extra = _workload_args(spec)
            cache = EvaluationCache()
            base = solve(app, schedule=False, cache=cache, **extra)
            again = solve(app, schedule=False, cache=cache, deadline=None, **extra)
            assert again.value == base.value, spec
            assert again.graph.edges == base.graph.edges, spec
            assert again.method == base.method, spec
            assert again.deadline is None and again.budget_exhausted is None
            assert again.trajectory is None


class TestAnytimeValidity:
    def test_expired_deadline_still_returns_valid_plan(self):
        for spec in ["fig1", "b3", "chain", "forkjoin", "star", "random"]:
            app, extra = _workload_args(spec)
            result = solve(app, deadline=0.0, cache=EvaluationCache(), **extra)
            assert result.method == "portfolio"
            assert result.budget_exhausted is True
            assert result.graph.is_forest
            assert result.plan is not None and result.plan.is_valid()
            # The reported value really is the graph's objective value.
            check = EvaluationCache().objective(
                "period", CommModel.OVERLAP, Effort.HEURISTIC,
                extra["platform"], extra["mapping"],
            )
            assert result.value == check(result.graph), spec
            assert result.trajectory and result.trajectory[0][2] == "greedy"

    def test_tiny_deadline_random_sweep(self):
        for seed in range(12):
            n = random.Random(seed).randrange(3, 9)
            app = random_application(n, seed=seed, filter_fraction=0.5)
            result = solve(
                app, deadline=1e-9, schedule=False, cache=EvaluationCache()
            )
            assert result.budget_exhausted is True, seed
            assert result.graph.is_forest, seed
            check = EvaluationCache().objective("period", CommModel.OVERLAP)
            assert result.value == check(result.graph), seed

    def test_sufficient_budget_matches_unbudgeted(self):
        for seed in range(8):
            app = random_application(5, seed=seed + 20, filter_fraction=0.6)
            base = solve(app, schedule=False, cache=EvaluationCache())
            timed = solve(
                app, schedule=False, cache=EvaluationCache(), deadline=120.0
            )
            assert timed.method == "portfolio"
            assert timed.requested_method == "auto"
            assert timed.value == base.value, seed
            assert timed.budget_exhausted is False, seed

    def test_latency_objective_deadline(self):
        app = random_application(4, seed=5, filter_fraction=0.5)
        base = solve(app, objective="latency", schedule=False,
                     cache=EvaluationCache())
        timed = solve(app, objective="latency", schedule=False,
                      cache=EvaluationCache(), deadline=120.0)
        assert timed.value == base.value
        assert timed.budget_exhausted is False

    def test_as_dict_carries_anytime_fields(self):
        app = random_application(4, seed=9)
        result = solve(app, deadline=60.0, schedule=False,
                       cache=EvaluationCache())
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["deadline"] == 60.0
        assert payload["budget_exhausted"] is False
        assert payload["trajectory"][0]["racer"] == "greedy"


class TestDeterminism:
    def test_fixed_seeds_fixed_outcome(self):
        for seed in range(6):
            app = random_application(6, seed=seed + 40, filter_fraction=0.5)
            runs = []
            for _ in range(2):
                cache = EvaluationCache()
                fn = cache.objective(
                    "period", CommModel.OVERLAP,
                    exactness=Exactness.CERTIFIED,
                )
                out = portfolio_search(app, fn, seeds=3, seed_base=17)
                runs.append(out)
            a, b = runs
            assert a.value == b.value, seed
            assert a.graph.edges == b.graph.edges, seed
            assert [t[2] for t in a.trajectory] == [t[2] for t in b.trajectory]

    def test_earliest_racer_wins_ties(self):
        # Two racers return the same value: the incumbent only moves on a
        # strict improvement, so the priority-order earliest racer owns
        # the result — the documented tie-break.
        app = random_application(3, seed=1)
        fn = EvaluationCache().objective("period", CommModel.OVERLAP)
        graph = random_forest(app, random.Random(0))
        value = fn(graph)
        racers = [
            Racer("first", lambda r, i: (value, graph, {})),
            Racer("second", lambda r, i: (value, graph, {})),
        ]
        out = run_portfolio(racers)
        assert [t[2] for t in out.trajectory] == ["first"]
        assert out.budget_exhausted is False

    def test_random_forest_is_seed_deterministic(self):
        app = random_application(7, seed=3)
        for seed in range(10):
            g1 = random_forest(app, random.Random(seed))
            g2 = random_forest(app, random.Random(seed))
            assert g1.edges == g2.edges
            assert g1.is_forest
            assert set(g1.nodes) == set(app.names)

    def test_roster_order(self):
        app = random_application(5, seed=2)
        fn = EvaluationCache().objective("period", CommModel.OVERLAP)
        names = [
            r.name
            for r in build_racers(app, fn, primary="auto", seeds=2)
        ]
        assert names == [
            "greedy", "branch-and-bound", "local-search",
            "local-search[seed=17]", "local-search[seed=18]",
        ]
        names = [
            r.name
            for r in build_racers(app, fn, primary="local-search", seeds=1)
        ]
        assert names == [
            "greedy", "local-search", "local-search[seed=17]",
            "branch-and-bound",
        ]


class TestEngine:
    def test_greedy_always_runs_even_at_zero(self):
        app = random_application(4, seed=11)
        fn = EvaluationCache().objective("period", CommModel.OVERLAP)
        out = portfolio_search(app, fn, deadline=0.0)
        assert isinstance(out, PortfolioOutcome)
        assert [r["racer"] for r in out.racers] == ["greedy"]
        assert out.budget_exhausted is True

    def test_empty_roster_rejected(self):
        with pytest.raises(ValueError):
            run_portfolio([])

    def test_bb_racer_improves_or_matches_greedy(self):
        for seed in range(5):
            app = random_application(6, seed=seed + 70, filter_fraction=0.5)
            cache = EvaluationCache()
            fn = cache.objective(
                "period", CommModel.OVERLAP, exactness=Exactness.CERTIFIED
            )
            out = portfolio_search(app, fn)
            optimum = solve(
                app, method="branch-and-bound", schedule=False,
                cache=EvaluationCache(), effort="heuristic",
            ).value
            assert out.value == optimum, seed


class TestIntegration:
    def test_solve_many_deadline_passthrough(self):
        apps = [load_workload(s).application for s in ["fig1", "b3"]]
        batch = solve_many(apps, schedule=False, processes=1, deadline=60.0)
        for result in batch.results:
            assert result.method == "portfolio"
            assert result.deadline == 60.0
            assert result.budget_exhausted is False
        expected = [
            solve(load_workload(s).application, schedule=False,
                  cache=EvaluationCache()).value
            for s in ["fig1", "b3"]
        ]
        assert [r.value for r in batch.results] == expected

    def test_cli_deadline_flag(self, capsys):
        from repro.__main__ import main

        assert main(["solve", "fig1", "--remap", "--deadline", "60",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (result,) = payload["results"]
        assert result["method"] == "portfolio"
        assert result["deadline"] == 60.0
        assert result["budget_exhausted"] is False
        assert result["value"] == "4"

    def test_portfolio_method_without_deadline(self):
        # method="portfolio" with no deadline: bounded B&B, still optimal
        # on small instances, and budget_exhausted reported.
        app = random_application(5, seed=13, filter_fraction=0.5)
        result = solve(app, method="portfolio", schedule=False,
                       cache=EvaluationCache())
        optimum = solve(app, method="branch-and-bound", schedule=False,
                        cache=EvaluationCache(), effort="heuristic")
        assert result.value == optimum.value
        assert result.budget_exhausted is False

    def test_workers_option_is_rejected(self):
        # The portfolio races in the caller's process; there is no
        # process mode to ask for.
        app = random_application(5, seed=31, filter_fraction=0.5)
        with pytest.raises(TypeError, match="workers"):
            solve(app, deadline=1.0, workers=2, cache=EvaluationCache())

    def test_graph_problem_records_deadline_only(self):
        w = load_workload("fig1")
        result = solve(w.graph, deadline=5.0, cache=EvaluationCache())
        assert result.deadline == 5.0
        assert result.budget_exhausted is None and result.trajectory is None
        assert result.method == "schedule"

"""The planner facade: solver parity, auto-selection, caching, CLI."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from repro.core import ALL_MODELS, CommModel, ExecutionGraph, make_application
from repro.optimize import (
    exhaustive_minlatency,
    exhaustive_minperiod,
    greedy_minperiod,
    local_search_minperiod,
    minlatency_chain,
    minperiod_chain,
    nocomm_optimal_period_plan,
    period_objective,
)
from repro.planner import (
    AUTO_EXHAUSTIVE_MAX,
    EvaluationCache,
    PlanResult,
    SolverRegistry,
    clear_default_cache,
    default_cache,
    load_workload,
    solve,
    solve_many,
    compare,
)
from repro.workloads import fig1_example
from repro.workloads.generators import random_application

F = Fraction


@pytest.fixture(scope="module")
def fig1():
    return fig1_example()


# ---------------------------------------------------------------------------
# Facade vs direct optimizer calls (mapping problems)
# ---------------------------------------------------------------------------

class TestFacadeParity:
    @pytest.fixture(scope="class")
    def app(self):
        return random_application(4, seed=11, filter_fraction=0.7)

    def test_exhaustive_matches_direct(self, app):
        direct_val, _ = exhaustive_minperiod(app, CommModel.OVERLAP)
        result = solve(app, objective="period", model="overlap",
                       method="exhaustive", cache=EvaluationCache())
        assert result.value == direct_val
        assert result.method == "exhaustive"
        # (n+1)^n parent maps, minus the cyclic ones.
        assert result.stats.graphs_considered == 125

    def test_exhaustive_latency_matches_direct(self, app):
        direct_val, _ = exhaustive_minlatency(app, CommModel.OVERLAP)
        result = solve(app, objective="latency", model="overlap",
                       method="exhaustive", cache=EvaluationCache())
        assert result.value == direct_val

    def test_greedy_matches_direct(self, app):
        direct_val, _ = greedy_minperiod(app, CommModel.OVERLAP)
        result = solve(app, objective="period", model="overlap",
                       method="greedy", cache=EvaluationCache())
        assert result.value == direct_val

    def test_local_search_matches_direct(self, app):
        _, seed_graph = greedy_minperiod(app, CommModel.OVERLAP)
        direct_val, _ = local_search_minperiod(seed_graph, CommModel.OVERLAP)
        result = solve(app, objective="period", model="overlap",
                       method="local-search", cache=EvaluationCache())
        assert result.value == direct_val
        assert result.stats.extras["seed_value"] >= result.value

    def test_chain_and_nocomm_match_direct(self, app):
        assert solve(app, method="chain", schedule=False).value == \
            minperiod_chain(app, CommModel.OVERLAP)[0]
        assert solve(app, objective="latency", method="chain",
                     schedule=False).value == minlatency_chain(app)[0]
        _, base_graph = nocomm_optimal_period_plan(app)
        assert solve(app, method="nocomm", schedule=False).value == \
            period_objective(base_graph, CommModel.OVERLAP)

    def test_plan_is_scheduled_and_valid(self, app):
        for model in ALL_MODELS:
            result = solve(app, objective="period", model=model)
            assert result.plan is not None
            assert result.plan.is_valid()
            assert result.scheduled_value >= result.value or \
                result.scheduled_value == result.value


# ---------------------------------------------------------------------------
# The paper's Section 2.3 example through the facade
# ---------------------------------------------------------------------------

class TestFig1:
    def test_inorder_23_3_exhaustive_and_heuristic(self, fig1):
        for method in ("exhaustive", "heuristic"):
            result = solve(fig1.graph, objective="period", model="inorder",
                           method=method)
            assert result.value == F(23, 3), method
            assert result.plan.is_valid()

    def test_all_expected_values(self, fig1):
        assert solve(fig1.graph, model="overlap").value == 4
        assert solve(fig1.graph, model="outorder").value == 7
        assert solve(fig1.graph, model="inorder").value == F(23, 3)
        assert solve(fig1.graph, objective="latency", model="overlap").value == 21

    def test_compare_grid(self, fig1):
        results = compare(fig1.graph, objectives=["period"])
        values = {str(r.model): r.value for r in results}
        assert values == {"OVERLAP": 4, "INORDER": F(23, 3), "OUTORDER": 7}


# ---------------------------------------------------------------------------
# Auto method selection
# ---------------------------------------------------------------------------

class TestAutoSelection:
    def test_small_instance_goes_branch_and_bound(self):
        n = AUTO_EXHAUSTIVE_MAX["period"]
        app = random_application(n, seed=1)
        result = solve(app, schedule=False)
        assert result.method == "branch-and-bound"
        assert result.requested_method == "auto"

    def test_large_instance_goes_local_search(self):
        n = AUTO_EXHAUSTIVE_MAX["period"] + 1
        app = random_application(n, seed=1)
        result = solve(app, schedule=False)
        assert result.method == "local-search"

    def test_latency_threshold_is_tighter(self):
        n = AUTO_EXHAUSTIVE_MAX["latency"] + 1
        app = random_application(n, seed=2)
        assert solve(app, objective="latency", schedule=False).method == \
            "local-search"
        assert solve(app, objective="period", schedule=False).method == \
            "branch-and-bound"

    def test_precedence_still_goes_exhaustive(self):
        app = make_application(
            [("A", 1, 1), ("B", 2, 1)], precedence=[("A", "B")]
        )
        result = solve(app, schedule=False, cache=EvaluationCache())
        assert result.method == "exhaustive"

    def test_graph_auto_resolves_to_schedule(self, fig1):
        result = solve(fig1.graph, model="overlap")
        assert result.method == "schedule"
        assert result.requested_method == "auto"

    def test_graph_rejects_stray_solver_options(self, fig1):
        with pytest.raises(TypeError, match="fixed-graph"):
            solve(fig1.graph, model="overlap", bogus_option=1)

    def test_exhaustive_latency_refuses_large_n_unless_forests(self):
        app = random_application(6, seed=3)
        with pytest.raises(ValueError, match="space='forests'"):
            solve(app, objective="latency", method="exhaustive",
                  schedule=False)
        result = solve(app, objective="latency", method="exhaustive",
                       space="forests", schedule=False,
                       cache=EvaluationCache())
        assert result.stats.extras["space"] == "forests"

    def test_unknown_method_raises(self, fig1):
        with pytest.raises(ValueError):
            solve(fig1_example().application, method="no-such-solver")
        with pytest.raises(ValueError):
            solve(fig1.graph, method="no-such-solver")

    def test_empty_application_is_rejected_with_its_cause(self):
        empty = make_application([])
        for method in ("auto", "greedy", "exhaustive"):
            with pytest.raises(ValueError, match="no services"):
                solve(empty, method=method, cache=EvaluationCache())
        with pytest.raises(ValueError, match="no services"):
            solve(ExecutionGraph.empty(empty), cache=EvaluationCache())

    def test_explicit_effort_on_graph_is_honoured(self, fig1):
        # effort must not be silently ignored under the default method.
        result = solve(fig1.graph, model="inorder", effort="bound")
        assert result.method == "bound"
        assert result.value == 7
        exact = solve(fig1.graph, model="inorder", effort="exact")
        assert exact.method == "exhaustive"
        assert exact.value == F(23, 3)


# ---------------------------------------------------------------------------
# Evaluation cache
# ---------------------------------------------------------------------------

class TestCache:
    def test_cached_values_identical_to_uncached(self):
        app = random_application(4, seed=5)
        cache = EvaluationCache()
        warm = solve(app, method="local-search", cache=cache, schedule=False)
        # Second run over the same instance: all lookups served from memo.
        cached = solve(app, method="local-search", cache=cache, schedule=False)
        assert cached.value == warm.value
        assert cached.stats.evaluations == 0
        assert cached.stats.cache_hits > 0
        # And a fresh cache recomputes to the same value.
        cold = solve(app, method="local-search", cache=EvaluationCache(),
                     schedule=False)
        assert cold.value == warm.value

    def test_local_search_hits_cache_within_one_solve(self):
        app = random_application(5, seed=7)
        # INORDER has no delta evaluator, so greedy and the local search
        # score graphs through the memo.
        result = solve(app, method="local-search", model="inorder",
                       cache=EvaluationCache(), schedule=False)
        # Local search re-scores the incumbent and revisits neighbours, so
        # the memo must save work even within a single solve.
        assert result.stats.cache_hits > 0
        assert result.stats.evaluations > 0
        # Under OVERLAP greedy prices insertions on per-node terms and the
        # local search prices moves on deltas: only the winner is scored.
        overlap = solve(app, method="local-search", cache=EvaluationCache(),
                        schedule=False)
        assert (overlap.stats.evaluations, overlap.stats.cache_hits) == (1, 0)

    def test_cache_is_content_keyed(self):
        cache = EvaluationCache()
        obj = cache.objective("period", CommModel.OVERLAP)
        app1 = make_application([("A", 2, "1/2"), ("B", 4, 1)])
        app2 = make_application([("A", 2, "1/2"), ("B", 4, 1)])  # equal content
        g1 = ExecutionGraph.chain(app1, ["A", "B"])
        g2 = ExecutionGraph.chain(app2, ["A", "B"])
        assert obj(g1) == obj(g2)
        assert cache.hits == 1 and cache.misses == 1

    def test_effort_canonicalisation_overlap_period(self):
        cache = EvaluationCache()
        app = make_application([("A", 2, "1/2"), ("B", 4, 1)])
        graph = ExecutionGraph.chain(app, ["A", "B"])
        from repro.optimize import Effort
        heuristic = cache.objective("period", CommModel.OVERLAP)
        exact = cache.objective("period", CommModel.OVERLAP, Effort.EXACT)
        assert heuristic(graph) == exact(graph)
        assert cache.hits == 1  # one entry shared across efforts


# ---------------------------------------------------------------------------
# Custom solver registration
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_register_and_dispatch(self):
        reg = SolverRegistry()

        def star_solver(app, *, objective, model, effort, objective_fn):
            hub = min(app.names, key=app.cost)
            graph = ExecutionGraph(
                app, [(hub, n) for n in app.names if n != hub]
            )
            return objective_fn(graph), graph, {"hub": hub}

        reg.register("star", star_solver, description="hub star")
        app = make_application([("A", 1, "1/2"), ("B", 4, 1), ("C", 9, 1)])
        result = solve(app, method="star", registry=reg, schedule=False)
        assert result.method == "star"
        assert result.stats.extras["hub"] == "A"
        assert result.value == period_objective(
            result.graph, CommModel.OVERLAP
        )

    def test_duplicate_registration_rejected(self):
        reg = SolverRegistry()
        fn = lambda app, **kw: None  # noqa: E731
        reg.register("x", fn)
        with pytest.raises(ValueError):
            reg.register("x", fn)
        reg.register("x", fn, replace=True)

    def test_scoping_rejects_unsupported(self):
        reg = SolverRegistry()
        reg.register("tiny", lambda app, **kw: None, max_services=2)
        app = make_application([("A", 1, 1), ("B", 1, 1), ("C", 1, 1)])
        with pytest.raises(ValueError):
            solve(app, method="tiny", registry=reg)


# ---------------------------------------------------------------------------
# Workload catalog
# ---------------------------------------------------------------------------

class TestCatalog:
    def test_named_instances(self):
        wl = load_workload("fig1")
        assert wl.graph is not None and len(wl.application) == 5
        assert wl.expected["period_inorder"] == F(23, 3)

    def test_generator_families(self):
        wl = load_workload("random:n=6,seed=3")
        assert len(wl.application) == 6 and wl.graph is None
        wl = load_workload("layered:widths=2x2,seed=1")
        assert len(wl.application) == 4 and wl.graph is not None
        wl = load_workload("star:leaves=3")
        assert len(wl.application) == 4

    def test_bad_specs_raise(self):
        with pytest.raises(ValueError):
            load_workload("nope")
        with pytest.raises(ValueError):
            load_workload("fig1:n=3")
        with pytest.raises(ValueError):
            load_workload("random:nonsense")

    def test_misspelled_option_keys_rejected(self):
        # A typo must not silently produce a different workload.
        with pytest.raises(ValueError, match="unknown option"):
            load_workload("random:n=4,filter=0.9")
        with pytest.raises(ValueError, match="unknown option"):
            load_workload("star:leafs=3")


# ---------------------------------------------------------------------------
# Batch driver
# ---------------------------------------------------------------------------

class TestSolveMany:
    def test_serial_matches_individual_solves(self):
        specs = ["fig1", "b1", "hetdemo"]
        batch = solve_many(specs, model="overlap", schedule=False,
                           processes=1)
        individual = []
        for spec in specs:
            wl = load_workload(spec)
            individual.append(
                solve(wl.problem, model="overlap", schedule=False,
                      platform=wl.platform, mapping=wl.mapping,
                      cache=EvaluationCache()).value
            )
        assert [r.value for r in batch.results] == individual
        assert batch.shards == 1 and batch.processes == 1

    def test_parallel_matches_serial(self):
        specs = [f"random:n=4,seed={s}" for s in range(6)]
        clear_default_cache()
        parallel = solve_many(specs, model="overlap", schedule=False,
                              processes=2)
        # Workers solve against their own caches; nothing comes back.
        assert len(default_cache()) == 0
        assert "merged_entries" not in parallel.as_dict()
        serial = solve_many(specs, model="overlap", schedule=False,
                            processes=1)
        assert [r.value for r in parallel.results] == \
            [r.value for r in serial.results]
        assert parallel.shards == 2

    def test_aggregated_stats_and_order(self):
        specs = ["random:n=3,seed=1", "fig1", "random:n=3,seed=2"]
        batch = solve_many(specs, model="overlap", schedule=False,
                           processes=2)
        assert len(batch.results) == 3
        # fig1 bundles a fixed graph: the middle result is the graph solve.
        assert batch.results[1].value == 4
        assert batch.stats.graphs_considered >= \
            max(r.stats.graphs_considered for r in batch.results)
        assert batch.stats.extras["jobs"] == 3
        payload = json.loads(json.dumps(batch.as_dict()))
        assert payload["shards"] == batch.shards

    def test_accepts_problem_objects_and_batch_platform(self):
        app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        batch = solve_many([app, app], model="overlap", schedule=False,
                           platform="demo2", processes=1)
        assert [str(r.value) for r in batch.results] == ["2", "2"]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            solve_many([])


# ---------------------------------------------------------------------------
# PlanResult serialisation
# ---------------------------------------------------------------------------

def test_result_as_dict_roundtrips_json(fig1):
    result = solve(fig1.graph, model="inorder")
    payload = json.loads(json.dumps(result.as_dict()))
    assert payload["value"] == "23/3"
    assert payload["plan_valid"] is True
    assert payload["stats"]["wall_time"] >= 0
    assert isinstance(result.summary(), str)


# ---------------------------------------------------------------------------
# CLI smoke tests
# ---------------------------------------------------------------------------

def _run_cli(*args):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


class TestCLI:
    def test_solve_fig1_inorder(self):
        proc = _run_cli("solve", "fig1", "--model", "inorder")
        assert proc.returncode == 0, proc.stderr
        assert "23/3" in proc.stdout

    def test_solve_json(self):
        proc = _run_cli("solve", "fig1", "--model", "inorder", "--json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["results"][0]["value"] == "23/3"

    def test_compare(self):
        proc = _run_cli("compare", "fig1", "--models", "overlap,outorder")
        assert proc.returncode == 0, proc.stderr
        out = proc.stdout
        assert "OVERLAP" in out and "OUTORDER" in out

    def test_compare_methods_all_on_fixed_graph(self):
        # "all" must expand to orchestration methods for graph workloads.
        proc = _run_cli("compare", "fig1", "--models", "inorder",
                        "--methods", "all", "--no-schedule")
        assert proc.returncode == 0, proc.stderr
        assert "bound" in proc.stdout and "heuristic" in proc.stdout

    def test_remap_small_random(self):
        proc = _run_cli(
            "solve", "random:n=4,seed=1", "--method", "exhaustive",
            "--no-schedule",
        )
        assert proc.returncode == 0, proc.stderr
        assert "exhaustive" in proc.stdout

    def test_batch(self):
        proc = _run_cli("batch", "fig1", "b1", "--no-schedule",
                        "--processes", "2")
        assert proc.returncode == 0, proc.stderr
        assert "fig1" in proc.stdout and "2 workloads" in proc.stdout

    def test_batch_json(self):
        proc = _run_cli("batch", "fig1", "--json", "--no-schedule",
                        "--processes", "1")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["results"][0]["value"] == "4"
        assert payload["shards"] == 1

    def test_list(self):
        proc = _run_cli("list")
        assert proc.returncode == 0, proc.stderr
        assert "local-search" in proc.stdout and "fig1" in proc.stdout
        assert "branch-and-bound" in proc.stdout

    def test_bad_workload_errors_cleanly(self):
        proc = _run_cli("solve", "no-such-workload")
        assert proc.returncode == 2
        assert "unknown workload" in proc.stderr

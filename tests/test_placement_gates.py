"""The gates that skip work a lower bound already rules out.

Two bounds let the period searches skip candidates that provably cannot
be strict improvements, so no accept/reject decision moves:

* :class:`~repro.optimize.branch_and_bound.PlacementBound`, on a
  heterogeneous platform with a free mapping: the sorted-speed compute
  bound (the ``k``-th largest work runs on a server no faster than the
  ``k``-th fastest) and the per-node terms at the fastest speed and
  bandwidth.  Branch and bound drops popped states and skips scoring
  complete forests with it; greedy and local search skip placement
  searches (:class:`~repro.optimize.branch_and_bound.PlacementGate`);
* the bottleneck set of
  :class:`~repro.optimize.incremental.IncrementalForestPeriod`: a
  reparent that leaves a bottleneck node untouched cannot lower the max,
  so the local search's delta path does not price it.

These tests check that the bound is admissible, that every search returns
the same value and edge set with the gates switched off by monkeypatching
(on all three tiers), and pin the gated heterogeneous branch-and-bound
counts.
"""

import random
from fractions import Fraction

import pytest

from repro.core import CommModel, CostModel, Exactness, Mapping
from repro.optimize import (
    Effort,
    bb_minperiod,
    local_search_forest,
    make_period_objective,
)
from repro.optimize.branch_and_bound import PlacementBound, PlacementGate
from repro.optimize.incremental import IncrementalForestPeriod, period_delta
from repro.optimize.placement import mapping_space_size, optimize_mapping
from repro.planner import EvaluationCache, load_platform, load_workload, solve
from repro.workloads.generators import (
    random_application,
    random_forest,
    random_platform,
)

from test_term_pricing import INSTANCES

TIERS = ("exact", "certified", "fast")

#: het4 instances whose searches the gates cut: B&B expands 217, 301 and
#: 141 states ungated (25, 36 and 5 gated).
HET4 = ("random:n=6,seed=5994", "random:n=6,seed=259953", "random:n=5,seed=169611")


def _gates_off(monkeypatch):
    monkeypatch.setattr(PlacementGate, "reaches", lambda self, value, bound_of: False)
    monkeypatch.setattr(
        IncrementalForestPeriod, "bottlenecks", lambda self: frozenset()
    )


def _outcome(result):
    return result.value, sorted(result.graph.edges)


class TestAdmissible:
    """The bound never exceeds the exhaustive placement optimum."""

    CONFIGS = [
        (CommModel.OVERLAP, Effort.HEURISTIC),
        (CommModel.INORDER, Effort.BOUND),
        (CommModel.OUTORDER, Effort.BOUND),
    ]

    @pytest.mark.parametrize("seed", range(12))
    def test_bound_below_exhaustive_placement(self, seed):
        rng = random.Random(seed)
        n = 2 + seed % 3
        app = random_application(n, seed=seed, filter_fraction=0.5)
        servers = max(n, rng.randint(n, 6 if n == 4 else 8))
        assert mapping_space_size(n, servers) <= 720
        platform = random_platform(servers, seed=seed, link_density=0.5)
        if platform.is_unit:
            pytest.skip("unit platform: no placement to bound")
        for k in range(4):
            graph = random_forest(app, seed=10 * seed + k)
            parents = {
                node: (graph.predecessors(node) or (None,))[0]
                for node in graph.nodes
            }
            for model, effort in self.CONFIGS:
                bound = PlacementBound(app, model, platform).forest(parents)
                optimum, _ = optimize_mapping(
                    graph, "period", model, effort, platform
                )
                assert bound <= optimum, (seed, k, model, effort)

    def test_sorted_speeds_pairs_heaviest_with_fastest(self):
        app = random_application(3, seed=1)
        platform = load_platform("het4")  # speeds 4, 4, 2, 2, 1, 1, 1/2, 1/2
        bound = PlacementBound(app, CommModel.OVERLAP, platform)
        # 5 runs no faster than the third-fastest speed, 2.
        works = [Fraction(8), Fraction(5), Fraction(6)]
        assert bound.sorted_speeds(works) == Fraction(5, 2)
        assert bound.sorted_speeds([Fraction(8), Fraction(1), Fraction(1)]) == 2


class TestGatesChangeNoDecision:
    """Same value and edge set with the gates switched off, every tier."""

    @pytest.mark.parametrize("spec", HET4)
    @pytest.mark.parametrize("method", ["greedy", "local-search", "branch-and-bound"])
    def test_het4_solvers(self, spec, method, monkeypatch):
        app = load_workload(spec).application
        het4 = load_platform("het4")

        def run():
            return {
                tier: _outcome(solve(
                    app, method=method, platform=het4, exactness=tier,
                    schedule=False, cache=EvaluationCache(),
                ))
                for tier in TIERS
            }

        gated = run()
        _gates_off(monkeypatch)
        assert gated == run()
        assert gated["certified"] == gated["exact"]

    @pytest.mark.parametrize("model,effort", [
        (CommModel.OVERLAP, Effort.HEURISTIC),
        (CommModel.INORDER, Effort.BOUND),
    ])
    def test_local_search_on_term_pricing_instances(self, model, effort, monkeypatch):
        def run():
            out = {}
            for label, app in INSTANCES:
                for tier in TIERS:
                    objective = make_period_objective(model, effort, exactness=tier)
                    start = random_forest(app, seed=3)
                    value, graph = local_search_forest(start, objective)
                    out[label, tier] = value, graph.edges
            return out

        gated = run()
        _gates_off(monkeypatch)
        assert gated == run()

    @pytest.mark.parametrize("seed", range(6))
    def test_local_search_on_pinned_het_mappings(self, seed, monkeypatch):
        app = random_application(8, seed=seed, filter_fraction=0.5)
        platform = random_platform(8, seed=seed, link_density=0.5)
        mapping = Mapping(dict(zip(app.names, platform.names)))
        start = random_forest(app, seed=seed)

        def run():
            out = {}
            for model in (CommModel.OVERLAP, CommModel.OUTORDER):
                for tier in TIERS:
                    objective = make_period_objective(
                        model, Effort.BOUND, platform, mapping, tier
                    )
                    value, graph = local_search_forest(start, objective)
                    out[model, tier] = value, graph.edges
            return out

        gated = run()
        _gates_off(monkeypatch)
        assert gated == run()

    @pytest.mark.parametrize("model", [CommModel.OVERLAP, CommModel.INORDER])
    def test_bottleneck_set_is_the_argmax(self, model):
        for seed in range(8):
            app = random_application(7, seed=seed, filter_fraction=0.5)
            graph = random_forest(app, seed=seed)
            costs = CostModel(graph)
            cexec = {node: costs.cexec(node, model) for node in app.names}
            top = max(cexec.values())
            argmax = {node for node, c in cexec.items() if c == top}
            inc = IncrementalForestPeriod(graph, model=model)
            assert inc.bottlenecks() == argmax
            # A move touching no bottleneck node cannot lower the period.
            for node in app.names:
                touched = set(inc.subtree(node)) | {inc.parents[node]}
                if argmax & touched:
                    continue
                for parent in [None, *app.names]:
                    if parent in argmax:
                        continue
                    trial = inc.score_reparent(node, parent)
                    assert trial is None or trial >= top
            # The certified pair answers from its exact side.
            pair = period_delta(graph, model, Effort.BOUND,
                                exactness=Exactness.CERTIFIED)
            assert pair.bottlenecks() == argmax


class TestFastGate:
    """The gate compares the exact bound on every tier, so FAST skips the
    placement searches of exact ties as certified does."""

    def test_fast_scores_no_more_graphs_than_certified(self):
        app = random_application(3, seed=1)
        het4 = load_platform("het4")
        results = {
            tier: solve(app, method="local-search", model="inorder",
                        platform=het4, exactness=tier, schedule=False,
                        cache=EvaluationCache())
            for tier in ("certified", "fast")
        }
        fast, certified = results["fast"], results["certified"]
        assert fast.stats.evaluations <= certified.stats.evaluations
        assert fast.value == certified.value == Fraction(903, 64)


class TestHetCountsPinned:
    """The gated heterogeneous search: value and counts pinned per tier."""

    #: spec -> (value, expanded, pruned, evaluated), gated, on every tier
    #: (the search prices its bounds exactly on each); an optional dict
    #: would give a tier whose counts differ.
    PINNED = {
        "random:n=6,seed=5994": ("340305/131072", 25, 237, 2),
        "random:n=6,seed=259953": ("399/128", 36, 235, 8),
        "random:n=5,seed=169611": ("705/128", 5, 30, 2),
    }

    @pytest.mark.parametrize("spec", sorted(PINNED))
    def test_counts(self, spec):
        app = load_workload(spec).application
        het4 = load_platform("het4")
        pinned, overrides = self.PINNED[spec][:4], dict(*self.PINNED[spec][4:])
        for tier in ("certified", "exact"):
            objective = make_period_objective(
                CommModel.OVERLAP, Effort.EXACT, het4, exactness=tier
            )
            value, _, stats = bb_minperiod(app, objective)
            assert (str(value), stats.expanded, stats.pruned,
                    stats.evaluated) == overrides.get(tier, pinned), tier

"""Differential harness for the batched numeric layer (``repro.core.batched``).

The batched kernels carry a hard contract: every value a
:class:`~repro.core.ForestBatch` or :class:`~repro.core.MappingBatch` row
returns is the **identical IEEE-754 double** the scalar
:class:`~repro.core.FloatCosts` computes for the same candidate — same
fold orders, operation for operation.  Certified searches rely on this to
swap the scalar float gate for a batched one without perturbing a single
prune/keep decision, which is what keeps their results bit-for-bit equal
to the all-``Fraction`` tier.

This module sweeps well over 200 seeded random instances — unit and
heterogeneous platforms, injective and shared mappings, weighted shared
aggregation — asserting float equality with ``==``, then checks the
certified batched searches end to end against the exact tier, including
adversarial near-ties ~2^-60 below float resolution at the CERT_EPS
boundary.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from repro import make_application
from repro.core import (
    CommModel,
    Exactness,
    ExecutionGraph,
    FloatCosts,
    ForestBatch,
    Mapping,
    MappingBatch,
    iter_forest_rows,
)
from repro.optimize.evaluation import Effort, make_forest_period_batch
from repro.optimize.exhaustive import iter_forests, scan_best, scan_best_forests_batched
from repro.optimize.incremental import IncrementalSharedCosts
from repro.optimize.placement import (
    clear_placement_memo,
    iter_mappings,
    iter_shared_mappings,
    optimize_mapping,
    optimize_shared_mapping,
)
from repro.planner import EvaluationCache, solve
from repro.workloads.generators import (
    random_application,
    random_execution_graph,
    random_platform,
)

MODELS = [CommModel.OVERLAP, CommModel.INORDER, CommModel.OUTORDER]


def _shared_mapping(names, platform, rng):
    return Mapping.shared(
        {name: platform.names[rng.randrange(len(platform))] for name in names}
    )


class TestForestBatchMatchesScalar:
    """ForestBatch rows == per-candidate FloatCosts scalars, exactly."""

    def _assert_rows_match(self, app, model, platform, mapping, rows, seed):
        batch = ForestBatch(app, model, platform, mapping)
        valid, periods = batch.periods(rows)
        for k in range(rows.shape[0]):
            if not valid[k]:
                continue
            graph = batch.decode(rows[k])
            scalar = FloatCosts(graph, platform, mapping).period_lower_bound(model)
            assert periods[k] == scalar, (seed, model, rows[k])

    @pytest.mark.parametrize("config", ["unit", "het", "shared"])
    def test_sweep(self, config, forest_graph):
        # 40 instances x 3 configs x all three models = 360 checked
        # instance-configurations, each over every forest of the space
        # (n <= 3) or 25 random forests (larger n).
        for seed in range(40):
            rng = random.Random(1000 * hash(config) % 97 + seed)
            n = rng.randrange(2, 6)
            app = random_application(
                n, seed=seed, filter_fraction=rng.uniform(0.2, 0.9)
            )
            if config == "unit":
                platform, mapping = None, None
            else:
                platform = random_platform(n + 1, seed=seed + 3, link_density=0.5)
                if config == "het":
                    order = rng.sample(range(len(platform)), n)
                    mapping = Mapping(
                        {
                            svc: platform.names[order[i]]
                            for i, svc in enumerate(app.names)
                        }
                    )
                else:
                    mapping = _shared_mapping(app.names, platform, rng)
            if n <= 3:
                rows = np.concatenate(
                    [r for r, _ in iter_forest_rows(n, chunk=256)]
                )
            else:
                batch = ForestBatch(app, CommModel.OVERLAP, platform, mapping)
                rows = np.stack(
                    [batch.encode(forest_graph(app, rng)) for _ in range(25)]
                )
            model = MODELS[seed % 3]
            self._assert_rows_match(app, model, platform, mapping, rows, seed)

    def test_iter_forest_rows_is_iter_forests_order(self):
        # Valid rows decode to exactly the scalar enumerator's sequence.
        for n, seed in [(2, 0), (3, 1), (4, 2)]:
            app = random_application(n, seed=seed)
            batch = ForestBatch(app, CommModel.OVERLAP)
            decoded = []
            for rows, _base in iter_forest_rows(n, chunk=64):
                valid, _ = batch.periods(rows)
                for k in range(rows.shape[0]):
                    if valid[k]:
                        decoded.append(batch.decode(rows[k]).edges)
            expected = [g.edges for g in iter_forests(app)]
            assert decoded == expected, (n, seed)

    def test_cycle_rows_flagged_invalid(self):
        app = random_application(3, seed=7)
        batch = ForestBatch(app, CommModel.OVERLAP)
        rows = np.array([
            [-1, -1, -1],   # empty forest
            [1, 0, -1],     # 2-cycle
            [1, 2, 0],      # 3-cycle
            [2, 2, -1],     # valid: both under the last service
            [0, -1, -1],    # self-loop
        ])
        valid, _ = batch.periods(rows)
        assert valid.tolist() == [True, False, False, True, False]


class TestMappingBatchMatchesScalar:
    """MappingBatch rows == per-candidate FloatCosts scalars, exactly."""

    def test_injective_period_and_latency_sweep(self, het_instance):
        # 60 instances, every injective mapping of each (both kinds where
        # defined) — several thousand row/scalar comparisons.
        for seed in range(60):
            graph, platform, _ = het_instance(seed, max_services=4)
            mappings = list(iter_mappings(graph.nodes, platform))
            for kind in ("period", "latency"):
                model = MODELS[seed % 3]
                batch = MappingBatch(graph, platform, kind=kind, model=model)
                rows = np.stack([batch.encode(m) for m in mappings])
                values = batch.values(rows)
                for k, m in enumerate(mappings):
                    fast = FloatCosts(graph, platform, m)
                    scalar = (
                        fast.period_lower_bound(model)
                        if kind == "period"
                        else fast.latency_lower_bound()
                    )
                    assert values[k] == scalar, (seed, kind, model, k)

    def test_shared_period_sweep(self):
        # 60 instances x full shared enumeration, with and without weights.
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randrange(2, 5)
            app = random_application(n, seed=seed + 200)
            graph = random_execution_graph(app, seed=seed + 201, density=0.4)
            platform = random_platform(
                rng.randrange(1, 4), seed=seed + 202, link_density=0.5
            )
            weights = (
                {name: F(rng.randrange(1, 5), rng.randrange(1, 4)) for name in app.names}
                if seed % 2
                else None
            )
            model = MODELS[seed % 3]
            batch = MappingBatch(
                graph, platform, kind="period", model=model,
                shared=True, weights=weights,
            )
            mappings = list(iter_shared_mappings(graph.nodes, platform))
            rows = np.stack([batch.encode(m) for m in mappings])
            values = batch.values(rows)
            for k, m in enumerate(mappings):
                scalar = FloatCosts(
                    graph, platform, m, weights=weights
                ).period_lower_bound(model)
                assert values[k] == scalar, (seed, model, k)

    def test_weighted_injective_row_aggregates_per_server(self):
        # Regression: a weighted query must price per-server aggregated
        # (weighted) load even when the row happens to be injective — the
        # scalar kernel once fell back to the unweighted per-node branch
        # there, disagreeing with the exact shared objective.
        for seed in range(10):
            rng = random.Random(seed)
            app = random_application(3, seed=seed + 400)
            graph = random_execution_graph(app, seed=seed + 401, density=0.5)
            platform = random_platform(4, seed=seed + 402, link_density=0.6)
            weights = {name: F(rng.randrange(2, 7), 3) for name in app.names}
            order = rng.sample(range(4), 3)
            mapping = Mapping.shared(
                {
                    svc: platform.names[order[i]]
                    for i, svc in enumerate(app.names)
                }
            )
            assert mapping.is_injective
            exact = IncrementalSharedCosts(
                graph, platform, mapping,
                model=CommModel.OVERLAP, weights=weights,
            ).value()
            scalar = FloatCosts(
                graph, platform, mapping, weights=weights
            ).period_lower_bound(CommModel.OVERLAP)
            assert abs(scalar - float(exact)) <= 1e-9 * float(exact), seed
            batch = MappingBatch(
                graph, platform, kind="period", model=CommModel.OVERLAP,
                shared=True, weights=weights,
            )
            assert batch.values(batch.encode(mapping)[None, :])[0] == scalar


class TestCertifiedBatchedSearchBitForBit:
    """Batched certified searches == the all-Fraction tier, end to end."""

    def test_exhaustive_forest_scan(self):
        for seed in range(25):
            app = random_application(random.Random(seed).randrange(2, 6), seed=seed)
            cache_e = EvaluationCache()
            cache_c = EvaluationCache()
            model = MODELS[seed % 3]
            exact_fn = cache_e.objective("period", model, Effort.EXACT)
            cert_fn = cache_c.objective(
                "period", model, Effort.EXACT, exactness=Exactness.CERTIFIED
            )
            ev, eg, ecount = scan_best(iter_forests(app), exact_fn)
            fb = make_forest_period_batch(app, model, Effort.EXACT, None, None)
            assert fb is not None or model is not CommModel.OVERLAP
            if fb is None:
                continue
            cv, cg, ccount = scan_best_forests_batched(app, cert_fn, fb)
            assert (cv, cg.edges, ccount) == (ev, eg.edges, ecount), (seed, model)

    def test_planner_solves_match_exact(self):
        # The full stack (facade -> registry -> batched scan / gated LS /
        # B&B) under certified == exact, values and graphs.
        for seed in range(12):
            app = random_application(5, seed=seed + 50)
            for method in ("exhaustive", "local-search", "branch-and-bound"):
                results = {}
                for exactness in ("exact", "certified"):
                    clear_placement_memo()
                    results[exactness] = solve(
                        app, method=method, schedule=False,
                        cache=EvaluationCache(), exactness=exactness,
                    )
                assert results["certified"].value == results["exact"].value, (
                    seed, method,
                )
                assert (
                    results["certified"].graph.edges
                    == results["exact"].graph.edges
                ), (seed, method)

    def test_placement_searches_match_exact(self, het_instance):
        for seed in range(10):
            graph, platform, _ = het_instance(seed + 80, max_services=4)
            for kind, effort in (
                ("period", Effort.BOUND),
                ("latency", Effort.BOUND),
            ):
                outcomes = {}
                for exactness in (Exactness.EXACT, Exactness.CERTIFIED):
                    clear_placement_memo()
                    outcomes[exactness] = optimize_mapping(
                        graph, kind, CommModel.OVERLAP, effort, platform,
                        exactness=exactness,
                    )
                exact_v, exact_m = outcomes[Exactness.EXACT]
                cert_v, cert_m = outcomes[Exactness.CERTIFIED]
                assert (cert_v, cert_m.key()) == (exact_v, exact_m.key()), (
                    seed, kind,
                )
            clear_placement_memo()

    def test_shared_placement_matches_exact(self):
        for seed in range(10):
            rng = random.Random(seed)
            app = random_application(3, seed=seed + 300)
            graph = random_execution_graph(app, seed=seed + 301, density=0.4)
            platform = random_platform(2, seed=seed + 302, link_density=0.5)
            weights = (
                {name: F(rng.randrange(1, 4)) for name in app.names}
                if seed % 2
                else None
            )
            exact_v, exact_m = optimize_shared_mapping(
                graph, CommModel.OVERLAP, platform, weights=weights,
                exactness=Exactness.EXACT,
            )
            cert_v, cert_m = optimize_shared_mapping(
                graph, CommModel.OVERLAP, platform, weights=weights,
                exactness=Exactness.CERTIFIED,
            )
            assert (cert_v, cert_m.key()) == (exact_v, exact_m.key()), seed


class TestBatchedNearTies:
    """Adversarial ~2^-60 near-ties at the CERT_EPS boundary stay exact."""

    TINY = F(1, 2 ** 60)

    def _near_tie_app(self):
        # Two heavy services whose costs differ by 4 * 2^-60: every forest
        # pairing ties dead-even on the float tier; the exact optimum puts
        # the filter ahead of both and its value's tiny component is
        # invisible to any float comparison.
        return make_application([
            ("A", 4, 1),
            ("B", 4 + 4 * self.TINY, 1),
            ("F", "1/4", "1/2"),
        ])

    def test_batched_scan_certifies_true_optimum(self):
        app = self._near_tie_app()
        exact_fn = EvaluationCache().objective("period", CommModel.OVERLAP)
        ev, eg, ecount = scan_best(iter_forests(app), exact_fn)
        cert_fn = EvaluationCache().objective(
            "period", CommModel.OVERLAP, exactness=Exactness.CERTIFIED
        )
        fb = make_forest_period_batch(app, CommModel.OVERLAP, Effort.EXACT, None, None)
        assert fb is not None
        cv, cg, ccount = scan_best_forests_batched(app, cert_fn, fb)
        assert (cv, cg.edges, ccount) == (ev, eg.edges, ecount)
        assert cv.denominator > 1 or cv != F(float(cv))  # genuinely exact

    def test_batched_rows_collapse_to_equal_floats(self):
        # The two near-tied candidates really are indistinguishable on the
        # float tier — the scan above had to arbitrate exactly.
        app = self._near_tie_app()
        batch = ForestBatch(app, CommModel.OVERLAP)
        g1 = ExecutionGraph.from_parents(app, {"F": None, "A": "F", "B": "F"})
        g2 = ExecutionGraph.from_parents(app, {"F": None, "B": "F", "A": "F"})
        rows = np.stack([batch.encode(g1), batch.encode(g2)])
        _, periods = batch.periods(rows)
        assert periods[0] == periods[1]

    def test_perturbed_placement_near_tie(self):
        # Two servers whose speeds differ by 2^-60 relative: float pricing
        # ties, the certified placement must still pick the exact winner.
        from repro.core import Platform

        app = make_application([("A", 1, 1), ("B", 1, 1)])
        graph = ExecutionGraph.from_parents(app, {"A": None, "B": "A"})
        platform = Platform.of(speeds=[F(1), 1 + self.TINY, F(1, 2)])
        for kind in ("period",):
            clear_placement_memo()
            exact = optimize_mapping(
                graph, kind, CommModel.OVERLAP, Effort.BOUND, platform,
                exactness=Exactness.EXACT,
            )
            clear_placement_memo()
            cert = optimize_mapping(
                graph, kind, CommModel.OVERLAP, Effort.BOUND, platform,
                exactness=Exactness.CERTIFIED,
            )
            clear_placement_memo()
            assert (cert[0], cert[1].key()) == (exact[0], exact[1].key())

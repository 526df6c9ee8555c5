"""The two-tier numeric engine: float-kernel parity and exact certification.

Four promises under test:

1. **Kernel parity** — every :class:`~repro.core.FloatCosts` quantity
   (``Cin``/``Ccomp``/``Cout``, per-server aggregates, the period and
   latency bounds) agrees with the exact :class:`~repro.core.CostModel`
   within 1e-9 relative, across a sweep of >= 200 seeded instances on
   unit and heterogeneous platforms, injective and shared mappings; the
   float-tier incremental evaluators (``num=float``) agree with their
   Fraction counterparts move by move.
2. **Certified search = exact search, bit for bit** — branch and bound,
   the exhaustive scan, and the placement searches return byte-identical
   values under ``exactness="certified"`` and ``exactness="exact"``.
3. **The epsilon guard survives adversarial near-ties** — instances whose
   competing candidates differ by ~2^-60 relative (far below float
   resolution) still certify the true optimum, including optima whose
   exact value a float cannot even represent.
4. **Cache/memo isolation** — a ``fast`` (float-image) value is never
   served to a certified or exact caller, in the evaluation cache *and*
   in the placement memo.
"""

import random
from fractions import Fraction

import pytest

from repro.core import (
    CERT_EPS,
    CommModel,
    CostModel,
    Exactness,
    ExecutionGraph,
    FloatCosts,
    Mapping,
    Platform,
    certified_threshold,
)
from repro.optimize import (
    IncrementalForestPeriod,
    IncrementalSharedCosts,
    bb_minperiod,
    clear_placement_memo,
    local_search_forest,
    make_period_objective,
    optimize_mapping,
    optimize_shared_mapping,
)
from repro.optimize.evaluation import (
    Effort,
    fast_latency_value,
    fast_period_value,
)
from repro.planner import EvaluationCache, solve
from repro.workloads.generators import random_application, random_platform

F = Fraction

REL_TOL = 1e-9

MODELS = (CommModel.OVERLAP, CommModel.INORDER)


def _close(fast, exact):
    exact_f = float(exact)
    if exact_f == 0.0:
        return abs(fast) <= REL_TOL
    return abs(fast - exact_f) <= REL_TOL * abs(exact_f)


def _assert_kernel_matches(graph, platform, mapping):
    exact = CostModel(graph, platform, mapping)
    fast = FloatCosts(graph, platform, mapping)
    for node in graph.nodes:
        assert _close(fast.cin(node), exact.cin(node)), node
        assert _close(fast.ccomp(node), exact.ccomp(node)), node
        assert _close(fast.cout(node), exact.cout(node)), node
        assert _close(
            fast.ancestor_selectivity(node), exact.ancestor_selectivity(node)
        )
        assert _close(fast.outsize(node), exact.outsize(node))
    for model in MODELS:
        assert _close(
            fast.period_lower_bound(model), exact.period_lower_bound(model)
        )
    assert _close(fast.latency_lower_bound(), exact.latency_lower_bound())
    if mapping is not None and not mapping.is_injective:
        for server in exact.used_servers():
            assert _close(fast.server_cin(server), exact.server_cin(server))
            assert _close(fast.server_ccomp(server), exact.server_ccomp(server))
            assert _close(fast.server_cout(server), exact.server_cout(server))
            for model in MODELS:
                assert _close(
                    fast.server_cexec(server, model),
                    exact.server_cexec(server, model),
                )


class TestFloatKernelParity:
    """FloatCosts vs CostModel over >= 200 seeded instances."""

    def test_unit_platform_sweep(self, het_instance):
        # 80 unit-platform instances (random DAG shapes via het factory's
        # graph, platform dropped).
        for seed in range(80):
            graph, _, _ = het_instance(seed)
            _assert_kernel_matches(graph, None, None)

    def test_heterogeneous_injective_sweep(self, het_instance):
        for seed in range(80, 160):
            graph, platform, mapping = het_instance(seed)
            _assert_kernel_matches(graph, platform, mapping)

    def test_shared_mapping_sweep(self, multi_instance):
        # Shared (non-injective) mappings over combined multi-app graphs.
        for seed in range(60):
            multi, platform, mapping = multi_instance(seed)
            _assert_kernel_matches(multi.combined_graph, platform, mapping)

    def test_weighted_shared_aggregation(self, multi_instance):
        # FloatCosts(weights=...) mirrors the weighted utilisation value
        # of IncrementalSharedCosts (the concurrent --targets objective).
        for seed in range(10):
            multi, platform, mapping = multi_instance(seed)
            graph = multi.combined_graph
            weights = {
                svc: F(1, 2 + (i % 3)) for i, svc in enumerate(graph.nodes)
            }
            exact = IncrementalSharedCosts(
                graph, platform, mapping, weights=weights
            ).value()
            fast = FloatCosts(
                graph, platform, mapping, weights=weights
            ).period_lower_bound(CommModel.OVERLAP)
            assert _close(fast, exact)

    def test_unit_shared_mapping(self):
        # Co-location zeroes intra-server edges even on the unit platform.
        app = random_application(5, seed=7, filter_fraction=0.5)
        graph = ExecutionGraph.chain(app, list(app.names))
        platform = Platform.homogeneous(3)
        mapping = Mapping.shared(
            dict(zip(app.names, ["S1", "S1", "S2", "S2", "S3"]))
        )
        _assert_kernel_matches(graph, platform, mapping)

    def test_fast_value_helpers_match_kernel(self, het_instance):
        graph, platform, mapping = het_instance(3)
        exact = CostModel(graph, platform, mapping)
        for model in MODELS:
            fast = fast_period_value(
                graph, model, Effort.BOUND, platform, mapping
            )
            assert fast is not None
            assert _close(fast, exact.period_lower_bound(model))
        fast = fast_latency_value(graph, Effort.BOUND, platform, mapping)
        if graph.is_forest:
            assert fast is None  # Algorithm-1 territory: no float shortcut
        else:
            assert fast is not None
            assert _close(fast, exact.latency_lower_bound())

    def test_no_kernel_for_free_placement(self, het_instance):
        graph, platform, _ = het_instance(11)
        assert fast_period_value(
            graph, CommModel.OVERLAP, Effort.HEURISTIC, platform, None
        ) is None


class TestFloatTwinParity:
    """Float incremental twins vs their exact counterparts, move by move."""

    def test_forest_twin_sweep(self, forest_graph, pinned_mapping):
        rng = random.Random(42)
        checked = 0
        for seed in range(60):
            app = random_application(
                rng.randint(2, 7), seed=seed, filter_fraction=0.6
            )
            graph = forest_graph(app, rng)
            # The first 40 forests run on the unit platform, the rest on a
            # heterogeneous one with a pinned positional mapping.
            pinned = {}
            if seed >= 40:
                platform = random_platform(len(app) + 1, seed=seed)
                pinned = dict(
                    platform=platform, mapping=pinned_mapping(app, platform)
                )
            exact = IncrementalForestPeriod(
                graph, model=CommModel.OVERLAP, **pinned
            )
            fast = IncrementalForestPeriod(
                graph, model=CommModel.OVERLAP, num=float, **pinned
            )
            assert _close(fast.value(), exact.value())
            names = list(app.names)
            for _ in range(6):
                node = rng.choice(names)
                parent = rng.choice([None] + [p for p in names if p != node])
                ev, fv = (
                    exact.score_reparent(node, parent),
                    fast.score_reparent(node, parent),
                )
                assert (ev is None) == (fv is None)
                if ev is None:
                    continue
                assert _close(fv, ev)
                checked += 1
                if checked % 3 == 0:
                    exact.apply_reparent(node, parent)
                    fast.apply_reparent(node, parent)
                    assert _close(fast.value(), exact.value())
        assert checked >= 40

    def test_placement_twin_sweep(self, multi_instance):
        rng = random.Random(7)
        for seed in range(25):
            multi, platform, mapping = multi_instance(seed)
            graph = multi.combined_graph
            exact = IncrementalSharedCosts(graph, platform, mapping)
            fast = IncrementalSharedCosts(graph, platform, mapping, num=float)
            assert _close(fast.value(), exact.value())
            services = sorted(graph.nodes)
            servers = list(platform.names)
            for _ in range(6):
                svc = rng.choice(services)
                srv = rng.choice(servers)
                assert _close(
                    fast.score_reassign(svc, srv), exact.score_reassign(svc, srv)
                )
                a, b = rng.sample(services, 2) if len(services) > 1 else (svc, svc)
                if a != b:
                    assert _close(fast.score_swap(a, b), exact.score_swap(a, b))
                exact.apply_reassign(svc, srv)
                fast.apply_reassign(svc, srv)
                assert _close(fast.value(), exact.value())

    def test_injective_twin(self, het_instance):
        graph, platform, mapping = het_instance(21)
        exact = IncrementalSharedCosts(graph, platform, mapping, shared=False)
        fast = IncrementalSharedCosts(
            graph, platform, mapping, shared=False, num=float
        )
        assert _close(fast.value(), exact.value())

    def test_certified_wrapper_matches_exact_local_search(self):
        # The certified wrapper must reproduce the exact local-search
        # trajectory bit for bit (same final value AND same final forest).
        for seed in range(20):
            app = random_application(6, seed=seed, filter_fraction=0.6)
            start = ExecutionGraph.empty(app)
            exact_val, exact_graph = local_search_forest(
                start, make_period_objective(CommModel.OVERLAP),
            )
            cert_val, cert_graph = local_search_forest(
                start, make_period_objective(
                    CommModel.OVERLAP, exactness=Exactness.CERTIFIED
                ),
            )
            assert cert_val == exact_val
            assert cert_graph.edges == exact_graph.edges


class TestCertifiedSearchBitForBit:
    """Certified searches return byte-identical results to exact ones."""

    #: The seeded catalog: (n, seed) pairs spanning the B&B-feasible range.
    CATALOG = [(n, seed) for n in (4, 5, 6, 7) for seed in range(6)]

    def test_bb_catalog(self):
        for n, seed in self.CATALOG:
            app = random_application(n, seed=seed, filter_fraction=0.6)
            exact_val, _, exact_stats = bb_minperiod(
                app, make_period_objective(CommModel.OVERLAP)
            )
            cert_val, _, cert_stats = bb_minperiod(
                app, make_period_objective(
                    CommModel.OVERLAP, exactness=Exactness.CERTIFIED
                )
            )
            assert cert_val == exact_val, (n, seed)
            # The near-tie band restores the exact tier's prune set, so
            # the search effort matches too (a regression canary for the
            # certification protocol, not a user-facing promise).
            assert cert_stats.expanded == exact_stats.expanded, (n, seed)
            assert cert_stats.evaluated == exact_stats.evaluated, (n, seed)

    def test_solve_catalog_through_planner(self):
        for n, seed in [(5, 1), (6, 3), (7, 2)]:
            app = random_application(n, seed=seed, filter_fraction=0.5)
            exact = solve(app, method="branch-and-bound", schedule=False,
                          cache=EvaluationCache(), exactness="exact")
            cert = solve(app, method="branch-and-bound", schedule=False,
                         cache=EvaluationCache(), exactness="certified")
            assert cert.value == exact.value
            assert cert.stats.extras["certified"] is True

    def test_bb_latency_certified(self):
        for n, seed in [(4, 1), (5, 3)]:
            app = random_application(n, seed=seed, filter_fraction=0.5)
            exact = solve(app, objective="latency", method="branch-and-bound",
                          schedule=False, cache=EvaluationCache(),
                          exactness="exact")
            cert = solve(app, objective="latency", method="branch-and-bound",
                         schedule=False, cache=EvaluationCache(),
                         exactness="certified")
            assert cert.value == exact.value, (n, seed)

    def test_exhaustive_latency_certified(self):
        # DAG enumeration mixes forests (no float kernel: per-graph None)
        # with general DAGs — the mixed-space path of the certified scan.
        app = random_application(4, seed=5, filter_fraction=0.5)
        exact = solve(app, objective="latency", method="exhaustive",
                      schedule=False, cache=EvaluationCache(),
                      effort="bound", exactness="exact")
        cert = solve(app, objective="latency", method="exhaustive",
                     schedule=False, cache=EvaluationCache(),
                     effort="bound", exactness="certified")
        assert cert.value == exact.value
        assert cert.graph.edges == exact.graph.edges

    def test_exhaustive_scan_certified(self):
        for seed in range(6):
            app = random_application(5, seed=seed, filter_fraction=0.6)
            exact = solve(app, method="exhaustive", schedule=False,
                          cache=EvaluationCache(), exactness="exact")
            cert = solve(app, method="exhaustive", schedule=False,
                         cache=EvaluationCache(), exactness="certified")
            assert cert.value == exact.value
            assert cert.graph.edges == exact.graph.edges  # same tie-breaks

    def test_placement_search_certified(self, het_instance):
        for seed in (31, 32, 33):
            graph, platform, _ = het_instance(seed, spare_servers=2)
            clear_placement_memo()
            exact = optimize_mapping(
                graph, "period", CommModel.OVERLAP, Effort.HEURISTIC,
                platform, exactness=Exactness.EXACT,
            )
            clear_placement_memo()
            cert = optimize_mapping(
                graph, "period", CommModel.OVERLAP, Effort.HEURISTIC,
                platform, exactness=Exactness.CERTIFIED,
            )
            assert cert[0] == exact[0]
            assert cert[1].items() == exact[1].items()

    def test_shared_placement_certified(self, multi_instance):
        for seed in (3, 8, 15):
            multi, platform, _ = multi_instance(seed)
            graph = multi.combined_graph
            clear_placement_memo()
            exact = optimize_shared_mapping(
                graph, CommModel.OVERLAP, platform, exactness=Exactness.EXACT
            )
            clear_placement_memo()
            cert = optimize_shared_mapping(
                graph, CommModel.OVERLAP, platform,
                exactness=Exactness.CERTIFIED,
            )
            clear_placement_memo()
            assert cert[0] == exact[0]
            assert cert[1].items() == exact[1].items()


class TestAdversarialNearTies:
    """The epsilon guard never lets float resolution decide a near-tie."""

    #: Far below double resolution (2^-52) and the certification band.
    TINY = F(1, 2 ** 60)

    def test_bb_optimum_with_unrepresentable_value(self):
        # The optimum 2 + 2^-61 rounds to 2.0 in float; certified B&B must
        # still return the exact Fraction, not the float image.
        app_rows = [("A", 4 + self.TINY, 1), ("F", "1/4", "1/2")]
        from repro import make_application

        app = make_application(app_rows)
        expected = (F(4) + self.TINY) / 2  # F filters A's load: ccomp halves
        for exactness in ("exact", "certified"):
            result = solve(app, method="branch-and-bound", schedule=False,
                           cache=EvaluationCache(), exactness=exactness)
            assert result.value == expected, exactness
        assert float(expected) == 2.0  # the tie really is invisible to floats

    def test_bb_near_tie_between_forests(self):
        # Candidate shapes tie within 2^-58 relative — a dead tie on the
        # float tier; the exact arbitration inside the band must land on
        # the true optimum 2 + 2^-59 (F filtering both heavy services),
        # whose tiny component no float comparison can see.
        from repro import make_application

        app = make_application([
            ("A", 4, 1),
            ("B", 4 + 4 * self.TINY, 1),
            ("F", "1/4", "1/2"),
        ])
        exact = solve(app, method="branch-and-bound", schedule=False,
                      cache=EvaluationCache(), exactness="exact")
        cert = solve(app, method="branch-and-bound", schedule=False,
                     cache=EvaluationCache(), exactness="certified")
        assert cert.value == exact.value
        assert cert.value == F(2) + 2 * self.TINY  # B's halved load rules
        assert float(cert.value) == 2.0  # invisible to the float tier

    def test_overflow_degrades_to_exact_tier(self):
        # Quantities beyond float range crash float() — the certified
        # default must degrade to the exact tier, not crash, and agree
        # with exactness="exact" bit for bit.
        from repro import make_application

        app = make_application([
            ("A", F(10) ** 400, "1/2"), ("B", 8, 1),
        ])
        exact = solve(app, method="branch-and-bound", schedule=False,
                      cache=EvaluationCache(), exactness="exact")
        for exactness in (None, "certified", "fast"):
            result = solve(app, method="branch-and-bound", schedule=False,
                           cache=EvaluationCache(), exactness=exactness)
            assert result.value == exact.value, exactness
        # The kernel factories answer None instead of raising, too.
        graph = exact.graph
        assert fast_period_value(graph, CommModel.OVERLAP) is None
        # ... and the exhaustive scan's certified gate degrades as well.
        for exactness in ("exact", "certified"):
            scanned = solve(app, method="exhaustive", schedule=False,
                            cache=EvaluationCache(), exactness=exactness)
            assert scanned.value == exact.value, exactness

    def test_certified_threshold_is_conservative(self):
        value = 3.0
        cut = certified_threshold(value)
        assert cut > value
        assert cut == value * (1.0 + CERT_EPS)

    def test_exhaustive_scan_near_tie(self):
        from repro import make_application

        app = make_application([
            ("A", 4, 1),
            ("B", 4 + 4 * self.TINY, 1),
            ("F", "1/4", "1/2"),
        ])
        exact = solve(app, method="exhaustive", schedule=False,
                      cache=EvaluationCache(), exactness="exact")
        cert = solve(app, method="exhaustive", schedule=False,
                     cache=EvaluationCache(), exactness="certified")
        assert cert.value == exact.value
        assert cert.graph.edges == exact.graph.edges


class TestExactnessIsolation:
    """Fast float-image values never leak into exact/certified callers."""

    def _graph_with_thirds(self):
        # Bandwidth 3 makes the exact value non-dyadic (denominator 3), so
        # a float image provably differs from the exact Fraction.
        from repro import make_application

        app = make_application([("A", 1, 1), ("B", 2, 1)])
        graph = ExecutionGraph.chain(app, ["A", "B"])
        platform = Platform.of(speeds=[1, 1], default_bandwidth=3)
        mapping = Mapping({"A": "S1", "B": "S2"})
        return graph, platform, mapping

    def test_evaluation_cache_keeps_tiers_apart(self):
        graph, platform, mapping = self._graph_with_thirds()
        cache = EvaluationCache()
        fast_obj = cache.objective(
            "period", CommModel.INORDER, Effort.BOUND, platform, mapping,
            Exactness.FAST,
        )
        exact_obj = cache.objective(
            "period", CommModel.INORDER, Effort.BOUND, platform, mapping,
            Exactness.EXACT,
        )
        fast_value = fast_obj(graph)
        exact_value = exact_obj(graph)
        assert exact_value == CostModel(graph, platform, mapping).period_lower_bound(
            CommModel.INORDER
        )
        assert exact_value.denominator % 3 == 0  # genuinely non-dyadic
        assert fast_value != exact_value  # the float image really differs
        # Both entries live side by side; re-queries stay in their tier.
        assert fast_obj(graph) == fast_value
        assert exact_obj(graph) == exact_value

    def test_certified_shares_the_exact_slot(self):
        graph, platform, mapping = self._graph_with_thirds()
        cache = EvaluationCache()
        exact_obj = cache.objective(
            "period", CommModel.INORDER, Effort.BOUND, platform, mapping,
            Exactness.EXACT,
        )
        cert_obj = cache.objective(
            "period", CommModel.INORDER, Effort.BOUND, platform, mapping,
            Exactness.CERTIFIED,
        )
        value = exact_obj(graph)
        assert cert_obj(graph) == value
        assert cert_obj.hits == 1 and cert_obj.misses == 0  # shared slot

    def test_placement_memo_keeps_tiers_apart(self):
        graph, platform, _ = self._graph_with_thirds()
        clear_placement_memo()
        fast = optimize_mapping(
            graph, "period", CommModel.INORDER, Effort.BOUND, platform,
            exactness=Exactness.FAST,
        )
        certified = optimize_mapping(
            graph, "period", CommModel.INORDER, Effort.BOUND, platform,
            exactness=Exactness.CERTIFIED,
        )
        exact = optimize_mapping(
            graph, "period", CommModel.INORDER, Effort.BOUND, platform,
            exactness=Exactness.EXACT,
        )
        clear_placement_memo()
        assert certified[0] == exact[0]  # certified == exact, bit for bit
        assert fast[0] != exact[0]       # the fast image differs ...
        assert _close(float(fast[0]), exact[0])  # ... only by float error

    def test_fast_solve_reports_uncertified(self):
        app = random_application(5, seed=2, filter_fraction=0.5)
        result = solve(app, method="branch-and-bound", schedule=False,
                       cache=EvaluationCache(), exactness="fast")
        assert result.stats.extras["certified"] is False
        assert result.stats.extras["exactness"] == "fast"
        exact = solve(app, method="branch-and-bound", schedule=False,
                      cache=EvaluationCache(), exactness="exact")
        # The fast tier still lands on the optimum here (dyadic instance).
        assert _close(float(result.value), exact.value)


class TestExactnessCoercion:
    def test_coerce(self):
        assert Exactness.coerce(None) is Exactness.CERTIFIED
        assert Exactness.coerce("exact") is Exactness.EXACT
        assert Exactness.coerce("FAST") is Exactness.FAST
        assert Exactness.coerce(Exactness.CERTIFIED) is Exactness.CERTIFIED
        with pytest.raises(ValueError, match="unknown exactness"):
            Exactness.coerce("approximate")

    def test_uses_float(self):
        assert not Exactness.EXACT.uses_float
        assert Exactness.CERTIFIED.uses_float
        assert Exactness.FAST.uses_float

    def test_cli_exposes_the_knob(self, capsys):
        from repro.__main__ import main

        assert main([
            "solve", "fig1", "--exactness", "certified", "--no-schedule",
        ]) == 0
        out = capsys.readouterr().out
        assert "4" in out

    def test_cli_profile_smoke(self, capsys):
        from repro.__main__ import main

        assert main([
            "profile", "fig1", "--top", "5", "--no-schedule",
        ]) == 0
        out = capsys.readouterr().out
        assert "cumulative" in out and "value 4" in out

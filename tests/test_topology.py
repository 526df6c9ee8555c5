"""Topology-aware platforms: generators, contention, placement, parity.

Covers the structured-platform stack end to end:

* generator invariants — symmetric bandwidths, positive capacities,
  distinct fingerprints across shapes (the property sweep);
* the strict :meth:`~repro.core.Platform.bandwidth` lookup contract;
* flat-clique regression — clique platforms keep their historical key
  shape and ``unit`` collapse, bit for bit;
* link contention priced identically by all three cost tiers (exact
  :class:`~repro.core.CostModel`, float :class:`~repro.core.FloatCosts`,
  batched :class:`~repro.core.MappingBatch`/:class:`~repro.core.ForestBatch`);
* certified searches on tree/torus platforms bit-for-bit equal to the
  all-Fraction tier;
* the hierarchical placement seed and the incremental-evaluator gates.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from repro import make_application
from repro.concurrent import ConcurrentCosts, MultiApplication
from repro.core import (
    CommModel,
    CostModel,
    Exactness,
    ExecutionGraph,
    FlatTopology,
    FloatCosts,
    ForestBatch,
    Mapping,
    MappingBatch,
    Platform,
    TorusTopology,
    TreeTopology,
    link_flow_counts,
    platform_fingerprint,
)
from repro.optimize import Effort, greedy_mapping, hierarchical_seed
from repro.optimize.incremental import (
    FullPlacementCosts,
    IncrementalSharedCosts,
    exact_placement_value,
    period_delta,
    placement_evaluator,
)
from repro.optimize.placement import (
    iter_mappings,
    iter_shared_mappings,
    optimize_mapping,
    optimize_shared_mapping,
)
from repro.planner import EvaluationCache, solve, solve_key
from repro.workloads.generators import random_application, random_execution_graph

MODELS = [CommModel.OVERLAP, CommModel.INORDER, CommModel.OUTORDER]

TREE_SHAPES = [
    dict(racks=2, servers_per_rack=2),
    dict(racks=2, servers_per_rack=3),
    dict(racks=3, servers_per_rack=2),
    dict(racks=2, servers_per_rack=2, up_bw=F(1, 4)),
    dict(racks=2, servers_per_rack=2, rack_bw=F(1, 2)),
    dict(racks=2, servers_per_rack=2, speed2=F(2)),
    dict(racks=2, servers_per_rack=2, shared=False),
]

TORUS_SHAPES = [
    dict(dims=(2, 2)),
    dict(dims=(3, 2)),
    dict(dims=(2, 3)),
    dict(dims=(4,)),
    dict(dims=(2, 2, 2)),
    dict(dims=(2, 2), bw=F(1, 2)),
    dict(dims=(2, 2), shared=False),
]


def _platforms():
    return [Platform(topology=TreeTopology(**kw)) for kw in TREE_SHAPES] + [
        Platform(topology=TorusTopology(**kw)) for kw in TORUS_SHAPES
    ]


class TestGeneratorProperties:
    """Satellite: generated topologies are well-formed and distinct."""

    def test_bandwidths_symmetric_and_positive(self):
        for platform in _platforms():
            topo = platform.topology
            pairs = topo.pair_bandwidths()
            for (u, v), bw in pairs.items():
                assert bw > 0, (topo.key(), u, v)
                assert pairs[(v, u)] == bw, (topo.key(), u, v)
                assert platform.bandwidth(u, v) == bw

    def test_capacities_positive_and_routes_within_range(self):
        for platform in _platforms():
            topo = platform.topology
            caps = topo.link_capacities()
            assert all(c > 0 for c in caps)
            names = platform.names
            for u in names:
                for v in names:
                    if u == v:
                        continue
                    for link in topo.route(u, v):
                        assert 0 <= link < len(caps), (topo.key(), u, v)

    def test_route_bottleneck_equals_pair_bandwidth(self):
        for platform in _platforms():
            topo = platform.topology
            caps = topo.link_capacities()
            for (u, v), bw in topo.pair_bandwidths().items():
                route = topo.route(u, v)
                assert route, (u, v)
                assert min(caps[l] for l in route) == bw

    def test_fingerprints_distinct_across_shapes(self):
        platforms = _platforms()
        keys = [p.key() for p in platforms]
        assert len(set(keys)) == len(keys)
        # Uncontended uniform shapes collapse to the "unit" sentinel (they
        # really are interchangeable); everything else stays distinct.
        prints = [p.fingerprint() for p in platforms if not p.is_unit]
        assert len(set(prints)) == len(prints)

    def test_solve_keys_distinct_across_specs(self):
        app = make_application([("A", 1, 1), ("B", 2, 1)])
        specs = [
            "tree:racks=2,servers=2",
            "tree:racks=2,servers=2,up_bw=1/4",
            "tree:racks=2,servers=2,shared=0",
            "torus:dims=2x2",
            "torus:dims=2x2,bw=1/2",
        ]
        keys = [solve_key(app, platform=spec) for spec in specs]
        assert len(set(keys)) == len(keys)


class TestStrictBandwidth:
    """Satellite: strict lookups raise; ``lenient`` restores the default."""

    def setup_method(self):
        self.platform = Platform.homogeneous(3)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            self.platform.bandwidth("S1", "nope")

    def test_self_pair_raises_strict_returns_lenient(self):
        with pytest.raises(KeyError):
            self.platform.bandwidth("S1", "S1")
        assert self.platform.bandwidth("S1", "S1", lenient=True) == 1

    def test_world_world_raises_strict(self):
        from repro.core.platform import INPUT, OUTPUT

        with pytest.raises(KeyError):
            self.platform.bandwidth(INPUT, OUTPUT)
        assert self.platform.bandwidth(INPUT, OUTPUT, lenient=True) == 1
        # World <-> server stays a real (dedicated) link.
        assert self.platform.bandwidth(INPUT, "S1") == 1
        assert self.platform.bandwidth("S2", OUTPUT) == 1


class TestFlatRegression:
    """Clique platforms are bit-for-bit what they were before topologies."""

    def test_clique_key_has_no_topology_component(self):
        platform = Platform.of(speeds=[1, 2], links={("S1", "S2"): F(1, 2)})
        assert all(
            not (isinstance(part, tuple) and part and part[0] == "topology")
            for part in platform.key()
        )
        structured = Platform(topology=TreeTopology(racks=1, servers_per_rack=2))
        assert any(
            isinstance(part, tuple) and part and part[0] == "topology"
            for part in structured.key()
        )

    def test_explicit_flat_topology_matches_homogeneous(self):
        flat = Platform(topology=FlatTopology(("S1", "S2", "S3")))
        assert flat == Platform.homogeneous(3)
        assert flat.is_unit and not flat.has_contention
        assert platform_fingerprint(flat) == "unit"

    def test_uncontended_uniform_tree_is_unit(self):
        # Satellite: unit collapse must consult the topology.  A switch
        # tree with uniform speeds/bandwidths and no sharing is a clique
        # in disguise; the same tree with sharing is not.
        calm = Platform(
            topology=TreeTopology(racks=2, servers_per_rack=2, shared=False)
        )
        assert calm.is_unit and calm.is_homogeneous
        hot = Platform(topology=TreeTopology(racks=2, servers_per_rack=2))
        assert hot.has_contention
        assert not hot.is_unit
        assert not hot.is_homogeneous
        assert platform_fingerprint(hot) != "unit"

    def test_flat_solve_results_unchanged_shape(self):
        app = make_application([("A", 2, F(1, 2)), ("B", 3, 1), ("C", 1, 2)])
        unit = solve(app).value
        hom = solve(app, platform="hom:n=3").value
        assert unit == hom


class TestExactContention:
    """CostModel prices shared links by dividing capacity among flows."""

    def _two_cross_flows(self):
        app = make_application(
            [("A", 1, 1), ("B", 1, 1), ("C", 1, 1), ("D", 1, 1)]
        )
        graph = ExecutionGraph(app, [("A", "C"), ("B", "D")])
        platform = Platform(topology=TreeTopology(racks=2, servers_per_rack=2))
        mapping = Mapping(
            {"A": "R0N0", "B": "R0N1", "C": "R1N0", "D": "R1N1"}
        )
        return graph, platform, mapping

    def test_two_flows_halve_the_shared_uplinks(self):
        graph, platform, mapping = self._two_cross_flows()
        costs = CostModel(graph, platform, mapping)
        # Each uplink carries both flows: effective bandwidth 1/2.
        assert costs.link_bandwidth("A", "C") == F(1, 2)
        assert costs.link_bandwidth("B", "D") == F(1, 2)
        assert platform.bandwidth("R0N0", "R1N0") == 1  # uncontended quote

    def test_link_flow_counts(self):
        graph, platform, mapping = self._two_cross_flows()
        flows = [(mapping.server(u), mapping.server(v)) for u, v in graph.edges]
        counts = link_flow_counts(platform, flows)
        caps = platform.link_capacities()
        # 4 access links used once each, both uplinks used twice.
        assert sorted(counts.values()) == [1, 1, 1, 1, 2, 2]
        assert len(caps) == 6

    def test_colocated_edges_are_not_flows(self):
        app = make_application([("A", 1, 1), ("B", 1, 1), ("C", 1, 1)])
        graph = ExecutionGraph(app, [("A", "B"), ("A", "C")])
        platform = Platform(topology=TreeTopology(racks=2, servers_per_rack=2))
        shared_map = Mapping.shared({"A": "R0N0", "B": "R0N0", "C": "R1N0"})
        costs = CostModel(graph, platform, shared_map)
        # Only A->C crosses servers; it rides alone at full route bottleneck.
        assert costs.link_bandwidth("A", "C") == 1

    def test_app_period_prices_a_member_alone(self):
        # Two chains, each split across the racks: together their flows
        # share both uplinks, but a member's own period is that of the
        # member alone on its servers, its one flow riding the uplink.
        app = make_application([("A", 1, 1), ("B", 1, 1)])
        chain = ExecutionGraph.chain(app, ["A", "B"])
        multi = MultiApplication([("x", chain), ("y", chain)])
        platform = Platform(
            topology=TreeTopology(racks=2, servers_per_rack=2, up_bw=F(1, 4))
        )
        placement = {"x.A": "R0N0", "x.B": "R1N0", "y.A": "R0N1", "y.B": "R1N1"}
        readout = ConcurrentCosts(multi, platform, Mapping.shared(placement))
        alone = CostModel(
            multi.app_graph("x"), platform,
            Mapping.shared({s: placement[s] for s in ("x.A", "x.B")}),
        )
        assert readout.app_period("x") == alone.period_lower_bound(
            CommModel.OVERLAP
        ) == 4
        assert readout.system_period() == 8  # the shared uplinks still count

    def test_unshared_topology_matches_static_quotes(self):
        graph, _, mapping = self._two_cross_flows()
        platform = Platform(
            topology=TreeTopology(racks=2, servers_per_rack=2, shared=False)
        )
        costs = CostModel(graph, platform, mapping)
        assert costs.link_bandwidth("A", "C") == platform.bandwidth(
            "R0N0", "R1N0"
        )


def _structured_instance(seed, *, max_services=4):
    """Random ``(graph, platform, mapping)`` on a tree or torus platform."""
    rng = random.Random(seed)
    if seed % 2:
        topo = TreeTopology(
            racks=rng.randrange(2, 4),
            servers_per_rack=rng.randrange(2, 4),
            up_bw=F(1, rng.randrange(1, 5)),
            rack_bw=F(1, rng.randrange(1, 3)),
            speed2=F(rng.randrange(1, 4)),
            shared=seed % 4 != 3,
        )
    else:
        dims = (rng.randrange(2, 4), rng.randrange(2, 4))
        topo = TorusTopology(
            dims, bw=F(1, rng.randrange(1, 4)), shared=seed % 4 != 2
        )
    platform = Platform(topology=topo)
    n = rng.randrange(2, min(max_services, len(platform)) + 1)
    app = random_application(n, seed=seed, filter_fraction=rng.uniform(0.2, 0.9))
    graph = random_execution_graph(app, seed=seed + 1, density=rng.uniform(0.2, 0.7))
    order = rng.sample(range(len(platform)), n)
    mapping = Mapping(
        {svc: platform.names[order[i]] for i, svc in enumerate(graph.nodes)}
    )
    return graph, platform, mapping


class TestFloatParity:
    """FloatCosts tracks the exact tier within CERT_EPS under contention."""

    def test_period_and_latency_sweep(self):
        for seed in range(80):
            graph, platform, mapping = _structured_instance(seed)
            exact = CostModel(graph, platform, mapping)
            fast = FloatCosts(graph, platform, mapping)
            model = MODELS[seed % 3]
            e = exact.period_lower_bound(model)
            f = fast.period_lower_bound(model)
            assert abs(f - float(e)) <= 1e-9 * max(1.0, abs(float(e))), seed
            el = exact.latency_lower_bound()
            fl = fast.latency_lower_bound()
            assert abs(fl - float(el)) <= 1e-9 * max(1.0, abs(float(el))), seed


class TestBatchedParity:
    """Batched kernels == scalar FloatCosts, bit for bit, under contention."""

    def test_mapping_batch_full_enumeration(self):
        for seed in range(40):
            graph, platform, _ = _structured_instance(seed, max_services=3)
            mappings = list(iter_mappings(graph.nodes, platform))
            if len(mappings) > 400:
                mappings = mappings[::7]
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

    def test_mapping_batch_shared_weighted_rows(self):
        # The contended re-planner's configuration: shared rows (services
        # co-located freely) with concurrent 1/rho weights on tree and
        # torus platforms — every row equals the scalar FloatCosts double.
        for seed in range(40):
            rng = random.Random(seed)
            _, platform, _ = _structured_instance(seed)
            n = rng.randrange(3, 8)
            app = random_application(n, seed=seed + 300)
            graph = random_execution_graph(
                app, seed=seed + 301, density=rng.uniform(0.2, 0.7)
            )
            weights = (
                {name: F(1, rng.randrange(20, 90)) for name in app.names}
                if seed % 3
                else None
            )
            model = MODELS[seed % 3]
            batch = MappingBatch(
                graph, platform, kind="period", model=model,
                shared=True, weights=weights,
            )
            mappings = [
                Mapping.shared(
                    {
                        name: rng.choice(platform.names[: rng.randrange(1, 4)])
                        if k % 2
                        else rng.choice(platform.names)
                        for name in graph.nodes
                    }
                )
                for k in range(30)
            ]
            rows = np.stack([batch.encode(m) for m in mappings])
            values = batch.values(rows)
            for k, m in enumerate(mappings):
                scalar = FloatCosts(
                    graph, platform, m, weights=weights
                ).period_lower_bound(model)
                assert values[k] == scalar, (seed, model, k)

    #: Members of the re-planner's combined graphs: 3-4 applications of
    #: the churn families, 14-20 services in all.
    REPLAN_PANELS = (
        ("chain:n=3,seed=11", "star:leaves=3,seed=12", "fig1",
         "forkjoin:branches=2,seed=13"),
        ("chain:n=5,seed=21", "fig1", "forkjoin:branches=3,seed=22"),
        ("star:leaves=4,seed=31", "chain:n=4,seed=32",
         "forkjoin:branches=2,seed=33", "star:leaves=3,seed=41"),
        ("chain:n=6,seed=42", "forkjoin:branches=3,seed=22", "fig1",
         "chain:n=3,seed=11"),
    )

    def test_mapping_batch_replan_scale_rows(self):
        # The contended re-planner's batches: the combined graph of a few
        # live applications, shared rows, with and without the 1/rho
        # weights, both kinds, on tree and torus platforms — plus an
        # edgeless graph, whose batch has no edge column at all.  Every
        # row equals the scalar FloatCosts double.
        from repro.concurrent import ConcurrentApp
        from repro.planner import load_workload

        platforms = [
            Platform(topology=TreeTopology(racks=2, servers_per_rack=4)),
            Platform(topology=TreeTopology(
                racks=3, servers_per_rack=3, up_bw=F(1, 2), speed2=F(2)
            )),
            Platform(topology=TorusTopology((3, 3), bw=F(1, 2))),
        ]
        multis = [
            MultiApplication([
                ConcurrentApp(f"app{k}", load_workload(spec).graph,
                              F(60 + 7 * k))
                for k, spec in enumerate(panel)
            ])
            for panel in self.REPLAN_PANELS
        ]
        graphs = [(multi.combined_graph, multi.weights()) for multi in multis]
        assert all(14 <= len(g.nodes) <= 20 for g, _ in graphs)
        edgeless = ExecutionGraph.empty(random_application(6, seed=9))
        graphs.append((edgeless, None))
        for g, (graph, weights) in enumerate(graphs):
            for p, platform in enumerate(platforms):
                rng = random.Random(10 * g + p)
                model = MODELS[(g + p) % 3]
                mappings = [
                    Mapping.shared({
                        name: rng.choice(platform.names[: rng.randrange(2, 5)])
                        if k % 2
                        else rng.choice(platform.names)
                        for name in graph.nodes
                    })
                    for k in range(24)
                ]
                for kind in ("period", "latency"):
                    for w in (weights, None):
                        batch = MappingBatch(
                            graph, platform, kind=kind, model=model,
                            shared=True, weights=w,
                        )
                        rows = np.stack([batch.encode(m) for m in mappings])
                        values = batch.values(rows)
                        for k, m in enumerate(mappings):
                            fast = FloatCosts(graph, platform, m, weights=w)
                            scalar = (
                                fast.period_lower_bound(model)
                                if kind == "period"
                                else fast.latency_lower_bound()
                            )
                            assert values[k] == scalar, (g, p, kind, k)

    def test_forest_batch_pinned_mapping(self, forest_graph):
        for seed in range(40):
            rng = random.Random(seed)
            _, platform, _ = _structured_instance(seed, max_services=4)
            n = rng.randrange(2, 5)
            app = random_application(n, seed=seed + 50)
            order = rng.sample(range(len(platform)), n)
            mapping = Mapping(
                {svc: platform.names[order[i]] for i, svc in enumerate(app.names)}
            )
            model = MODELS[seed % 3]
            batch = ForestBatch(app, model, platform, mapping)
            graphs = [forest_graph(app, rng) for _ in range(20)]
            rows = np.stack([batch.encode(g) for g in graphs])
            valid, values = batch.periods(rows)
            assert valid.all(), (seed, model)
            for k, g in enumerate(graphs):
                scalar = FloatCosts(g, platform, mapping).period_lower_bound(model)
                assert values[k] == scalar, (seed, model, k)


class TestNeighbourhoodScoring:
    """FullPlacementCosts.score_moves: batched floats, near-ties settled
    exactly, the certificate's strictness following the caller's rule."""

    def _near_tie(self, exactness):
        # S1 hosts A (load exactly 1, the bottleneck).  Moving C onto S2
        # lifts S2 to 1 + 2^-60: the float reads 1.0, the bottleneck's
        # load stays exactly 1, yet the move makes the value worse.
        tiny = F(1, 2 ** 60)
        app = make_application(
            [("A", 1, 1), ("B", 1 - 2 * tiny, 1), ("C", 3 * tiny, 1)]
        )
        graph = ExecutionGraph.empty(app)
        platform = Platform.homogeneous(3, bandwidth=10 ** 6)
        mapping = Mapping.shared({"A": "S1", "B": "S2", "C": "S3"})
        return FullPlacementCosts(
            graph, platform, mapping, shared=True, exactness=exactness
        ), 1 + tiny

    def test_walk_home_rule_never_accepts_a_worse_move(self):
        exact, worse = self._near_tie(Exactness.EXACT)
        certified, _ = self._near_tie(Exactness.CERTIFIED)
        assert exact.value() == certified.value() == 1
        move = [("C", "S2")]
        assert list(exact.score_moves("reassign", move)) == [worse]
        # Best-of callers (strictly below the value) may reject on the
        # certificate: the bottleneck still carries exactly 1.
        (best_of,) = certified.score_moves("reassign", move)
        assert not best_of < certified.value()
        # A walk-home caller accepts ties, so the certificate's equal
        # bound settles nothing and the move is priced in full.
        (walk_home,) = certified.score_moves("reassign", move, ties=True)
        assert walk_home == worse
        assert not certified.score_reassign("C", "S2") < certified.value()

    def test_repair_walk_home_rejects_a_worse_move(self):
        # C sits off its incumbent server S2; no move improves, so the
        # repair reaches its walk-home scan, where C -> S2 ties on the
        # bottleneck but is 2^-60 worse overall: both tiers stop in the
        # first round.  (Accepting it would oscillate: C -> S2 and back.)
        from repro.dynamic import migration_sizes
        from repro.dynamic.replan import _repair_search

        for exactness in (Exactness.EXACT, Exactness.CERTIFIED):
            evaluator, _ = self._near_tie(exactness)
            _repair_search(
                evaluator.graph, evaluator.platform, evaluator,
                evaluator.platform.names,
                baseline={"A": "S1", "B": "S2", "C": "S2"},
                forced=frozenset(), sizes=migration_sizes(evaluator.graph),
                budget=None, max_rounds=3,
            )
            assert evaluator.assignment == {"A": "S1", "B": "S2", "C": "S3"}
            assert evaluator.value() == 1

    def test_fast_tier_answers_with_batched_floats(self):
        fast, _ = self._near_tie(Exactness.FAST)
        moves = [("C", "S2"), ("C", "S1"), ("B", "S3")]
        batched = list(fast.score_moves("reassign", moves))
        assert batched == [fast.score_reassign(*m) for m in moves]
        assert all(type(v) is float for v in batched)


class TestFloorGate:
    """FullPlacementCosts answers a move that leaves a compute-bound
    bottleneck server untouched with the incumbent value, unpriced — and
    such a move really cannot improve."""

    @staticmethod
    def _instance(platform, seed):
        """A random weighted shared mapping of 6-16 services on a few
        servers; every other instance has heavy services, so that its
        bottleneck is often compute-bound."""
        rng = random.Random(seed)
        costs = (64, 640) if seed % 2 else (1, 64)
        app = random_application(
            rng.randrange(6, 17), seed=seed, cost_range=costs
        )
        graph = random_execution_graph(
            app, seed=seed + 1, density=rng.uniform(0.1, 0.4)
        )
        hosts = platform.names[: rng.randrange(2, len(platform.names) + 1)]
        mapping = Mapping.shared(
            {name: rng.choice(hosts) for name in graph.nodes}
        )
        weights = {name: F(1, rng.randrange(20, 90)) for name in app.names}
        return graph, mapping, weights

    def test_answered_moves_cannot_improve(self, monkeypatch):
        priced = []
        prices = FullPlacementCosts._prices

        def recorded(self, kind, moves):
            priced.extend((kind, move) for move in moves)
            return prices(self, kind, moves)

        monkeypatch.setattr(FullPlacementCosts, "_prices", recorded)
        floored = 0
        for p, platform in enumerate(_platforms()):
            for m, model in enumerate(MODELS):
                seed = 3 * p + m
                rng = random.Random(seed)
                graph, mapping, weights = self._instance(platform, seed)
                ev = FullPlacementCosts(
                    graph, platform, mapping, model=model, weights=weights,
                    shared=True, exactness=Exactness.CERTIFIED,
                )
                value = ev.value()
                nodes = sorted(graph.nodes)
                where = ev.assignment
                reassigns = rng.sample(
                    [(s, u) for s in nodes for u in platform.names
                     if u != where[s]], 12,
                )
                pairs = [(a, b) for i, a in enumerate(nodes)
                         for b in nodes[i + 1:] if where[a] != where[b]]
                swaps = rng.sample(pairs, min(12, len(pairs)))
                for kind, moves in (("reassign", reassigns), ("swap", swaps)):
                    del priced[:]
                    batched = list(ev.score_moves(kind, moves))
                    wants = []
                    for move in moves:
                        trial = dict(where)
                        if kind == "reassign":
                            trial[move[0]] = move[1]
                        else:
                            trial[move[0]], trial[move[1]] = (
                                where[move[1]], where[move[0]]
                            )
                        wants.append(exact_placement_value(
                            graph, platform, Mapping.shared(trial),
                            model=model, weights=weights, shared=True,
                        ))
                    best = min(wants)
                    for move, got, want in zip(moves, batched, wants):
                        label = (p, model, kind, move)
                        one = (
                            ev.score_reassign(*move) if kind == "reassign"
                            else ev.score_swap(*move)
                        )
                        # One candidate: exact below the value, else a
                        # move that cannot improve.
                        if one < value:
                            assert one == want, label
                        else:
                            assert want >= value, label
                        # A neighbourhood: the best improving moves get
                        # their exact value, and no other move ties them.
                        if want == best < value:
                            assert got == want, label
                        elif best < value:
                            assert got > best, label
                        else:
                            assert got >= value, label
                        if (kind, move) not in priced:
                            floored += 1
                            assert got == one == value, label
                            assert want >= value, label
        # The floor decided a real share of the sampled moves.  They are
        # all OVERLAP moves: under the one-port models every used server
        # receives a message, so its load exceeds its Ccomp and the floor
        # set stays empty.
        assert floored > 50

    def test_exact_tier_prices_every_move(self):
        platform = _platforms()[0]
        graph, mapping, weights = self._instance(platform, 3)
        ev = FullPlacementCosts(
            graph, platform, mapping, weights=weights, shared=True,
            exactness=Exactness.EXACT,
        )
        for svc in sorted(graph.nodes):
            for server in platform.names:
                if server == ev.assignment[svc]:
                    continue
                trial = dict(ev.assignment, **{svc: server})
                assert ev.score_reassign(svc, server) == exact_placement_value(
                    graph, platform, Mapping.shared(trial),
                    weights=weights, shared=True,
                )


class TestCertifiedBitForBit:
    """Certified searches on structured platforms == the all-Fraction tier."""

    def test_optimize_mapping_exhaustive_and_local_search(self):
        from repro.optimize.placement import clear_placement_memo

        for seed in range(12):
            graph, platform, _ = _structured_instance(seed, max_services=3)
            model = MODELS[seed % 3]
            for kwargs in (
                {},  # exhaustive (small spaces)
                {"exhaustive_limit": 0},  # force seed + local search
            ):
                results = {}
                for exactness in (Exactness.EXACT, Exactness.CERTIFIED):
                    clear_placement_memo()
                    results[exactness] = optimize_mapping(
                        graph, "period", model, Effort.BOUND, platform,
                        exactness=exactness, **kwargs,
                    )
                exact_v, exact_m = results[Exactness.EXACT]
                cert_v, cert_m = results[Exactness.CERTIFIED]
                assert cert_v == exact_v, (seed, model, kwargs)
                assert cert_m.items() == exact_m.items(), (seed, model, kwargs)

    def test_optimize_shared_mapping_exhaustive(self):
        platform = Platform(
            topology=TreeTopology(racks=2, servers_per_rack=2, up_bw=F(1, 2))
        )
        for seed in range(6):
            rng = random.Random(seed)
            n = rng.randrange(2, 4)
            app = random_application(n, seed=seed + 30)
            graph = random_execution_graph(app, seed=seed + 31, density=0.5)
            model = MODELS[seed % 3]
            value, mapping = optimize_shared_mapping(graph, model, platform)
            brute = min(
                _shared_value(graph, platform, m, model)
                for m in iter_shared_mappings(graph.nodes, platform)
            )
            assert value == brute, (seed, model)
            assert _shared_value(graph, platform, mapping, model) == value

    def test_solve_branch_and_bound_certified(self):
        app = make_application(
            [("A", 2, F(1, 2)), ("B", 3, 1), ("C", 1, 2), ("D", 2, 1)]
        )
        for spec in ("tree:racks=2,servers=2,up_bw=1/2", "torus:dims=2x2,bw=1/2"):
            exact = solve(
                app, method="branch-and-bound", platform=spec, exactness="exact"
            )
            cert = solve(
                app, method="branch-and-bound", platform=spec,
                exactness="certified",
            )
            assert cert.value == exact.value, spec
            assert cert.graph.edges == exact.graph.edges, spec


def _shared_value(graph, platform, mapping, model):
    return exact_placement_value(
        graph, platform, mapping, model=model, shared=True
    )


class TestIncrementalGates:
    """Contention invalidates cached deltas; the full evaluator takes over."""

    def _contended(self):
        graph, platform, mapping = TestExactContention()._two_cross_flows()
        return graph, platform, mapping

    def test_period_delta_declines_contended_platforms(self):
        graph, platform, mapping = self._contended()
        assert (
            period_delta(graph, CommModel.OVERLAP, Effort.BOUND, platform, mapping)
            is None
        )

    def test_incremental_shared_costs_refuses(self):
        graph, platform, _ = self._contended()
        shared = Mapping.shared(
            {n: platform.names[0] for n in graph.nodes}
        )
        with pytest.raises(ValueError, match="contention|contended"):
            IncrementalSharedCosts(graph, platform, shared)

    def test_placement_evaluator_dispatches_full_recompute(self):
        graph, platform, mapping = self._contended()
        ev = placement_evaluator(graph, platform, mapping)
        assert isinstance(ev, FullPlacementCosts)

    def test_exact_shared_value_matches_cost_model(self):
        # exact_placement_value folds the weighted per-server sums without
        # a CostModel (the repair's exact tier and its certificate share
        # that fold); it must equal CostModel's own aggregation.
        for seed in range(30):
            rng = random.Random(seed)
            _, platform, _ = _structured_instance(seed)
            app = random_application(rng.randrange(2, 7), seed=seed + 500)
            graph = random_execution_graph(app, seed=seed + 501, density=0.5)
            mapping = Mapping.shared(
                {
                    name: rng.choice(platform.names[:3])
                    for name in graph.nodes
                }
            )
            weights = {name: F(rng.randrange(1, 5), 7) for name in app.names}
            model = MODELS[seed % 3]
            costs = CostModel(graph, platform, mapping)
            assert exact_placement_value(
                graph, platform, mapping, model=model, shared=True
            ) == costs.period_lower_bound(model), seed
            loads = {}
            for node in graph.nodes:
                acc = loads.setdefault(mapping.server(node), [0, 0, 0])
                acc[0] += weights[node] * costs.cin(node)
                acc[1] += weights[node] * costs.ccomp(node)
                acc[2] += weights[node] * costs.cout(node)
            combine = max if model.overlaps_compute else sum
            assert exact_placement_value(
                graph, platform, mapping, model=model, weights=weights,
                shared=True,
            ) == max(combine(acc) for acc in loads.values()), seed

    def test_full_placement_costs_scores_match_recompute(self):
        for seed in range(15):
            graph, platform, mapping = _structured_instance(seed)
            ev = placement_evaluator(graph, platform, mapping)
            base = CostModel(graph, platform, mapping).period_lower_bound(
                CommModel.OVERLAP
            )
            assert ev.value() == base, seed
            rng = random.Random(seed)
            nodes = list(graph.nodes)
            svc = rng.choice(nodes)
            free = [s for s in platform.names if s not in ev.assignment.values()]
            target = rng.choice(free) if free else ev.assignment[svc]
            trial = ev.score_reassign(svc, target)
            moved = dict(ev.assignment)
            moved[svc] = target
            expect = CostModel(
                graph, platform, Mapping(moved)
            ).period_lower_bound(CommModel.OVERLAP)
            if trial is not None:
                assert abs(float(trial) - float(expect)) <= 1e-9 * max(
                    1.0, float(expect)
                ), seed
            ev.apply_reassign(svc, target)
            assert ev.value() == expect, seed


class TestHierarchicalSeed:
    """The topology-partitioned seed: injective, capacity-safe, effective."""

    def test_seed_is_injective_and_capacity_respecting(self):
        for seed in range(20):
            graph, platform, _ = _structured_instance(seed, max_services=5)
            m = hierarchical_seed(graph, platform)
            servers = [m.server(n) for n in graph.nodes]
            assert len(set(servers)) == len(servers), seed
            for _label, names in platform.topology.groups():
                used = sum(1 for s in servers if s in names)
                assert used <= len(names), seed

    def test_flat_platform_reduces_to_greedy(self):
        app = make_application([("A", 3, 1), ("B", 1, 2), ("C", 2, F(1, 2))])
        graph = ExecutionGraph(app, [("A", "B")])
        platform = Platform.of(speeds=[1, 2, 4])
        assert hierarchical_seed(graph, platform).items() == greedy_mapping(
            graph, platform
        ).items()

    def test_chain_pairs_share_a_rack(self):
        app = make_application(
            [("A", 1, 2), ("B", 1, 1), ("C", 1, 2), ("D", 1, 1)]
        )
        graph = ExecutionGraph(app, [("A", "B"), ("C", "D")])
        platform = Platform(
            topology=TreeTopology(racks=2, servers_per_rack=2, up_bw=F(1, 4))
        )
        m = hierarchical_seed(graph, platform)
        assert m.server("A")[:2] == m.server("B")[:2]
        assert m.server("C")[:2] == m.server("D")[:2]

    def test_hierarchical_strategy_never_loses_to_flat(self):
        from repro.optimize.placement import clear_placement_memo

        for seed in range(8):
            graph, platform, _ = _structured_instance(seed, max_services=4)
            clear_placement_memo()
            flat_v, _ = optimize_mapping(
                graph, "period", CommModel.OVERLAP, Effort.BOUND, platform,
                exhaustive_limit=0, strategy="flat",
            )
            clear_placement_memo()
            hier_v, _ = optimize_mapping(
                graph, "period", CommModel.OVERLAP, Effort.BOUND, platform,
                exhaustive_limit=0, strategy="hierarchical",
            )
            # Both run the same local search from different seeds; the
            # topology-aware seed must not end in a worse local optimum
            # on these instances (regression guard for the heuristic).
            assert hier_v <= flat_v * F(11, 10), seed

    def test_bad_strategy_rejected(self):
        graph, platform, _ = _structured_instance(1)
        with pytest.raises(ValueError, match="strategy"):
            optimize_mapping(
                graph, "period", CommModel.OVERLAP, Effort.BOUND, platform,
                strategy="bogus",
            )


class TestPlannerIntegration:
    """The hierarchical solver and topology specs through the facade."""

    def test_solve_hierarchical_on_tree(self):
        app = make_application(
            [("A", 1, 2), ("B", 2, 1), ("C", 1, 2), ("D", 3, F(1, 2)),
             ("E", 1, 1), ("F", 2, 1)]
        )
        spec = "tree:racks=3,servers=2,up_bw=1/4"
        hier = solve(app, method="hierarchical", platform=spec)
        assert hier.stats.extras.get("hierarchical") is True
        ls = solve(app, method="local-search", platform=spec)
        assert hier.value <= ls.value

    def test_hierarchical_structure_phase_scores_no_unit_graphs(self, monkeypatch):
        # The structure phase runs on the unit abstraction, where greedy
        # prices insertions on per-node terms and local search prices
        # moves on deltas, so no unit-platform graph needs scoring.
        import repro.optimize.evaluation as evaluation

        real = evaluation.period_objective
        unit_calls = []

        def counting(graph, model, effort=Effort.HEURISTIC, platform=None,
                     mapping=None, **kwargs):
            if evaluation._normalise(platform, mapping) == (None, None):
                unit_calls.append(graph)
            return real(graph, model, effort, platform, mapping, **kwargs)

        monkeypatch.setattr(evaluation, "period_objective", counting)
        result = solve(
            random_application(12, seed=3), method="hierarchical",
            platform="tree:racks=2,servers=6", cache=EvaluationCache(),
        )
        assert len(unit_calls) <= 1
        assert result.value == F(3645, 2048)
        assert sorted(result.graph.edges) == [
            ("C0", "C11"), ("C0", "C8"), ("C0", "C9"), ("C1", "C2"),
            ("C1", "C5"), ("C10", "C6"), ("C2", "C3"), ("C2", "C7"),
            ("C4", "C1"), ("C4", "C10"), ("C9", "C4"),
        ]

    def test_solver_falls_back_without_structure(self):
        app = make_application([("A", 1, 2), ("B", 2, 1)])
        r = solve(app, method="hierarchical")
        assert r.stats.extras.get("hierarchical") is False
        assert r.value == solve(app, method="local-search").value

    def test_certified_solve_matches_exact_on_torus(self):
        app = make_application([("A", 2, F(1, 2)), ("B", 3, 1), ("C", 1, 2)])
        spec = "torus:dims=2x2,bw=1/2"
        exact = solve(app, method="hierarchical", platform=spec, exactness="exact")
        cert = solve(
            app, method="hierarchical", platform=spec, exactness="certified"
        )
        assert cert.value == exact.value

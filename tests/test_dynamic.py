"""Online re-planning: events, warm-started bounded repair, replay.

Covers the PR's tentpole and its satellite bugfixes:

* the empty-system regression — :class:`~repro.concurrent.ConcurrentCosts`
  on a system with no placed services used to raise ``ValueError`` from
  ``max()``; it must read period 0, utilisation 0, feasible;
* event validation, CSV round-trips and the three trace generators
  (flash crowd, diurnal, rolling maintenance);
* :func:`~repro.dynamic.replan` semantics: no-op bit-for-bit stability,
  the voluntary-migration budget, forced evacuations under drains, and
  the feasibility-overrides-budget cold fallback;
* the contention gate, audited per caller: every search that would build
  an :class:`~repro.optimize.IncrementalSharedCosts` on a contended
  topology must dispatch to ``FullPlacementCosts`` instead;
* :func:`~repro.dynamic.replay` aggregates and the ``repro replay`` CLI.
"""

import json
from fractions import Fraction

import pytest

from repro import Mapping, Platform, make_application
from repro.__main__ import main as cli_main
from repro.concurrent import ConcurrentApp, ConcurrentCosts, MultiApplication
from repro.core import Application, CommModel, ExecutionGraph
from repro.dynamic import (
    DIURNAL_CURVE,
    DynamicState,
    Event,
    KINDS,
    ScenarioTrace,
    apply_event,
    cold_solve,
    diurnal_trace,
    flash_crowd_trace,
    initial_state,
    load_trace,
    maintenance_trace,
    migration_sizes,
    replan,
    replay,
)
from repro.optimize import (
    IncrementalSharedCosts,
    greedy_shared_mapping,
    optimize_shared_mapping,
)
from repro.optimize.incremental import (
    FullPlacementCosts,
    exact_placement_value,
    placement_evaluator,
)
from repro.planner import load_concurrent_workload, load_platform, solve_concurrent

F = Fraction


def tree_platform() -> Platform:
    """A contended 2-rack tree: the oversubscribed uplink is shared."""
    platform = load_platform("tree:racks=2,servers=2,up_bw=1/2")
    assert platform.has_contention
    return platform


def admitted_state(platform=None, *, workload="fig1", rho=F(40)) -> DynamicState:
    state = initial_state([], platform=platform or Platform.homogeneous(3))
    return replan(
        state, Event("admit", app="a", workload=workload, rho=rho)
    ).state


# ---------------------------------------------------------------------------
# Satellite bugfix: the empty system
# ---------------------------------------------------------------------------

class TestEmptySystem:
    def test_costs_on_empty_member_do_not_crash(self):
        # Constructible before this PR too: an application with zero
        # services.  max_utilisation() used to raise ValueError from
        # ``max()`` on no used servers; system_period() likewise.
        multi = MultiApplication(
            [ConcurrentApp("a", ExecutionGraph.empty(Application(())))]
        )
        costs = ConcurrentCosts(multi, Platform.homogeneous(2), Mapping.shared({}))
        assert costs.max_utilisation() == 0
        assert costs.system_period() == 0
        assert costs.is_feasible()

    def test_solve_concurrent_with_a_member_without_services(self):
        # app_period()/app_latency() of a member with no services used to
        # raise ValueError from ``max()`` over nothing; it demands 0.
        app = make_application([("A", 2, "1/2"), ("B", 3, 1)])
        multi = MultiApplication([
            ("left", ExecutionGraph.chain(app, ["A", "B"])),
            ("none", ExecutionGraph.empty(Application(()))),
        ])
        result = solve_concurrent(multi, platform=Platform.homogeneous(2))
        assert result.app_periods["none"] == 0
        assert result.app_latencies["none"] == 0
        assert result.app_periods["left"] > 0
        assert result.app_latencies["left"] > 0

    def test_zero_member_multi_application(self):
        multi = MultiApplication([])
        assert len(multi) == 0
        assert multi.total_services == 0
        costs = ConcurrentCosts(multi, Platform.homogeneous(2), Mapping.shared({}))
        assert costs.max_utilisation() == 0
        assert costs.is_feasible()

    def test_optimize_shared_mapping_empty_graph(self):
        multi = MultiApplication([])
        value, mapping = optimize_shared_mapping(
            multi.combined_graph, CommModel.OVERLAP, Platform.homogeneous(2),
            weights=None,
        )
        assert value == 0
        assert dict(mapping.items()) == {}

    def test_evict_to_empty_replay(self):
        # The regression path end to end: the last step reads out the
        # empty system without crashing.
        trace = ScenarioTrace([
            Event("admit", time=0, app="a", workload="fig1", rho=F(40)),
            Event("evict", time=1, app="a"),
        ])
        report = replay(trace, Platform.homogeneous(2))
        last = report.steps[-1]
        assert last.services == 0
        assert last.warm_period == 0
        assert last.warm_feasible
        assert report.final.multi.total_services == 0


# ---------------------------------------------------------------------------
# Events and traces
# ---------------------------------------------------------------------------

class TestEvents:
    def test_kind_validation(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            Event("arrive")
        with pytest.raises(ValueError, match="application name"):
            Event("admit", workload="fig1")
        with pytest.raises(ValueError, match="workload spec"):
            Event("admit", app="a")
        with pytest.raises(ValueError, match="rho target"):
            Event("load", app="a")
        with pytest.raises(ValueError, match="rho must be > 0"):
            Event("load", app="a", rho=0)
        with pytest.raises(ValueError, match="at least one server"):
            Event("drain")
        assert Event("noop").label() == "noop"

    def test_labels(self):
        assert Event("admit", app="a", workload="fig1", rho=5).label() == \
            "admit a(rho=5)"
        assert Event("drain", servers=("S1", "S2")).label() == "drain S1,S2"
        assert Event("evict", app="a").label() == "evict a"

    def test_dict_roundtrip(self):
        event = Event("admit", time=F(3, 2), app="a", workload="chain:n=3",
                      rho=F(7, 2))
        assert Event.from_dict(event.as_dict()) == event
        with pytest.raises(ValueError, match="unknown event field"):
            Event.from_dict({"kind": "noop", "bogus": 1})
        with pytest.raises(ValueError, match="'kind'"):
            Event.from_dict({"app": "a"})

    def test_resolve_graph_requires_single_application(self):
        with pytest.raises(ValueError, match="single"):
            Event("admit", app="a", workload="fig1+fig1").resolve_graph()

    def test_csv_roundtrip(self, tmp_path):
        trace = flash_crowd_trace(10, seed=3)
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        assert ScenarioTrace.load_csv(path) == trace
        assert load_trace(f"@{path}") == trace
        assert load_trace(str(path)) == trace

    def test_csv_refuses_programmatic_graphs(self, tmp_path):
        graph = ExecutionGraph.empty(Application(()))
        trace = ScenarioTrace([Event("admit", app="a", graph=graph)])
        with pytest.raises(ValueError, match="cannot round-trip"):
            trace.save_csv(tmp_path / "trace.csv")

    def test_csv_rejects_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,kind\n0,noop\n")
        with pytest.raises(ValueError, match="needs columns"):
            ScenarioTrace.load_csv(path)

    def test_trace_orders_by_time(self):
        trace = ScenarioTrace([
            Event("noop", time=5), Event("noop", time=1), Event("noop", time=3),
        ])
        assert [e.time for e in trace] == [1, 3, 5]


class TestGenerators:
    def test_flash_crowd_is_deterministic_and_consistent(self):
        trace = flash_crowd_trace(20, seed=11)
        assert len(trace) == 20
        assert trace == flash_crowd_trace(20, seed=11)
        assert trace != flash_crowd_trace(20, seed=12)
        kinds = [e.kind for e in trace]
        assert kinds.count("admit") == 12
        assert kinds.count("load") == 4
        assert kinds.count("evict") == 4
        # Every load/evict targets an application admitted earlier.
        live = set()
        for event in trace:
            if event.kind == "admit":
                assert event.app not in live
                live.add(event.app)
            else:
                assert event.app in live
        with pytest.raises(ValueError, match=">= 5"):
            flash_crowd_trace(4)

    def test_diurnal_follows_the_curve(self):
        trace = diurnal_trace(2, 1, base_rho=F(40))
        admits = [e for e in trace if e.kind == "admit"]
        loads = [e for e in trace if e.kind == "load"]
        assert len(admits) == 2
        assert len(loads) == 2 * (len(DIURNAL_CURVE) - 1)
        assert all(e.rho == F(40) * DIURNAL_CURVE[0] for e in admits)
        # slot 5 is the midday trough: the tightest target of the day
        assert min(e.rho for e in loads) == F(40) * min(DIURNAL_CURVE)

    def test_maintenance_drains_one_group_at_a_time(self):
        platform = tree_platform()
        trace = maintenance_trace(platform)
        groups = platform.topology.groups()
        drains = [e for e in trace if e.kind == "drain"]
        restores = [e for e in trace if e.kind == "restore"]
        assert len(drains) == len(restores) == len(groups)
        assert [d.servers for d in drains] == [tuple(m) for _, m in groups]
        # Each drain is restored before the next group goes down.
        out = set()
        for event in trace:
            if event.kind == "drain":
                assert not out
                out |= set(event.servers)
            else:
                out -= set(event.servers)

    def test_maintenance_refuses_single_group_platforms(self):
        with pytest.raises(ValueError, match="topology groups"):
            maintenance_trace(Platform.homogeneous(3))

    def test_load_trace_families(self):
        assert load_trace("flash:n=10,seed=3") == flash_crowd_trace(10, seed=3)
        assert load_trace("diurnal:apps=2,cycles=2") == diurnal_trace(2, 2)
        platform = tree_platform()
        assert load_trace("maint:dwell=4,gap=1", platform) == \
            maintenance_trace(platform, dwell=4, gap=1)
        with pytest.raises(ValueError, match="needs the platform"):
            load_trace("maint:dwell=4")
        with pytest.raises(ValueError, match="unknown trace family"):
            load_trace("tsunami:n=3")
        with pytest.raises(ValueError, match="unknown option"):
            load_trace("flash:bogus=1")


# ---------------------------------------------------------------------------
# replan: transitions, budget, fallback
# ---------------------------------------------------------------------------

class TestApplyEvent:
    def test_transition_errors(self):
        state = admitted_state()
        with pytest.raises(ValueError, match="already running"):
            apply_event(state, Event("admit", app="a", workload="fig1"))
        with pytest.raises(ValueError, match="no running application"):
            apply_event(state, Event("evict", app="zzz"))
        with pytest.raises(ValueError, match="no running application"):
            apply_event(state, Event("load", app="zzz", rho=1))
        with pytest.raises(ValueError, match="unknown server"):
            apply_event(state, Event("drain", servers=("nope",)))
        with pytest.raises(ValueError, match="nowhere to run"):
            apply_event(state, Event("drain", servers=("S1", "S2", "S3")))

    def test_load_retargets_in_place(self):
        state = admitted_state()
        multi, drained = apply_event(state, Event("load", app="a", rho=F(99)))
        assert multi["a"].period_target == 99
        assert drained == frozenset()


class TestReplan:
    @pytest.mark.parametrize("event", [None, Event("noop")])
    def test_noop_is_bit_for_bit(self, event):
        # Property (over several incumbents): no event, no migration —
        # the incumbent's very mapping object comes back.
        for seed in (1, 2, 3):
            report = replay(
                flash_crowd_trace(6, seed=seed), Platform.homogeneous(3),
                compare_cold=False,
            )
            state = report.final
            result = replan(state, event, budget=None)
            assert result.noop
            assert result.state.mapping is state.mapping
            assert result.moved == () and result.migration_cost == 0

    def test_admit_places_without_moving_survivors(self):
        state = admitted_state()
        before = dict(state.mapping.items())
        result = replan(
            state, Event("admit", app="b", workload="chain:n=3", rho=F(60)),
            budget=0,
        )
        assert sorted(result.admitted) == ["b.C0", "b.C1", "b.C2"]
        assert result.moved == () and result.forced == ()
        after = dict(result.state.mapping.items())
        assert {s: after[s] for s in before} == before

    def test_budget_bounds_voluntary_moves(self):
        platform = Platform.homogeneous(3)
        for budget in (0, 1, 2):
            report = replay(
                flash_crowd_trace(8, seed=5), platform,
                budget=budget, compare_cold=False,
            )
            for step in report.steps:
                # Feasibility overrides the budget — only the cold
                # fallback may exceed it.
                assert step.warm_moved <= budget or step.fallback

    def test_drain_forces_evacuation(self):
        state = admitted_state(Platform.homogeneous(2))
        victims = {
            svc for svc in state.multi.combined_graph.nodes
            if state.mapping.server(svc) == "S1"
        }
        assert victims  # fig1 on two servers always uses both
        result = replan(state, Event("drain", servers=("S1",)), budget=0)
        assert set(result.forced) == victims
        assert result.moved == ()
        assert result.state.drained == frozenset({"S1"})
        assert all(
            server == "S2" for _, server in result.state.mapping.items()
        )
        assert result.migration_cost > 0
        restored = replan(result.state, Event("restore", servers=("S1",)))
        assert restored.state.drained == frozenset()

    def test_evict_to_empty(self):
        state = admitted_state()
        result = replan(state, Event("evict", app="a"))
        assert result.feasible and result.value == 0
        assert len(result.state.multi) == 0
        assert dict(result.state.mapping.items()) == {}

    def test_never_infeasible_when_cold_is(self):
        # Property: whenever the from-scratch solve finds a feasible
        # mapping, the warm repair (fallback included) is feasible too.
        for seed in (2, 9):
            report = replay(
                flash_crowd_trace(8, seed=seed), Platform.homogeneous(3),
                budget=1,
            )
            for step in report.steps:
                if step.cold_feasible:
                    assert step.warm_feasible

    def test_migration_sizes_price_selectivity(self):
        state = admitted_state()
        sizes = migration_sizes(state.multi.combined_graph)
        assert set(sizes) == set(state.multi.combined_graph.nodes)
        assert all(size > 0 for size in sizes.values())


# ---------------------------------------------------------------------------
# The contention gate, audited per caller
# ---------------------------------------------------------------------------

class TestContentionGate:
    def test_incremental_shared_costs_refuses_contended_trees(self):
        platform = tree_platform()
        multi = load_concurrent_workload("chain:n=3").multi
        mapping = greedy_shared_mapping(multi.combined_graph, platform)
        with pytest.raises(ValueError, match="contended"):
            IncrementalSharedCosts(multi.combined_graph, platform, mapping)

    def test_placement_evaluator_dispatches_to_full_costs(self):
        platform = tree_platform()
        multi = load_concurrent_workload("chain:n=3").multi
        mapping = greedy_shared_mapping(multi.combined_graph, platform)
        for shared in (True, False):
            evaluator = placement_evaluator(
                multi.combined_graph, platform, mapping, shared=shared
            )
            assert isinstance(evaluator, FullPlacementCosts)

    def test_optimize_shared_mapping_exhaustive_branch(self):
        # 3 services on 4 servers: 64 mappings, the exhaustive scan must
        # score them through the contention-aware exact model.
        platform = tree_platform()
        graph = load_concurrent_workload("chain:n=3").multi.combined_graph
        value, mapping = optimize_shared_mapping(
            graph, CommModel.OVERLAP, platform, weights=None
        )
        assert value == exact_placement_value(
            graph, platform, mapping, model=CommModel.OVERLAP, shared=True
        )

    def test_optimize_shared_mapping_local_search_branch(self):
        # 5 services on 4 servers: 1024 mappings > the 512 exhaustive
        # limit, so the greedy-seed + local-search path runs — through
        # FullPlacementCosts, not the raising incremental evaluator.
        platform = tree_platform()
        graph = load_concurrent_workload("chain:n=5").multi.combined_graph
        value, mapping = optimize_shared_mapping(
            graph, CommModel.OVERLAP, platform, weights=None
        )
        assert value == exact_placement_value(
            graph, platform, mapping, model=CommModel.OVERLAP, shared=True
        )

    def test_cold_solve_under_drain_on_contended_tree(self):
        platform = tree_platform()
        multi = load_concurrent_workload("chain:n=3").multi
        drained = frozenset({platform.names[0]})
        value, mapping = cold_solve(multi, platform, drained=drained)
        assert platform.names[0] not in dict(mapping.items()).values()
        assert value == exact_placement_value(
            multi.combined_graph, platform, mapping,
            model=CommModel.OVERLAP, shared=True,
        )

    def test_replan_maintenance_on_contended_tree(self):
        platform = tree_platform()
        state = admitted_state(platform, workload="chain:n=3", rho=F(60))
        for event in maintenance_trace(platform):
            victims = {
                svc for svc, server in state.mapping.items()
                if server in event.servers
            } if event.kind == "drain" else set()
            result = replan(state, event, budget=1)
            state = result.state
            occupied = set(dict(state.mapping.items()).values())
            assert not occupied & state.drained
            assert set(result.forced) == victims
        assert state.drained == frozenset()


class TestCertifiedRepairOnContendedTree:
    """The batched, certificate-gated repair decides exactly like the
    all-Fraction tier, event by event, on a contended two-rack tree."""

    #: (workload, rho) of each admitted application.
    APPS = {
        "a": ("chain:n=3,seed=11", F(63)),
        "b": ("star:leaves=3,seed=12", F(78)),
        "c": ("fig1", F(84)),
        "d": ("forkjoin:branches=2,seed=13", F(70)),
        "e": ("chain:n=3,seed=14", F(59)),
        "f": ("star:leaves=3,seed=15", F(81)),
    }

    def _trace(self, racks):
        admit = [
            Event("admit", app=name, workload=spec, rho=rho)
            for name, (spec, rho) in self.APPS.items()
        ]
        return [
            *admit[:4],
            Event("evict", app="a"),
            admit[4],
            Event("load", app="b", rho=F(66)),
            Event("drain", servers=racks[0]),
            Event("evict", app="c"),
            admit[5],
            Event("load", app="d", rho=F(91)),
            Event("restore", servers=racks[0]),
            Event("drain", servers=racks[1]),
            # Infeasible after repair on the one live rack: the cold
            # fallback (itself a drained-server repair) takes over.
            Event("load", app="d", rho=F(30)),
            Event("evict", app="b"),
            Event("restore", servers=racks[1]),
        ]

    def _churn(self, racks):
        """A short list shaped like the benchmark's churn: four live
        applications, evictions (oldest first) alternating with
        admissions, a re-target, and one rack drained and restored."""
        admit = {
            name: Event("admit", app=name, workload=spec, rho=rho)
            for name, (spec, rho) in self.APPS.items()
        }
        return [
            admit["a"], admit["b"], admit["c"], admit["d"],
            Event("evict", app="a"),
            admit["e"],
            Event("load", app="c", rho=F(66)),
            Event("evict", app="b"),
            Event("drain", servers=racks[0]),
            admit["f"],
            Event("evict", app="c"),
            Event("restore", servers=racks[0]),
        ]

    def _replay(self, platform, exactness, *, trace=None,
                model=CommModel.OVERLAP):
        state = initial_state([], platform=platform, model=model)
        outcomes = []
        trace = trace or self._trace
        for event in trace([m for _, m in platform.topology.groups()]):
            result = replan(state, event, budget=2, exactness=exactness)
            state = result.state
            outcomes.append((
                sorted(result.mapping.items()), result.moved, result.forced,
                result.fallback, result.feasible, result.value,
            ))
        return outcomes

    def test_certified_equals_exact_at_every_event(self, monkeypatch):
        platform = load_platform("tree:racks=2,servers=4")
        assert platform.has_contention
        exact = self._replay(platform, "exact")
        calls = {"moves": 0, "priced": 0, "settle": 0, "full": 0}
        score_moves = FullPlacementCosts.score_moves
        prices = FullPlacementCosts._prices
        settle = FullPlacementCosts._settle
        full = FullPlacementCosts._exact_value

        def counted_moves(self, kind, moves, **kwargs):
            calls["moves"] += len(moves)
            return score_moves(self, kind, moves, **kwargs)

        def counted_prices(self, kind, moves):
            calls["priced"] += len(moves)
            return prices(self, kind, moves)

        def counted_settle(self, *args, **kwargs):
            calls["settle"] += 1
            return settle(self, *args, **kwargs)

        def counted_full(self, *args, **kwargs):
            calls["full"] += 1
            return full(self, *args, **kwargs)

        monkeypatch.setattr(FullPlacementCosts, "score_moves", counted_moves)
        monkeypatch.setattr(FullPlacementCosts, "_prices", counted_prices)
        monkeypatch.setattr(FullPlacementCosts, "_settle", counted_settle)
        monkeypatch.setattr(FullPlacementCosts, "_exact_value", counted_full)
        certified = self._replay(platform, None)
        for k, (want, got) in enumerate(zip(exact, certified)):
            assert got == want, k
        assert any(moved for _m, moved, *_rest in exact)
        assert any(forced for _m, _v, forced, *_rest in exact)
        assert any(fallback for _m, _v, _f, fallback, *_rest in exact)
        # Most candidate moves leave a compute-bound bottleneck server
        # untouched, so the floor answers them without a float price; the
        # near-ties among the rest really were settled exactly.
        assert 2 * calls["priced"] < calls["moves"]
        assert calls["settle"] >= calls["full"] > 0

    @pytest.mark.parametrize("spec", [
        "tree:racks=2,servers=4", "torus:dims=2x3,bw=1/2",
    ])
    @pytest.mark.parametrize("model", list(CommModel))
    def test_floor_gate_changes_no_decision(self, spec, model, monkeypatch):
        # The same decisions with the floor gate on, with it off (an
        # always-empty floor set) and on the all-Fraction tier.
        platform = load_platform(spec)
        for trace in (self._trace, self._churn):
            gated = self._replay(platform, None, trace=trace, model=model)
            exact = self._replay(platform, "exact", trace=trace, model=model)
            with monkeypatch.context() as patch:
                refresh = FullPlacementCosts._refresh

                def floorless(self):
                    refresh(self)
                    self._floor = frozenset()

                patch.setattr(FullPlacementCosts, "_refresh", floorless)
                ungated = self._replay(
                    platform, None, trace=trace, model=model
                )
            for k, (want, got, off) in enumerate(zip(exact, gated, ungated)):
                assert got == want == off, (trace.__name__, k)


# ---------------------------------------------------------------------------
# replay + CLI
# ---------------------------------------------------------------------------

class TestReplay:
    def test_aggregates_and_timeline(self):
        report = replay(flash_crowd_trace(8, seed=5), Platform.homogeneous(3))
        assert len(report.steps) == 8
        aggregates = report.aggregates()
        assert aggregates["events"] == 8
        assert aggregates["mean_period_ratio"] >= 1.0 or \
            aggregates["mean_period_ratio"] is None
        assert report.total_cold_moves is not None
        table = report.summary_table()
        assert "ratio" in table and "cold mv" in table
        payload = report.as_dict()
        assert len(payload["timeline"]) == 8

    def test_without_cold_baseline(self):
        report = replay(
            flash_crowd_trace(6, seed=5), Platform.homogeneous(3),
            compare_cold=False,
        )
        assert report.mean_period_ratio is None
        assert report.total_cold_moves is None
        assert all(s.cold_period is None for s in report.steps)


class TestReplayCLI:
    def test_text_output(self, capsys):
        assert cli_main(
            ["replay", "flash:n=6,seed=1", "--platform", "hom:n=3",
             "--budget", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "admit crowd0" in out
        assert "move_ratio" in out

    def test_json_output(self, capsys):
        assert cli_main(
            ["replay", "flash:n=6,seed=1", "--platform", "hom:n=3",
             "--no-cold", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["aggregates"]["events"] == 6
        assert len(payload["timeline"]) == 6

    def test_save_csv(self, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert cli_main(
            ["replay", "flash:n=6,seed=1", "--platform", "hom:n=3",
             "--no-cold", "--save-csv", str(path)]
        ) == 0
        capsys.readouterr()
        assert ScenarioTrace.load_csv(path) == flash_crowd_trace(6, seed=1)

    def test_error_paths_return_2(self, capsys):
        assert cli_main(
            ["replay", "tsunami:n=3", "--platform", "hom:n=3"]
        ) == 2
        assert cli_main(
            ["replay", "maint:dwell=4", "--platform", "hom:n=3"]
        ) == 2
        err = capsys.readouterr().err
        assert "error:" in err

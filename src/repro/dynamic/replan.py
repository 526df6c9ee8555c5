"""Warm-started bounded repair of an incumbent shared mapping.

A running system holds an *incumbent* — the shared mapping currently
deployed (:class:`DynamicState`).  When an :class:`~repro.dynamic.events.
Event` arrives, :func:`replan` does not re-solve from scratch: it applies
the event to the incumbent, seeds the search from the surviving
assignments, and runs a **bounded repair** — a best-first
reassignment/swap descent priced by the same evaluators the static
planner uses (:func:`~repro.optimize.incremental.placement_evaluator`).
On uncontended platforms those are the ``O(degree)`` deltas of
:class:`~repro.optimize.incremental.IncrementalSharedCosts`, one call
per candidate.  On contended topologies, where one move changes every
co-routed edge's bandwidth, :class:`~repro.optimize.incremental.
FullPlacementCosts` takes each scan's whole neighbourhood — every
admissible reassignment, then every swap, then every walk-home move.  A
reassignment or swap that leaves a compute-bound bottleneck server's
services in place cannot lower the value (that server's ``Ccomp`` alone
is the value), so it is rejected unpriced; the rest are priced in one
batched float call, and only the candidates that could win are settled
exactly (bit-for-bit the all-``Fraction`` decisions; see
``docs/performance.md``).  Candidates are scored lexicographically by
``(objective value, total migration cost)``: among equally good moves the
repair prefers the one that ships the least state, where a move's state
is priced as ``ancestor_selectivity * cost`` shipped over the
:meth:`Platform.bandwidth() <repro.core.Platform.bandwidth>` route
between the incumbent and the new server.

**Migration budget.**  ``budget`` bounds the number of *distinct
voluntary* migrations — services that existed before the event and end
up off their incumbent server.  Forced moves (services evacuated off a
drained server) and placements of newly admitted services do not consume
budget: the event leaves no choice there.  A service moved back onto its
incumbent server stops counting.  ``budget=None`` is unlimited,
``budget=0`` allows only the forced moves.

**Feasibility overrides the budget.**  If the repaired mapping violates
a period target (max utilisation > 1) the re-planner falls back to a
cold constrained solve; when that cold solve is feasible, its mapping is
adopted even if it moves more services than the budget allows — a
missed rho target is an SLA breach, extra migrations are not.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from ..concurrent import ConcurrentApp, ConcurrentCosts, MultiApplication
from ..core import CommModel, Exactness, Mapping, Platform
from ..core.costs import GraphArrays, exact_num
from ..optimize.incremental import placement_evaluator
from ..optimize.placement import greedy_shared_mapping, optimize_shared_mapping
from .events import Event

ZERO = Fraction(0)

#: Ceiling on repair rounds (each round applies one move) — a backstop
#: against pathological plateaus, far above any real repair.
MAX_ROUNDS = 400


@dataclass
class DynamicState:
    """The incumbent: who is running where, and which servers are out."""

    multi: MultiApplication
    platform: Platform
    mapping: Mapping
    model: CommModel = CommModel.OVERLAP
    drained: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        self.drained = frozenset(self.drained)
        unknown = sorted(self.drained - set(self.platform.names))
        if unknown:
            raise ValueError(f"drained servers not on the platform: {unknown}")
        self.mapping.validate_on(self.multi.combined_graph.nodes, self.platform)

    @property
    def allowed_servers(self) -> Tuple[str, ...]:
        return tuple(
            n for n in self.platform.names if n not in self.drained
        )

    def costs(self) -> ConcurrentCosts:
        return ConcurrentCosts(
            self.multi, self.platform, self.mapping, model=self.model
        )

    def objective(self) -> str:
        return (
            "utilisation" if self.multi.weights() is not None else "period"
        )

    def summary(self) -> Dict[str, object]:
        """JSON-friendly snapshot (the serve ``replan`` op's result)."""
        readout = self.costs()
        weights = self.multi.weights()
        util = readout.max_utilisation() if weights is not None else None
        return {
            "applications": list(self.multi.names),
            "services": self.multi.total_services,
            "objective": self.objective(),
            "system_period": str(readout.system_period()),
            "utilisation": str(util) if util is not None else None,
            "feasible": readout.is_feasible(),
            "drained": sorted(self.drained),
            "mapping": dict(self.mapping.items()),
        }


@dataclass
class ReplanResult:
    """One :func:`replan` outcome: the new incumbent plus move accounting.

    ``moved`` are the *voluntary* migrations (surviving services the
    repair chose to relocate), ``forced`` the evacuations off drained
    servers; ``migration_cost`` prices both.  ``fallback`` flags that the
    budget-bounded repair was infeasible and the cold constrained solve
    was adopted instead.  A ``noop`` result carries the incumbent's very
    mapping object — bit-for-bit stability.
    """

    state: DynamicState
    event: Optional[Event]
    value: Fraction
    feasible: bool
    moved: Tuple[str, ...] = ()
    forced: Tuple[str, ...] = ()
    admitted: Tuple[str, ...] = ()
    migration_cost: Fraction = ZERO
    fallback: bool = False
    noop: bool = False
    wall: float = 0.0

    @property
    def mapping(self) -> Mapping:
        return self.state.mapping

    def as_dict(self) -> Dict[str, object]:
        payload = self.state.summary()
        payload.update({
            "event": self.event.as_dict() if self.event is not None else None,
            "value": str(self.value),
            "moved": sorted(self.moved),
            "forced": sorted(self.forced),
            "admitted": sorted(self.admitted),
            "migration_cost": str(self.migration_cost),
            "fallback": self.fallback,
            "noop": self.noop,
            "wall_ms": round(self.wall * 1000, 3),
        })
        return payload


def initial_state(
    problem,
    *,
    platform,
    targets=None,
    model: CommModel = CommModel.OVERLAP,
    exactness=None,
) -> DynamicState:
    """Bootstrap an incumbent by solving the initial snapshot cold.

    *problem*/*platform*/*targets* as in
    :func:`~repro.planner.solve_concurrent` (specs or objects); an empty
    member list bootstraps the empty system every trace can start from.
    """
    from ..planner.concurrent import solve_concurrent

    result = solve_concurrent(
        problem, platform=platform, model=model, targets=targets,
        exactness=exactness,
    )
    return DynamicState(
        multi=result.multi,
        platform=result.platform,
        mapping=result.mapping,
        model=result.model,
    )


def migration_sizes(graph) -> Dict[str, Fraction]:
    """Per-service state size: ``ancestor_selectivity * cost``.

    The proxy for how much state a service ships when it migrates — the
    same platform-independent work volume the LPT seed balances (a
    service's in-flight buffers and operator state scale with the work it
    performs per data set).
    """
    sizes = GraphArrays(graph, exact_num)
    return dict(zip(sizes.names, sizes.work))


def _migration_cost(
    platform: Platform,
    sizes: Dict[str, Fraction],
    baseline: Dict[str, str],
    assignment: Dict[str, str],
) -> Fraction:
    """Total state shipped from incumbent to new servers, route-priced."""
    total = ZERO
    for svc, origin in baseline.items():
        dest = assignment.get(svc)
        if dest is None or dest == origin:
            continue
        total += sizes[svc] / platform.bandwidth(origin, dest)
    return total


def _provably_infeasible(
    sizes: Dict[str, Fraction],
    weights: Dict[str, Fraction],
    platform: Platform,
    allowed: Sequence[str],
) -> bool:
    """Pigeonhole certificate: no mapping onto *allowed* can be feasible.

    ``sum_u speed_u * util_u >= sum_svc w * work_svc`` for every mapping
    (utilisation is at least its compute component), so when total
    weighted work exceeds the allowed servers' total speed, the max
    utilisation exceeds 1 everywhere — the cold-solve fallback cannot
    rescue feasibility and is skipped.
    """
    total_work = sum(
        (sizes[svc] * weights.get(svc, Fraction(1)) for svc in sizes), ZERO
    )
    total_speed = sum((platform.speed(u) for u in allowed), ZERO)
    return total_work > total_speed


def apply_event(
    state: DynamicState, event: Event
) -> Tuple[MultiApplication, FrozenSet[str]]:
    """The pure state transition: (new multi, new drained set).

    Raises ``ValueError`` on impossible transitions (admitting a live
    name, evicting or re-targeting an unknown one, draining servers not
    on the platform, draining everything).
    """
    multi, drained = state.multi, state.drained
    if event.kind == "noop":
        return multi, drained
    if event.kind == "admit":
        if event.app in multi.names:
            raise ValueError(f"application {event.app!r} is already running")
        members = list(multi.members)
        members.append(
            ConcurrentApp(event.app, event.resolve_graph(), event.rho)
        )
        return MultiApplication(members), drained
    if event.kind in ("evict", "load"):
        if event.app not in multi.names:
            raise ValueError(f"no running application named {event.app!r}")
        members = []
        for app in multi.members:
            if app.name == event.app:
                if event.kind == "evict":
                    continue
                members.append(
                    ConcurrentApp(app.name, app.graph, event.rho)
                )
            else:
                members.append(app)
        return MultiApplication(members), drained
    # drain / restore
    unknown = sorted(set(event.servers) - set(state.platform.names))
    if unknown:
        raise ValueError(f"cannot {event.kind} unknown server(s): {unknown}")
    if event.kind == "drain":
        new_drained = drained | set(event.servers)
        if len(new_drained) >= len(state.platform.names):
            raise ValueError(
                "draining every server leaves nowhere to run; restore "
                "something first"
            )
        return multi, frozenset(new_drained)
    return multi, drained - set(event.servers)


def _scores(evaluator, kind: str, moves, *, ties: bool = False):
    """Scores of *moves* in scan order: one batched neighbourhood call
    where the evaluator prices in bulk (contended topologies), else one
    lazy call per move."""
    bulk = getattr(evaluator, "score_moves", None)
    if bulk is not None:
        return bulk(kind, moves, ties=ties)
    score = evaluator.score_reassign if kind == "reassign" else evaluator.score_swap
    return (score(*move) for move in moves)


def _repair_search(
    graph,
    platform: Platform,
    evaluator,
    allowed: Sequence[str],
    *,
    baseline: Dict[str, str],
    forced: FrozenSet[str],
    sizes: Dict[str, Fraction],
    budget: Optional[int],
    max_rounds: int = MAX_ROUNDS,
) -> None:
    """Best-first bounded repair, mutating *evaluator* in place.

    Each round scans every admissible reassignment and cross-server swap,
    scores the improving ones by ``(value after, total migration cost
    after)`` and applies the lexicographic best (the first in scan order
    on ties); stops when no admissible move improves the objective.
    Admissible means the move keeps the number of distinct voluntary
    migrations (vs. *baseline*, minus *forced*) within *budget* and
    targets only *allowed* servers.  Each scan hands its whole
    neighbourhood to the evaluator at once, so a
    :class:`~repro.optimize.incremental.FullPlacementCosts` prices it in
    one batched call and settles only the near-ties exactly.

    With an empty *baseline* and no budget this degenerates to a plain
    constrained local search — the cold-solve path under drains reuses it.
    """
    allowed = tuple(allowed)
    services = sorted(graph.nodes)
    if not services:
        return

    def mig_of(svc: str, dest: str) -> Fraction:
        """State shipped for *svc* sitting on *dest* (0 if at home)."""
        origin = baseline.get(svc)
        if origin is None or origin == dest:
            return ZERO
        return sizes[svc] / platform.bandwidth(origin, dest)

    def vol_of(svc: str, dest: str) -> int:
        """1 if *svc* on *dest* is a voluntary migration, else 0."""
        origin = baseline.get(svc)
        if origin is None or svc in forced:
            return 0
        return 1 if origin != dest else 0

    value = evaluator.value()
    for _round in range(max_rounds):
        assignment = evaluator.assignment
        mig_now = sum(
            (mig_of(svc, assignment[svc]) for svc in baseline), ZERO
        )
        vol_now = sum(vol_of(svc, assignment[svc]) for svc in baseline)
        best = None  # (trial value, migration after, kind, payload)
        reassigns = [
            (svc, server)
            for svc in services
            for server in allowed
            if server != assignment[svc]
            and (
                budget is None
                or vol_now - vol_of(svc, assignment[svc]) + vol_of(svc, server)
                <= budget
            )
        ]
        for (svc, server), trial_value in zip(
            reassigns, _scores(evaluator, "reassign", reassigns)
        ):
            if not trial_value < value:
                continue
            mig = mig_now - mig_of(svc, assignment[svc]) + mig_of(svc, server)
            cand = (trial_value, mig, "reassign", (svc, server))
            if best is None or cand[:2] < best[:2]:
                best = cand
        if best is None:
            # Swaps are the escape hatch when no single reassignment
            # improves — scanning the O(n^2) pair space every round would
            # dominate the repair wall for nothing.  Same-server swaps
            # are shared-space no-ops.
            swaps = [
                (a, b)
                for i, a in enumerate(services)
                for b in services[i + 1:]
                if assignment[a] in allowed
                and assignment[b] in allowed
                and assignment[a] != assignment[b]
                and (
                    budget is None
                    or vol_now
                    - vol_of(a, assignment[a]) - vol_of(b, assignment[b])
                    + vol_of(a, assignment[b]) + vol_of(b, assignment[a])
                    <= budget
                )
            ]
            for (a, b), trial_value in zip(
                swaps, _scores(evaluator, "swap", swaps)
            ):
                if not trial_value < value:
                    continue
                ha, hb = assignment[a], assignment[b]
                mig = (
                    mig_now
                    - mig_of(a, ha) - mig_of(b, hb)
                    + mig_of(a, hb) + mig_of(b, ha)
                )
                cand = (trial_value, mig, "swap", (a, b))
                if best is None or cand[:2] < best[:2]:
                    best = cand
        if best is None:
            # Objective-neutral migration clean-up: a service already off
            # its incumbent server may walk home for free (same value,
            # strictly less state shipped).  The first such move wins.
            homes = [
                (svc, origin)
                for svc, origin in baseline.items()
                if svc not in forced
                and assignment.get(svc, origin) != origin
                and origin in allowed
            ]
            for move, trial_value in zip(
                homes, _scores(evaluator, "reassign", homes, ties=True)
            ):
                if not value < trial_value:
                    best = (trial_value, ZERO, "reassign", move)
                    break
        if best is None:
            break
        _value, _mig, kind, payload = best
        if kind == "reassign":
            evaluator.apply_reassign(*payload)
        else:
            evaluator.apply_swap(*payload)
        value = evaluator.value()


def cold_solve(
    multi: MultiApplication,
    platform: Platform,
    *,
    drained: FrozenSet[str] = frozenset(),
    model: CommModel = CommModel.OVERLAP,
    exactness=None,
) -> Tuple[Fraction, Mapping]:
    """From-scratch constrained solve of one snapshot (no incumbent).

    Without drains this is exactly
    :func:`~repro.optimize.placement.optimize_shared_mapping` (memoised);
    with drains it runs the same greedy-seed + local-search pipeline
    restricted to the allowed servers.
    """
    exactness = Exactness.coerce(exactness)
    graph = multi.combined_graph
    weights = multi.weights()
    if not drained:
        return optimize_shared_mapping(
            graph, model, platform, weights=weights, exactness=exactness
        )
    allowed = tuple(n for n in platform.names if n not in drained)
    if not allowed:
        raise ValueError("every server is drained")
    if not graph.nodes:
        return ZERO, Mapping.shared({})
    seed = greedy_shared_mapping(
        graph, platform, weights=weights, allowed=allowed
    )
    evaluator = placement_evaluator(
        graph, platform, seed, model=model, weights=weights,
        shared=True, exactness=exactness,
    )
    _repair_search(
        graph, platform, evaluator, allowed,
        baseline={}, forced=frozenset(), sizes={}, budget=None,
    )
    value = evaluator.value()
    return Fraction(value), evaluator.mapping()


def _seed_assignment(
    old_assignment: Dict[str, str],
    graph,
    platform: Platform,
    allowed: Sequence[str],
    weights,
) -> Tuple[Mapping, Tuple[str, ...], Tuple[str, ...]]:
    """Warm seed: keep survivors, LPT-place newcomers and evacuees.

    Returns ``(mapping, forced, admitted)`` where *forced* are the
    surviving services whose incumbent server is no longer allowed.
    """
    seed = greedy_shared_mapping(
        graph, platform, weights=weights, allowed=allowed, keep=old_assignment
    )
    forced = tuple(
        s for s in graph.nodes
        if s in old_assignment and old_assignment[s] not in allowed
    )
    admitted = tuple(s for s in graph.nodes if s not in old_assignment)
    return seed, forced, admitted


def replan(
    state: DynamicState,
    event: Optional[Event],
    *,
    budget: Optional[int] = None,
    exactness=None,
    max_rounds: int = MAX_ROUNDS,
) -> ReplanResult:
    """Apply *event* to the incumbent *state* with warm-started repair.

    See the module docstring for the budget and fallback semantics.  A
    ``None`` (or ``noop``) event returns the incumbent bit-for-bit —
    re-planning is event-driven, and no event means no migration.
    """
    started = _time.perf_counter()
    if event is None or event.kind == "noop":
        readout = state.costs()
        weights = state.multi.weights()
        value = (
            readout.max_utilisation()
            if weights is not None
            else readout.system_period()
        )
        return ReplanResult(
            state=state, event=event, value=value,
            feasible=readout.is_feasible(), noop=True,
            wall=_time.perf_counter() - started,
        )

    multi, drained = apply_event(state, event)
    platform = state.platform
    allowed = tuple(n for n in platform.names if n not in drained)
    graph = multi.combined_graph
    weights = multi.weights()
    old_nodes = set(state.multi.combined_graph.nodes)
    baseline = {
        svc: state.mapping.server(svc)
        for svc in graph.nodes
        if svc in old_nodes
    }

    if not graph.nodes:
        new_state = DynamicState(
            multi=multi, platform=platform, mapping=Mapping.shared({}),
            model=state.model, drained=drained,
        )
        return ReplanResult(
            state=new_state, event=event, value=ZERO, feasible=True,
            wall=_time.perf_counter() - started,
        )

    sizes = migration_sizes(graph)
    seed, forced, admitted = _seed_assignment(
        baseline, graph, platform, allowed, weights
    )
    evaluator = placement_evaluator(
        graph, platform, seed, model=state.model,
        weights=weights, shared=True, exactness=Exactness.coerce(exactness),
    )
    _repair_search(
        graph, platform, evaluator, allowed,
        baseline=baseline, forced=frozenset(forced), sizes=sizes,
        budget=budget, max_rounds=max_rounds,
    )
    chosen = evaluator.mapping()

    new_state = DynamicState(
        multi=multi, platform=platform, mapping=chosen,
        model=state.model, drained=drained,
    )
    readout = new_state.costs()
    fallback = False
    if (
        weights is not None
        and not readout.is_feasible()
        and not _provably_infeasible(sizes, weights, platform, allowed)
    ):
        # Feasibility overrides the migration budget: adopt the cold
        # constrained solve whenever it satisfies the targets.
        _cold_value, cold_mapping = cold_solve(
            multi, platform, drained=drained, model=state.model,
            exactness=exactness,
        )
        cold_readout = ConcurrentCosts(
            multi, platform, cold_mapping, model=state.model
        )
        if cold_readout.is_feasible():
            chosen = cold_mapping
            new_state = DynamicState(
                multi=multi, platform=platform, mapping=chosen,
                model=state.model, drained=drained,
            )
            readout = cold_readout
            fallback = True

    final = {svc: chosen.server(svc) for svc in graph.nodes}
    moved = tuple(
        sorted(
            svc
            for svc, origin in baseline.items()
            if final[svc] != origin and svc not in forced
        )
    )
    value = (
        readout.max_utilisation()
        if weights is not None
        else readout.system_period()
    )
    return ReplanResult(
        state=new_state,
        event=event,
        value=value,
        feasible=readout.is_feasible(),
        moved=moved,
        forced=forced,
        admitted=admitted,
        migration_cost=_migration_cost(platform, sizes, baseline, final),
        fallback=fallback,
        wall=_time.perf_counter() - started,
    )


__all__ = [
    "DynamicState",
    "MAX_ROUNDS",
    "ReplanResult",
    "apply_event",
    "cold_solve",
    "initial_state",
    "migration_sizes",
    "replan",
]

"""Service-to-server placement search for heterogeneous platforms.

On the paper's normalised platform every one-to-one assignment of services
to servers is equivalent, so the mapping problem disappears.  With server
speeds and link bandwidths it matters a great deal: putting the expensive
service on the fast server, or keeping a chatty edge off a slow link, can
change both the optimal value *and* the optimal execution graph.  This
module optimises the assignment for a fixed graph:

* :func:`iter_mappings` / :func:`mapping_space_size` — the injective
  assignment space (``P(m, n)`` for ``n`` services on ``m`` servers);
* :func:`greedy_mapping` — heaviest computational work onto the fastest
  server (a communication-blind but strong seed);
* :func:`optimize_mapping` — exhaustive enumeration when the space is
  small, greedy seed plus reassignment/swap local search
  (:func:`~repro.optimize.local_search.placement_local_search`) beyond.

Graph searches compose with this transparently: the planner's objectives
call :func:`optimize_mapping` per candidate graph when the mapping is left
free, turning every solver into a graph × server-assignment search.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from ..core import (
    CommModel,
    Exactness,
    ExecutionGraph,
    Mapping,
    MappingBatch,
    Platform,
)
from ..core.costs import CostAlgebra, GraphArrays, exact_num
from ..core.ttlcache import TTLCache

#: Enumerate all assignments when the space is at most this large.
DEFAULT_EXHAUSTIVE_LIMIT = 720

#: Enumerate all *shared* assignments (``m ** n``) up to this size.
SHARED_EXHAUSTIVE_LIMIT = 512

ONE_WEIGHT = Fraction(1)

#: Memo of ``optimize_mapping`` outcomes — the planner resolves the winning
#: mapping after the cached objective already computed the value, and this
#: table turns that second resolution into a lookup instead of re-running
#: the whole placement search.  The serve daemon solves on executor
#: threads while clearing from its event loop; the cache's lock makes
#: every lookup, insert and clear atomic.
_memo = TTLCache(max_entries=50_000)


def clear_placement_memo() -> None:
    """Drop every memoized :func:`optimize_mapping` outcome.

    :func:`repro.planner.clear_default_cache` calls this too, so resetting
    the planner between benchmark runs or tests also resets the placement
    memo — previously the module-level table survived and could serve
    stale placements (and misleading hit counts) across runs.
    """
    _memo.clear()


def placement_memo_size() -> int:
    """Number of memoized placement outcomes (for tests and diagnostics)."""
    return len(_memo)


def mapping_space_size(n_services: int, n_servers: int) -> int:
    """Number of injective assignments: ``m * (m-1) * ... * (m-n+1)``."""
    if n_services > n_servers:
        return 0
    size = 1
    for k in range(n_servers, n_servers - n_services, -1):
        size *= k
    return size


def iter_mappings(services: Sequence[str], platform: Platform) -> Iterator[Mapping]:
    """All injective assignments of *services* onto the platform's servers."""
    services = tuple(services)
    for combo in itertools.permutations(platform.names, len(services)):
        yield Mapping(dict(zip(services, combo)))


def greedy_mapping(graph: ExecutionGraph, platform: Platform) -> Mapping:
    """Heaviest computational work onto the fastest server.

    Work is the platform-independent ``P_k * c_k`` (the data volume the
    service processes per data set); servers are taken by decreasing speed,
    ties broken by platform order so the result is deterministic.
    """
    platform.require_capacity(len(graph.nodes))
    sizes = GraphArrays(graph, exact_num)
    work = dict(zip(sizes.names, sizes.work))
    services = sorted(graph.nodes, key=lambda n: (-work[n], n))
    servers = sorted(
        platform.servers, key=lambda s: (-s.speed, platform.names.index(s.name))
    )
    return Mapping({svc: srv.name for svc, srv in zip(services, servers)})


def _make_mapping_batch(
    graph: ExecutionGraph,
    kind: str,
    model: CommModel,
    effort,
    platform: Platform,
    *,
    weights=None,
    shared: bool = False,
) -> Optional[MappingBatch]:
    """The placement enumerations' gate: a :class:`~repro.core.MappingBatch`
    for this configuration, or ``None``.

    ``None`` where :func:`~repro.optimize.evaluation.kernel_covers` says
    the per-mapping objective is not the Section-2.1 bound, or when the
    instance overflows float range.
    """
    from .evaluation import kernel_covers

    if not kernel_covers(
        kind, model, effort, shared=shared, forest=graph.is_forest
    ):
        return None
    try:
        return MappingBatch(
            graph, platform, kind=kind, model=model,
            shared=shared, weights=weights,
        )
    except OverflowError:
        return None  # beyond float range: exact tier only


def _scan_placements(
    candidates, exact_score, batch: Optional[MappingBatch], exactness: Exactness
) -> Tuple[Fraction, Mapping]:
    """The exhaustive placement scan, on the tier *exactness* picks.

    Without a *batch* (``EXACT``, no kernel, or a float overflow) every
    candidate is scored exactly by
    :func:`~repro.optimize.exhaustive.scan_best`.  With one, a single
    numpy call prices the whole enumeration (placement spaces on the
    exhaustive branch are a few hundred rows).  ``CERTIFIED`` then
    exact-scores the survivors of
    :class:`~repro.optimize.exhaustive.RunningBest` in enumeration order
    (bit-for-bit the exact scan), and ``FAST`` returns the first float
    minimum's image.
    """
    from .exhaustive import RunningBest, scan_best

    if batch is None:
        value, best, _ = scan_best(candidates, exact_score)
        return value, best
    mappings = list(candidates)
    fast = batch.values(np.stack([batch.encode(m) for m in mappings]))
    if exactness is Exactness.FAST:
        k = int(np.argmin(fast))  # argmin keeps the first minimum
        return Fraction(float(fast[k])), mappings[k]
    best = RunningBest()
    for k, mapping in enumerate(mappings):
        if not best.skips(fast[k]):
            best.offer(mapping, exact_score(mapping))
    return best.result()


def optimize_mapping(
    graph: ExecutionGraph,
    kind: str,
    model: CommModel,
    effort,
    platform: Platform,
    *,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    max_moves: int = 200,
    exactness: Exactness = Exactness.EXACT,
    strategy: str = "auto",
) -> Tuple[Fraction, Mapping]:
    """Best ``(value, mapping)`` of *graph* on *platform* for one objective.

    Enumerates every injective assignment while the space has at most
    *exhaustive_limit* elements (exact); otherwise starts from a seed and
    runs the first-improvement reassignment/swap local search.  *kind* is
    ``"period"`` or ``"latency"``; *model*/*effort* are forwarded to the
    per-mapping objective.

    *strategy* picks the local-search seeding: ``"flat"`` descends once
    from the classic work-onto-speed :func:`greedy_mapping`;
    ``"hierarchical"`` *races* two descents — one from the
    topology-partitioned seed
    (:func:`repro.optimize.hierarchy.hierarchical_seed` — keep chatty
    edges inside a rack/row, respect group capacity) and one from the
    flat seed — and keeps the better result, so it is never worse than
    ``"flat"`` at a bounded constant factor in time; ``"auto"`` (the
    default) behaves as ``"hierarchical"`` exactly when the topology
    exposes more than one locality group.  The exhaustive branch is
    seed-free, so the strategy only matters past *exhaustive_limit*.

    *exactness* picks the numeric tier.  ``CERTIFIED`` prices the whole
    enumeration in one :class:`~repro.core.MappingBatch` call and
    exact-scores only the candidates inside the
    :data:`~repro.core.CERT_EPS` band of the running best — the returned
    pair is bit-for-bit the ``EXACT`` one.  ``FAST`` keeps everything on
    the float tier and returns the float image of the winner's value.
    Where no kernel covers the objective, or the instance overflows a
    float, every tier scans exactly.

    Example (the fast server should host the expensive service)::

        >>> from repro import ExecutionGraph, Platform, make_application
        >>> from repro.core import CommModel
        >>> from repro.optimize.evaluation import Effort
        >>> app = make_application([("A", 1, 1), ("B", 9, 1)])
        >>> graph = ExecutionGraph.empty(app)
        >>> platform = Platform.of(speeds=[1, 3])
        >>> value, mapping = optimize_mapping(
        ...     graph, "period", CommModel.OVERLAP, Effort.HEURISTIC, platform)
        >>> value, mapping.server("B")
        (Fraction(3, 1), 'S2')
    """
    from .evaluation import kernel_covers, latency_objective, period_objective
    from .incremental import placement_evaluator
    from .local_search import placement_local_search

    if kind not in ("period", "latency"):
        raise ValueError(f"kind must be 'period' or 'latency', got {kind!r}")
    if strategy not in ("auto", "flat", "hierarchical"):
        raise ValueError(
            f"strategy must be 'auto', 'flat' or 'hierarchical', got {strategy!r}"
        )
    exactness = Exactness.coerce(exactness)

    memo_key = (
        kind, model, effort, platform.key(), exhaustive_limit, max_moves,
        exactness.memo_tier, strategy, graph.application, graph.edges,
    )
    found = _memo.get(memo_key)
    if found is not None:
        return found

    def score(mapping: Mapping) -> Fraction:
        if kind == "period":
            return period_objective(graph, model, effort, platform, mapping)
        return latency_objective(graph, model, effort, platform, mapping)

    platform.require_capacity(len(graph.nodes))
    space = mapping_space_size(len(graph.nodes), len(platform))
    if space <= exhaustive_limit:
        batch = (
            _make_mapping_batch(graph, kind, model, effort, platform)
            if exactness.uses_float
            else None
        )
        outcome = _scan_placements(
            iter_mappings(graph.nodes, platform), score, batch, exactness
        )
    else:
        use_hierarchy = strategy == "hierarchical" or (
            strategy == "auto" and len(platform.topology.groups()) > 1
        )
        # The hierarchical strategy races the search from *both* seeds and
        # keeps the better result: the partitioned seed wins on locality,
        # the flat greedy on speed exploitation, and first-improvement
        # descent is basin-dependent enough that neither dominates.  The
        # flat leg makes "never worse than flat" a guarantee rather than a
        # tendency, at a bounded constant factor (two descents).
        seeds = []
        if use_hierarchy:
            from .hierarchy import hierarchical_seed

            seeds.append(hierarchical_seed(graph, platform))
        flat_seed = greedy_mapping(graph, platform)
        if not any(s.items() == flat_seed.items() for s in seeds):
            seeds.append(flat_seed)
        use_evaluator = kind == "period" and kernel_covers(
            "period", model, effort
        )
        outcome = None
        for seed in seeds:
            evaluator = None
            if use_evaluator:
                # The Section-2.1 bound *is* this objective (Theorem 1 for
                # OVERLAP; by definition for the bound effort), so moves
                # can be priced by recomputing only the touched servers'
                # costs — on the numeric tier the exactness knob picks.
                evaluator = placement_evaluator(
                    graph, platform, seed, model=model, exactness=exactness
                )
            value, mapping = placement_local_search(
                graph, score, seed, platform, max_moves=max_moves,
                evaluator=evaluator,
            )
            if exactness is Exactness.FAST and evaluator is not None:
                value = Fraction(value)
            if outcome is None or value < outcome[0]:
                outcome = (value, mapping)
    _memo.put(memo_key, outcome)
    return outcome


# ---------------------------------------------------------------------------
# Shared-server placement (concurrent applications)
# ---------------------------------------------------------------------------

def shared_space_size(n_services: int, n_servers: int) -> int:
    """Number of (possibly many-to-one) assignments: ``m ** n``."""
    return n_servers ** n_services


def shared_search_method(
    n_services: int,
    n_servers: int,
    exhaustive_limit: int = SHARED_EXHAUSTIVE_LIMIT,
) -> str:
    """How :func:`optimize_shared_mapping` will solve this instance.

    The single source of truth for the exhaustive-vs-local-search
    dispatch, so result reporting can never drift from the search itself.
    """
    if shared_space_size(n_services, n_servers) <= exhaustive_limit:
        return "shared-exhaustive"
    return "shared-local-search"


def iter_shared_mappings(
    services: Sequence[str], platform: Platform
) -> Iterator[Mapping]:
    """All assignments of *services* to servers, sharing allowed."""
    services = tuple(services)
    for combo in itertools.product(platform.names, repeat=len(services)):
        yield Mapping.shared(dict(zip(services, combo)))


def greedy_shared_mapping(
    graph: ExecutionGraph,
    platform: Platform,
    *,
    weights=None,
    allowed=None,
    keep=None,
) -> Mapping:
    """Bin-packing seed: heaviest (weighted) work onto the least-loaded server.

    Services are taken by decreasing platform-independent work volume
    ``P_k * c_k`` (scaled by *weights* when given — the concurrent
    planner's ``1 / period_target``); each goes to the server whose
    compute load after hosting it is smallest (speeds taken into account,
    ties broken by platform order).  Communication-blind — the local
    search repairs chatty cross-server edges — but a strong LPT-style
    seed for the aggregated load objective.

    *allowed* restricts the candidate servers (the dynamic layer's
    drained-server maintenance scenarios); ``None`` means every server.
    *keep* (service -> server, the re-planning incumbent) pins each listed
    service to its server when that server is allowed; the kept services
    load their servers before the heaviest-first pass places the rest.
    """
    sizes = GraphArrays(graph, exact_num)
    weights = weights or {}
    work = {
        n: w * weights.get(n, ONE_WEIGHT) for n, w in zip(sizes.names, sizes.work)
    }
    services = sorted(graph.nodes, key=lambda n: (-work[n], n))
    order = {name: i for i, name in enumerate(platform.names)}
    candidates = (
        platform.names
        if allowed is None
        else tuple(n for n in platform.names if n in set(allowed))
    )
    if not candidates and services:
        raise ValueError("no allowed server to place services on")
    load = {name: Fraction(0) for name in candidates}
    assignment = {}
    for svc, server in (keep or {}).items():
        if svc in work and server in load:
            assignment[svc] = server
            load[server] += work[svc] / platform.speed(server)
    for svc in services:
        if svc in assignment:
            continue
        best = min(
            candidates,
            key=lambda u: (load[u] + work[svc] / platform.speed(u), order[u]),
        )
        assignment[svc] = best
        load[best] += work[svc] / platform.speed(best)
    return Mapping.shared(assignment)


def optimize_shared_mapping(
    graph: ExecutionGraph,
    model: CommModel,
    platform: Platform,
    *,
    weights=None,
    exhaustive_limit: int = SHARED_EXHAUSTIVE_LIMIT,
    max_moves: int = 400,
    exactness: Exactness = Exactness.EXACT,
) -> Tuple[Fraction, Mapping]:
    """Best ``(value, shared mapping)`` for the aggregated load objective.

    The objective is ``max_u Cexec(u)`` over per-server aggregated
    ``Cin``/``Ccomp``/``Cout`` (weighted by *weights* when given) — the
    steady-state bound of the concurrent-applications regime, exact for
    OVERLAP.  Small spaces (``m ** n <= exhaustive_limit``) are enumerated
    exactly; larger ones start from :func:`greedy_shared_mapping` and run
    the reassignment/swap local search priced by
    :class:`~repro.optimize.incremental.IncrementalSharedCosts` deltas.

    *exactness* as in :func:`optimize_mapping`: ``CERTIFIED`` float-gates
    the scan/search with exact re-scoring inside the eps band (bit-for-bit
    the exact outcome), ``FAST`` stays on the float tier throughout.

    Example (three unit servers, four independent services — the heavy
    one gets a server to itself)::

        >>> from repro import ExecutionGraph, Platform, make_application
        >>> from repro.core import CommModel
        >>> app = make_application(
        ...     [("A", 6, 1), ("B", 2, 1), ("C", 2, 1), ("D", 2, 1)])
        >>> value, mapping = optimize_shared_mapping(
        ...     ExecutionGraph.empty(app), CommModel.OVERLAP,
        ...     Platform.homogeneous(3))
        >>> value, mapping.services_on(mapping.server("A"))
        (Fraction(6, 1), ('A',))
    """
    from .incremental import placement_evaluator
    from .local_search import shared_placement_local_search

    exactness = Exactness.coerce(exactness)
    weight_key = (
        tuple(sorted(weights.items())) if weights else None
    )
    memo_key = (
        "shared", model, weight_key, platform.key(), exhaustive_limit,
        max_moves, exactness.memo_tier, graph.application, graph.edges,
    )
    found = _memo.get(memo_key)
    if found is not None:
        return found

    services = tuple(graph.nodes)
    if not services:
        # The empty system (every application evicted): the one shared
        # mapping is the empty one, loading no server at all.
        outcome = (Fraction(0), Mapping.shared({}))
        _memo.put(memo_key, outcome)
        return outcome
    method = shared_search_method(len(services), len(platform), exhaustive_limit)
    if method == "shared-exhaustive":
        # One exact algebra serves every candidate; contended topologies
        # re-derive each candidate's own contended coefficients.
        algebra = CostAlgebra(GraphArrays(graph, exact_num), platform)
        exact_weights = algebra.weight_list(weights)

        def exact_value(mapping: Mapping) -> Fraction:
            server = [mapping.server(svc) for svc in services]
            return max(
                algebra.assignment_loads(server, model, exact_weights).values()
            )

        batch = (
            _make_mapping_batch(
                graph, "period", model, None, platform,
                weights=weights, shared=True,
            )
            if exactness.uses_float
            else None
        )
        outcome = _scan_placements(
            iter_shared_mappings(services, platform), exact_value, batch,
            exactness,
        )
    else:
        seed = greedy_shared_mapping(graph, platform, weights=weights)
        evaluator = placement_evaluator(
            graph, platform, seed, model=model, weights=weights,
            shared=True, exactness=exactness,
        )
        value, mapping = shared_placement_local_search(
            graph, evaluator, platform, max_moves=max_moves
        )
        if exactness is Exactness.FAST:
            value = Fraction(value)
        outcome = (value, mapping)
    _memo.put(memo_key, outcome)
    return outcome


__all__ = [
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "SHARED_EXHAUSTIVE_LIMIT",
    "clear_placement_memo",
    "greedy_mapping",
    "greedy_shared_mapping",
    "iter_mappings",
    "iter_shared_mappings",
    "mapping_space_size",
    "optimize_mapping",
    "optimize_shared_mapping",
    "placement_memo_size",
    "shared_search_method",
    "shared_space_size",
]

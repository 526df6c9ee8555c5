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
import threading
from collections import OrderedDict
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple

from ..core import (
    CommModel,
    CostModel,
    Exactness,
    ExecutionGraph,
    FloatCosts,
    GraphArrays,
    Mapping,
    Platform,
)

#: Enumerate all assignments when the space is at most this large.
DEFAULT_EXHAUSTIVE_LIMIT = 720

#: Enumerate all *shared* assignments (``m ** n``) up to this size.
SHARED_EXHAUSTIVE_LIMIT = 512

ONE_WEIGHT = Fraction(1)

#: Memo of ``optimize_mapping`` outcomes — the planner resolves the winning
#: mapping after the cached objective already computed the value, and this
#: table turns that second resolution into a lookup instead of re-running
#: the whole placement search.  The serve daemon solves on executor
#: threads while clearing from its event loop, so every lookup-and-promote,
#: insert-and-evict and clear holds ``_memo_lock``.
_MEMO_MAX_ENTRIES = 50_000
_memo: "OrderedDict[tuple, Tuple[Fraction, Mapping]]" = OrderedDict()
_memo_lock = threading.Lock()


def _memo_get(key: tuple) -> Optional[Tuple[Fraction, Mapping]]:
    """The memoized outcome for *key* (promoted to most recent), or None."""
    with _memo_lock:
        found = _memo.get(key)
        if found is not None:
            _memo.move_to_end(key)
        return found


def _memo_put(key: tuple, outcome: Tuple[Fraction, Mapping]) -> None:
    """Memoize *outcome*, evicting the least recently used past the bound."""
    with _memo_lock:
        _memo[key] = outcome
        if len(_memo) > _MEMO_MAX_ENTRIES:
            _memo.popitem(last=False)


def clear_placement_memo() -> None:
    """Drop every memoized :func:`optimize_mapping` outcome.

    :func:`repro.planner.clear_default_cache` calls this too, so resetting
    the planner between benchmark runs or tests also resets the placement
    memo — previously the module-level table survived and could serve
    stale placements (and misleading hit counts) across runs.
    """
    with _memo_lock:
        _memo.clear()


def placement_memo_size() -> int:
    """Number of memoized placement outcomes (for tests and diagnostics)."""
    with _memo_lock:
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
    sizes = CostModel(graph)  # unit platform: exposes the raw work volumes
    services = sorted(
        graph.nodes,
        key=lambda n: (-(sizes.ancestor_selectivity(n) * graph.application.cost(n)), n),
    )
    servers = sorted(
        platform.servers, key=lambda s: (-s.speed, platform.names.index(s.name))
    )
    return Mapping({svc: srv.name for svc, srv in zip(services, servers)})


def _fast_mapping_value(
    graph: ExecutionGraph,
    kind: str,
    model: CommModel,
    effort,
    platform: Platform,
    *,
    weights=None,
    shared: bool = False,
):
    """A per-mapping float scorer, or ``None`` when no kernel applies.

    The kernel covers exactly the configurations whose per-mapping
    objective is a :class:`~repro.core.CostModel` bound (the placement
    analogue of the per-graph rule in
    :func:`repro.optimize.evaluation.make_fast_period_objective`): the
    period bound for OVERLAP or the bound effort, the latency bound for
    non-forests at the bound effort — and *shared* placements always,
    whose (optionally *weights*-scaled) aggregated load is the bound by
    construction.  Forest latency is Algorithm-1 territory.  The flat
    arrays are compiled only once the gate passes and shared by every
    mapping the returned scorer prices; a per-mapping ``None`` (float
    overflow) tells the caller to score exactly.
    """
    from .evaluation import Effort

    if shared or kind == "period":
        covered = (
            shared or model is CommModel.OVERLAP or effort is Effort.BOUND
        )
        latency = False
    else:
        covered = effort is Effort.BOUND and not graph.is_forest
        latency = True
    if not covered:
        return None
    try:
        arrays = GraphArrays(graph)
    except OverflowError:
        return None  # beyond float range: exact tier only

    def scorer(mapping: Mapping):
        try:
            fast = FloatCosts(
                graph, platform, mapping, arrays=arrays, weights=weights
            )
            if latency:
                return fast.latency_lower_bound()
            return fast.period_lower_bound(model)
        except OverflowError:
            return None

    return scorer


def _make_mapping_batch(
    graph: ExecutionGraph,
    kind: str,
    model: CommModel,
    effort,
    platform: Platform,
    *,
    weights=None,
    shared: bool = False,
):
    """A :class:`~repro.core.MappingBatch` for this configuration, or ``None``.

    The batched twin of :func:`_fast_mapping_value`: covered in exactly
    the same configurations, with per-row values bit-for-bit the scalar
    scorer's; ``None`` where the scalar gate would not apply (or numpy is
    missing, or the instance overflows float range).
    """
    from .evaluation import Effort

    if shared or kind == "period":
        covered = shared or model is CommModel.OVERLAP or effort is Effort.BOUND
        batch_kind = "period"
    else:
        covered = effort is Effort.BOUND and not graph.is_forest
        batch_kind = "latency"
    if not covered:
        return None
    try:
        from ..core.batched import MappingBatch
    except ImportError:  # pragma: no cover - numpy-free environments
        return None
    try:
        return MappingBatch(
            graph, platform, kind=batch_kind, model=model,
            shared=shared, weights=weights,
        )
    except OverflowError:
        return None  # beyond float range: exact tier only


def _scan_mappings_batched(
    candidates, batch, exact_score, *, fast_tier: bool = False
):
    """The certified (or FAST) placement scan, float-gated in bulk.

    *candidates* is the full enumeration (materialised — placement spaces
    on the exhaustive branch are a few hundred rows); one numpy call
    prices every row, then survivors are exact-scored in enumeration order
    under the running :func:`~repro.core.certified_threshold` cut exactly
    like :func:`~repro.optimize.exhaustive.scan_best`.  ``fast_tier=True``
    skips exact scoring entirely and returns the first float minimum's
    image — :func:`_fast_scan` semantics.
    """
    import numpy as np

    from ..core import certified_threshold

    mappings = list(candidates)
    rows = np.stack([batch.encode(m) for m in mappings])
    fast = batch.values(rows)
    if fast_tier:
        best = int(np.argmin(fast))  # argmin keeps the first minimum
        return Fraction(float(fast[best])), mappings[best]
    best_val = None
    best_mapping = None
    cut = None
    for k, mapping in enumerate(mappings):
        if cut is not None and fast[k] > cut:
            continue  # provably no better than the incumbent
        val = exact_score(mapping)
        if best_val is None or val < best_val:
            best_val, best_mapping = val, mapping
            try:
                cut = certified_threshold(float(best_val))
            except OverflowError:
                cut = None  # beyond float range: exact scoring only
    assert best_val is not None and best_mapping is not None
    return best_val, best_mapping


def _fast_scan(candidates, fast_score, exact_score):
    """FAST-tier scan: float scores, exact fallback per ``None``, first
    strict minimum wins; the winner's value is the float image."""
    best = None
    best_candidate = None
    for candidate in candidates:
        f = fast_score(candidate) if fast_score is not None else None
        if f is None:
            f = exact_score(candidate)  # no kernel / float overflow
        if best is None or f < best:
            best, best_candidate = f, candidate
    assert best is not None and best_candidate is not None
    return Fraction(best), best_candidate


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

    *exactness* picks the numeric tier.  ``CERTIFIED`` scans candidates on
    the :class:`~repro.core.FloatCosts` kernel and re-scores only the ones
    inside the :data:`~repro.core.CERT_EPS` band of the running best in
    exact ``Fraction``s — the returned pair is bit-for-bit the ``EXACT``
    one.  ``FAST`` keeps everything on the float tier and returns the
    float image of the winner's value.

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
    from .evaluation import Effort, latency_objective, period_objective
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
    found = _memo_get(memo_key)
    if found is not None:
        return found

    def score(mapping: Mapping) -> Fraction:
        if kind == "period":
            return period_objective(graph, model, effort, platform, mapping)
        return latency_objective(graph, model, effort, platform, mapping)

    platform.require_capacity(len(graph.nodes))
    space = mapping_space_size(len(graph.nodes), len(platform))
    if space <= exhaustive_limit:
        from .exhaustive import scan_best

        batch = (
            _make_mapping_batch(graph, kind, model, effort, platform)
            if exactness.uses_float
            else None
        )
        if batch is not None:
            # One numpy call prices the whole space; same gate decisions
            # (and FAST first-minimum rule) as the scalar paths below.
            outcome = _scan_mappings_batched(
                iter_mappings(graph.nodes, platform), batch, score,
                fast_tier=exactness is Exactness.FAST,
            )
        elif exactness is Exactness.FAST:
            fast_score = _fast_mapping_value(
                graph, kind, model, effort, platform
            )
            outcome = _fast_scan(
                iter_mappings(graph.nodes, platform), fast_score, score
            )
        else:
            fast_score = (
                _fast_mapping_value(graph, kind, model, effort, platform)
                if exactness.uses_float
                else None
            )
            # Plain scan (exact) or the certified float-gated scan —
            # scan_best is item-type-agnostic and encodes the gate,
            # cut-update and first-tie rules once for every caller.
            value, best_mapping, _ = scan_best(
                iter_mappings(graph.nodes, platform), score,
                fast_objective=fast_score,
            )
            outcome = (value, best_mapping)
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
        use_evaluator = kind == "period" and (
            model is CommModel.OVERLAP or effort is Effort.BOUND
        )
        batch = (
            _make_mapping_batch(graph, kind, model, effort, platform)
            if not use_evaluator and exactness.uses_float
            else None
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
                evaluator=evaluator, batch=batch,
            )
            if exactness is Exactness.FAST and evaluator is not None:
                value = Fraction(value)
            if outcome is None or value < outcome[0]:
                outcome = (value, mapping)
    _memo_put(memo_key, outcome)
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
    """
    sizes = CostModel(graph)  # unit platform: raw work volumes
    weights = weights or {}
    work = {
        n: sizes.ancestor_selectivity(n)
        * graph.application.cost(n)
        * weights.get(n, ONE_WEIGHT)
        for n in graph.nodes
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
    for svc in services:
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
    from .incremental import IncrementalSharedCosts, placement_evaluator
    from .local_search import shared_placement_local_search

    exactness = Exactness.coerce(exactness)
    weight_key = (
        tuple(sorted(weights.items())) if weights else None
    )
    memo_key = (
        "shared", model, weight_key, platform.key(), exhaustive_limit,
        max_moves, exactness.memo_tier, graph.application, graph.edges,
    )
    found = _memo_get(memo_key)
    if found is not None:
        return found

    services = tuple(graph.nodes)
    if not services:
        # The empty system (every application evicted): the one shared
        # mapping is the empty one, loading no server at all.
        outcome = (Fraction(0), Mapping.shared({}))
        _memo_put(memo_key, outcome)
        return outcome
    method = shared_search_method(len(services), len(platform), exhaustive_limit)
    if method == "shared-exhaustive":
        from .exhaustive import scan_best

        if platform.has_contention:
            # The incremental evaluator refuses contended topologies (its
            # deltas assume static bandwidths); score each candidate from
            # scratch through the contention-aware exact model instead.
            from .incremental import exact_placement_value

            def exact_value(mapping):
                return exact_placement_value(
                    graph, platform, mapping, model=model,
                    weights=weights, shared=True,
                )
        else:
            def exact_value(mapping):
                return IncrementalSharedCosts(
                    graph, platform, mapping, model=model, weights=weights
                ).value()

        batch = (
            _make_mapping_batch(
                graph, "period", model, None, platform,
                weights=weights, shared=True,
            )
            if exactness.uses_float
            else None
        )
        if batch is not None:
            outcome = _scan_mappings_batched(
                iter_shared_mappings(services, platform), batch, exact_value,
                fast_tier=exactness is Exactness.FAST,
            )
        else:
            # The (weighted) aggregated load == the kernel's shared period
            # bound; the flat arrays amortise the mapping-independent work
            # across the whole enumeration.
            fast_value = (
                _fast_mapping_value(
                    graph, "period", model, None, platform,
                    weights=weights, shared=True,
                )
                if exactness.uses_float
                else None
            )
            if exactness is Exactness.FAST:
                outcome = _fast_scan(
                    iter_shared_mappings(services, platform), fast_value,
                    exact_value,
                )
            else:
                value, best_mapping, _ = scan_best(
                    iter_shared_mappings(services, platform), exact_value,
                    fast_objective=fast_value,
                )
                outcome = (value, best_mapping)
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
    _memo_put(memo_key, outcome)
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

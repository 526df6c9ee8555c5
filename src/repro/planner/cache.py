"""Memoized objective evaluation shared by every planner solver.

The forest heuristics (greedy construction, reparenting local search) and
the exhaustive enumerations all evaluate the same period/latency
objectives over execution graphs, and they revisit identical graphs
constantly: local search re-scores the incumbent on every pass, restarts
re-walk earlier neighbourhoods, and ``compare`` runs several methods over
one application.  :class:`EvaluationCache` memoizes those evaluations on a
*canonical* key — the application content (services, costs, selectivities,
precedence) plus the edge set, the communication model, the effort level,
and the **platform fingerprint** (server speeds, link bandwidths and the
service-to-server mapping, or the ``"unit"`` sentinel for the paper's
normalised platform) — so a value computed once is never recomputed,
within a solve or across solves, and a heterogeneous solve can never be
answered from a homogeneous entry (or vice versa).

Keys are content-based, not identity-based: :class:`~repro.core.Application`
and :class:`~repro.core.Service` are frozen dataclasses, so two separately
constructed but identical applications share cache entries.  That matters
for the greedy builder, which evaluates sub-applications created through
``Application.restricted_to``.

Both :class:`EvaluationCache` and the planner service's result cache sit
on :class:`TTLCache` (from :mod:`repro.core.ttlcache`, re-exported here),
a thread-safe LRU store with optional per-entry time-to-live,
hit/miss/eviction/expiration counters (:class:`CacheStats`) and disk
persistence (:meth:`TTLCache.save` / :meth:`TTLCache.load`) — what a
long-running ``python -m repro serve`` daemon needs to stay warm across
requests and restarts without hoarding memory over millions of distinct
workloads.

Example::

    >>> from fractions import Fraction
    >>> from repro import CommModel, ExecutionGraph, make_application
    >>> from repro.planner.cache import EvaluationCache
    >>> cache = EvaluationCache()
    >>> obj = cache.objective("period", CommModel.OVERLAP)
    >>> app = make_application([("A", 4, 1), ("B", 4, 1)])
    >>> graph = ExecutionGraph.chain(app, ["A", "B"])
    >>> obj(graph)
    Fraction(4, 1)
    >>> obj(graph)                      # second call is a cache hit
    Fraction(4, 1)
    >>> (cache.hits, cache.misses)
    (1, 1)
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Optional, Tuple

from ..core import (
    CommModel,
    Exactness,
    ExecutionGraph,
    Mapping,
    Platform,
    platform_fingerprint,
)
from ..core.ttlcache import DEFAULT_MAX_ENTRIES, CacheStats, TTLCache
from ..optimize.evaluation import Effort, latency_objective, period_objective

#: Objective kinds understood by the planner.
OBJECTIVES: Tuple[str, ...] = ("period", "latency")


def graph_key(graph: ExecutionGraph) -> Hashable:
    """Canonical, content-based key for *graph*.

    Two graphs over equal applications (same services, costs,
    selectivities, precedence) with equal edge sets share a key even when
    the :class:`~repro.core.Application` objects are distinct.
    """
    return (graph.application, graph.edges)


def evaluation_key(
    kind: str,
    graph: ExecutionGraph,
    model: CommModel,
    effort: Effort,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    exactness: Exactness = Exactness.EXACT,
) -> Hashable:
    """The full canonical cache key of one objective evaluation.

    Every discriminating input is spelled out explicitly — the objective
    kind, the communication model, the effort level, the exactness tier,
    the platform/mapping fingerprint and the graph content — so no two
    semantically different evaluations can collide:

    * the *model* is part of the key (an INORDER value is never served for
      an OUTORDER query even though both share the one-port bound);
    * the *platform fingerprint* separates every non-unit platform (and
      every distinct mapping on it) from the unit/homogeneous sentinel, so
      a heterogeneous solve can never hit a homogeneous entry;
    * the *exactness* tier keeps ``FAST`` float-image values in their own
      slot, so a fast result is never served to an exact or certified
      caller (or vice versa).

    Two deliberate collapses: the OVERLAP period is exact at every effort
    level (Theorem 1 — the bound is achievable, on any platform), so its
    three effort entries share one slot; and ``CERTIFIED`` values are
    bit-for-bit the ``EXACT`` ones (certification only changes *how*
    searches compute, never *what* an evaluation returns), so those two
    tiers share a slot — the rule lives in
    :attr:`repro.core.Exactness.memo_tier`, shared with the placement
    memo.
    """
    if kind == "period" and model is CommModel.OVERLAP:
        effort = Effort.EXACT
    return (
        kind,
        model.value,
        effort.value,
        exactness.memo_tier,
        platform_fingerprint(platform, mapping),
        graph_key(graph),
    )


class EvaluationCache(TTLCache):
    """Memo table for period/latency objective evaluations.

    A :class:`TTLCache` whose keys are :func:`evaluation_key` tuples and
    whose values are exact :class:`~fractions.Fraction` objective values.
    :meth:`get_or_compute` holds the cache lock across the compute so
    concurrent callers of the same key never duplicate work and the
    hit/miss counters stay exact under threading (objective computations
    are pure Python, so serialising them loses nothing to the GIL).
    """

    def get_or_compute(
        self,
        kind: str,
        graph: ExecutionGraph,
        model: CommModel,
        effort: Effort,
        compute: Callable[[], Fraction],
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
        exactness: Exactness = Exactness.EXACT,
    ) -> Fraction:
        """Return the memoized value for the canonical key, computing once."""
        key = evaluation_key(
            kind, graph, model, effort, platform, mapping, exactness
        )
        with self._lock:
            if key in self._store and not self._expired(key):
                self.hits += 1
                self._store.move_to_end(key)
                return self._store[key]
            if key in self._store:  # present but TTL-lapsed
                self._drop(key)
                self.expirations += 1
            self.misses += 1
            value = compute()
            self._store[key] = value
            if self.ttl is not None:
                self._stamps[key] = self._clock()
            self._enforce_bound()
            return value

    def objective(
        self,
        kind: str,
        model: CommModel,
        effort: Effort = Effort.HEURISTIC,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
        exactness: Exactness = Exactness.EXACT,
    ) -> "CachedObjective":
        """A cached ``graph -> Fraction`` evaluator for *kind* under *model*.

        *kind* is ``"period"`` or ``"latency"``; the returned callable is a
        drop-in :data:`repro.optimize.evaluation.Objective` and keeps its
        own per-instance hit/miss counters (the cache-wide counters keep
        counting too).  Binding a non-unit *platform* with ``mapping=None``
        evaluates the best server assignment per graph (see
        :mod:`repro.optimize.placement`); binding a *mapping* pins it.
        Binding an *exactness* routes the evaluation through that numeric
        tier and keys the memo slot accordingly.
        """
        if kind not in OBJECTIVES:
            raise ValueError(f"unknown objective {kind!r}; expected one of {OBJECTIVES}")
        return CachedObjective(
            self, kind, model, effort, platform, mapping, exactness
        )


class CachedObjective:
    """Callable objective bound to one (kind, model, effort, platform).

    Tracks the hits/misses charged through *this* callable so a solver can
    report per-solve statistics even when the cache is shared.
    """

    __slots__ = (
        "cache", "kind", "model", "effort", "platform", "mapping",
        "exactness", "hits", "misses",
    )

    def __init__(
        self,
        cache: EvaluationCache,
        kind: str,
        model: CommModel,
        effort: Effort,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
        exactness: Exactness = Exactness.EXACT,
    ) -> None:
        self.cache = cache
        self.kind = kind
        self.model = model
        self.effort = effort
        self.platform = platform
        self.mapping = mapping
        self.exactness = Exactness.coerce(exactness)
        self.hits = 0
        self.misses = 0

    @property
    def evaluations(self) -> int:
        """Total objective queries made through this callable."""
        return self.hits + self.misses

    def __call__(self, graph: ExecutionGraph) -> Fraction:
        before = self.cache.misses
        value = self.cache.get_or_compute(
            self.kind,
            graph,
            self.model,
            self.effort,
            lambda: self._compute(graph),
            self.platform,
            self.mapping,
            self.exactness,
        )
        if self.cache.misses == before:
            self.hits += 1
        else:
            self.misses += 1
        return value

    def _compute(self, graph: ExecutionGraph) -> Fraction:
        if self.kind == "period":
            return period_objective(
                graph, self.model, self.effort, self.platform, self.mapping,
                exactness=self.exactness,
            )
        return latency_objective(
            graph, self.model, self.effort, self.platform, self.mapping,
            exactness=self.exactness,
        )


_default_cache = EvaluationCache()


def default_cache() -> EvaluationCache:
    """The process-wide cache used when ``solve(..., cache=None)``."""
    return _default_cache


def clear_default_cache() -> None:
    """Reset every process-wide memo (used between benchmark runs/tests).

    Besides the evaluation cache — whose entries *and* hit/miss/eviction
    counters are reset, so a "cold" run reports cold statistics — this
    also clears the module-level placement memo of
    :mod:`repro.optimize.placement`; otherwise a run after a reset could
    silently reuse stale placement results and report misleading hit
    counts.
    """
    from ..optimize.placement import clear_placement_memo

    _default_cache.clear()
    clear_placement_memo()


__all__ = [
    "CacheStats",
    "CachedObjective",
    "DEFAULT_MAX_ENTRIES",
    "EvaluationCache",
    "OBJECTIVES",
    "TTLCache",
    "clear_default_cache",
    "default_cache",
    "evaluation_key",
    "graph_key",
]

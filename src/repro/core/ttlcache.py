"""A thread-safe LRU key/value store with optional per-entry TTL.

:class:`TTLCache` sits under every long-lived memo in the package: the
planner's :class:`~repro.planner.EvaluationCache`, the serve daemon's
result cache, and the placement memo of :mod:`repro.optimize.placement`.
It lives in :mod:`repro.core` so the optimisers can use it without
importing the planner (which imports them).  :class:`CacheStats` is a
snapshot of its counters.

    >>> cache = TTLCache(max_entries=2)
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> cache.get("a"), cache.get("c")
    (None, 3)
    >>> stats = cache.stats()
    >>> stats.hits, stats.misses, stats.evictions, stats.entries
    (1, 1, 1, 2)
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional

#: Default bound on retained entries (entries are tiny; the bound only
#: protects unbounded exhaustive sweeps from hoarding memory).
DEFAULT_MAX_ENTRIES = 200_000

_MISSING = object()


@dataclass
class CacheStats:
    """A point-in-time snapshot of one :class:`TTLCache`'s counters.

    Attributes
    ----------
    hits / misses:
        Lookups answered from the store vs lookups that found nothing
        (including entries dropped because their TTL had lapsed).
    evictions:
        Entries dropped to honour ``max_entries`` (LRU order).
    expirations:
        Entries dropped because they outlived ``ttl``.
    entries:
        Entries currently stored (expired-but-unread entries count until
        a lookup notices them).
    max_entries / ttl:
        The configured bounds (``None`` = unbounded / no expiry).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    expirations: int = 0
    entries: int = 0
    max_entries: Optional[int] = None
    ttl: Optional[float] = None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "evictions": self.evictions,
            "expirations": self.expirations,
            "entries": self.entries,
            "max_entries": self.max_entries,
            "ttl": self.ttl,
        }


class TTLCache:
    """Thread-safe LRU key/value store with optional per-entry TTL.

    The shared machinery under :class:`EvaluationCache` and the serve
    daemon's :class:`~repro.planner.result.PlanResult` cache: an
    :class:`~collections.OrderedDict` in least-recently-*used* order
    (lookups refresh recency), bounded to *max_entries* with eviction
    from the cold end, entries older than *ttl* seconds dropped lazily on
    lookup, and every mutation guarded by one re-entrant lock so an
    asyncio service loop and its worker callbacks can share an instance
    without races.  All counters are exposed through :meth:`stats`.

    Parameters
    ----------
    max_entries:
        Retain at most this many values (least-recently-used eviction).
        ``None`` disables eviction.
    ttl:
        Seconds an entry stays servable after it was stored.  ``None``
        disables expiry.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._store: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._stamps: Dict[Hashable, float] = {}
        self._lock = threading.RLock()
        self._clock = clock
        self.max_entries = max_entries
        self.ttl = ttl
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._store and not self._expired(key)

    # -- internals (call with the lock held) ------------------------------

    def _expired(self, key: Hashable) -> bool:
        if self.ttl is None:
            return False
        return self._clock() - self._stamps.get(key, 0.0) > self.ttl

    def _drop(self, key: Hashable) -> None:
        del self._store[key]
        self._stamps.pop(key, None)

    def _enforce_bound(self) -> None:
        """The single size-enforcement path: every insert lands here, so
        the LRU bound (and the eviction counter) can never be bypassed."""
        if self.max_entries is None:
            return
        while len(self._store) > self.max_entries:
            key, _ = self._store.popitem(last=False)
            self._stamps.pop(key, None)
            self.evictions += 1

    # -- the store --------------------------------------------------------

    # Content-based keys (whole applications, platforms) cost tens of
    # microseconds to hash, so get and put hash a key as few times as
    # they can: once on a miss or a new insert, twice on a hit.

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The stored value, counting a hit/miss; TTL-lapsed entries are
        dropped and count as misses (plus an expiration)."""
        with self._lock:
            value = self._store.get(key, _MISSING)
            if value is not _MISSING:
                if self._expired(key):
                    self._drop(key)
                    self.expirations += 1
                else:
                    self.hits += 1
                    self._store.move_to_end(key)
                    return value
            self.misses += 1
            return default

    def put(self, key: Hashable, value: Any) -> None:
        """Store *value*, stamping it now and enforcing the LRU bound."""
        with self._lock:
            size = len(self._store)
            self._store[key] = value
            if len(self._store) == size:
                self._store.move_to_end(key)  # a re-put: promote it
            if self.ttl is not None:
                self._stamps[key] = self._clock()
            self._enforce_bound()

    def clear(self) -> None:
        """Drop all entries and reset every counter."""
        with self._lock:
            self._store.clear()
            self._stamps.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.expirations = 0

    def stats(self) -> CacheStats:
        """Counters + configuration as one :class:`CacheStats`."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                expirations=self.expirations,
                entries=len(self._store),
                max_entries=self.max_entries,
                ttl=self.ttl,
            )


__all__ = ["CacheStats", "DEFAULT_MAX_ENTRIES", "TTLCache"]

"""TTLCache / EvaluationCache bounds: LRU eviction, TTL expiry, counters.

The serve daemon keeps one process-wide cache warm for days; these tests
pin the behaviours that keep it safe to do so — the entry bound can never
be bypassed (every insert evicts through one counted path), lapsed
entries never get served, counters stay exact under concurrent hammering,
and ``clear_default_cache`` really does reset a "cold" run's statistics.
"""

import threading

import pytest

from repro import CommModel, ExecutionGraph, make_application
from repro.planner import (
    CacheStats,
    EvaluationCache,
    TTLCache,
    clear_default_cache,
    default_cache,
    solve,
)
from repro.planner.cache import DEFAULT_MAX_ENTRIES


class FakeClock:
    """Injectable monotonic time source."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------- LRU bound


def test_put_evicts_least_recently_used():
    cache = TTLCache(max_entries=3)
    for k in "abc":
        cache.put(k, k.upper())
    assert cache.get("a") == "A"  # refresh 'a': now b is coldest
    cache.put("d", "D")
    assert "b" not in cache
    assert cache.get("a") == "A" and cache.get("c") == "C" and cache.get("d") == "D"
    assert cache.evictions == 1


def test_eviction_counter_counts_every_drop():
    cache = TTLCache(max_entries=2)
    for i in range(10):
        cache.put(i, i)
    assert len(cache) == 2
    assert cache.evictions == 8


def test_overwrite_does_not_evict():
    cache = TTLCache(max_entries=2)
    cache.put("a", 1)
    cache.put("a", 2)
    cache.put("b", 3)
    assert len(cache) == 2
    assert cache.evictions == 0
    assert cache.get("a") == 2


def test_unbounded_cache_never_evicts():
    cache = TTLCache(max_entries=None)
    for i in range(1000):
        cache.put(i, i)
    assert len(cache) == 1000
    assert cache.evictions == 0


# ---------------------------------------------------------------- TTL expiry


def test_ttl_expiry_is_a_miss_and_counted():
    clock = FakeClock()
    cache = TTLCache(max_entries=None, ttl=10.0, clock=clock)
    cache.put("a", 1)
    assert cache.get("a") == 1
    clock.advance(10.5)
    assert cache.get("a") is None
    assert "a" not in cache
    stats = cache.stats()
    assert stats.expirations == 1
    assert stats.hits == 1 and stats.misses == 1


def test_put_refreshes_ttl_stamp():
    clock = FakeClock()
    cache = TTLCache(ttl=10.0, clock=clock)
    cache.put("a", 1)
    clock.advance(8.0)
    cache.put("a", 2)  # re-stamped now
    clock.advance(8.0)
    assert cache.get("a") == 2


def test_no_ttl_entries_never_expire():
    clock = FakeClock()
    cache = TTLCache(ttl=None, clock=clock)
    cache.put("a", 1)
    clock.advance(1e9)
    assert cache.get("a") == 1


# ------------------------------------------------------------ stats plumbing


def test_stats_snapshot_fields():
    cache = TTLCache(max_entries=100, ttl=60.0)
    cache.put("a", 1)
    cache.get("a")
    cache.get("missing")
    stats = cache.stats()
    assert isinstance(stats, CacheStats)
    assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
    assert stats.lookups == 2
    assert stats.hit_rate == pytest.approx(0.5)
    payload = stats.as_dict()
    assert payload["hit_rate"] == pytest.approx(0.5)
    assert payload["max_entries"] == 100 and payload["ttl"] == 60.0


def test_hit_rate_zero_when_idle():
    assert TTLCache().stats().hit_rate == 0.0


def test_clear_resets_counters_and_entries():
    cache = TTLCache(max_entries=1)
    cache.put("a", 1)
    cache.put("b", 2)  # evicts a
    cache.get("b")
    cache.get("zzz")
    cache.clear()
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.evictions, stats.entries) == (0, 0, 0, 0)


def test_clear_default_cache_resets_hit_miss_counters():
    app = make_application([("A", 3, "1/2"), ("B", 5, 1)])
    solve(app, objective="period", model="overlap")
    cache = default_cache()
    assert cache.misses > 0
    clear_default_cache()
    assert (cache.hits, cache.misses, cache.evictions) == (0, 0, 0)
    assert len(cache) == 0


def test_default_cache_has_default_bound():
    assert default_cache().max_entries == DEFAULT_MAX_ENTRIES


# --------------------------------------------------- evaluation-cache behaviour


def _graph():
    app = make_application([("A", 4, 1), ("B", 4, 1)])
    return ExecutionGraph.chain(app, ["A", "B"])


def test_evaluation_cache_bound_applies_to_get_or_compute():
    cache = EvaluationCache(max_entries=1)
    obj_p = cache.objective("period", CommModel.OVERLAP)
    obj_l = cache.objective("latency", CommModel.OVERLAP)
    graph = _graph()
    obj_p(graph)
    obj_l(graph)  # different kind -> different key -> evicts the period slot
    assert len(cache) == 1
    assert cache.evictions == 1
    obj_p(graph)  # recompute after eviction: a miss, not a hit
    assert cache.misses == 3 and cache.hits == 0


def test_evaluation_cache_ttl_recomputes_after_expiry():
    clock = FakeClock()
    cache = EvaluationCache(ttl=30.0, clock=clock)
    obj = cache.objective("period", CommModel.OVERLAP)
    graph = _graph()
    assert obj(graph) == obj(graph)
    assert (cache.hits, cache.misses) == (1, 1)
    clock.advance(31.0)
    obj(graph)
    assert cache.misses == 2
    assert cache.expirations == 1


# ------------------------------------------------------------- thread safety


def test_concurrent_hammering_keeps_counters_exact():
    """8 threads × 200 mixed get/put over a small keyspace: counters must
    add up exactly and the LRU bound must hold throughout."""
    cache = TTLCache(max_entries=16)
    threads, per_thread, keyspace = 8, 200, 48
    barrier = threading.Barrier(threads)
    errors = []

    def hammer(seed: int) -> None:
        try:
            barrier.wait()
            for i in range(per_thread):
                key = (seed * 31 + i * 7) % keyspace
                value = cache.get(key)
                if value is None:
                    cache.put(key, key * 2)
                else:
                    assert value == key * 2
                assert len(cache) <= 16
        except Exception as exc:  # surfaced below; threads swallow otherwise
            errors.append(exc)

    workers = [
        threading.Thread(target=hammer, args=(seed,)) for seed in range(threads)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert not errors
    stats = cache.stats()
    assert stats.lookups == threads * per_thread
    assert stats.entries <= 16


def test_concurrent_get_or_compute_never_duplicates_work():
    """Concurrent identical evaluations: every thread sees the same value
    and the compute runs exactly once (the lock spans the compute)."""
    cache = EvaluationCache()
    graph = _graph()
    computed = []
    barrier = threading.Barrier(8)
    values = []

    from repro.optimize.evaluation import Effort

    def query() -> None:
        barrier.wait()
        value = cache.get_or_compute(
            "period",
            graph,
            CommModel.OVERLAP,
            Effort.EXACT,
            lambda: computed.append(1) or 42,
        )
        values.append(value)

    workers = [threading.Thread(target=query) for _ in range(8)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    assert len(computed) == 1
    assert values == [42] * 8
    assert cache.hits == 7 and cache.misses == 1


def test_placement_memo_survives_concurrent_clear():
    """8 threads solving placements on het4 while a 9th clears the
    placement memo.  A lookup is a read plus an LRU promotion, and a clear
    landing between the two used to raise ``KeyError`` — which the serve
    daemon (solves and replans on executor threads, ``clear_cache`` on the
    event loop) reported as a client input error."""
    import sys
    import time

    from repro.optimize import Effort
    from repro.optimize.placement import (
        clear_placement_memo,
        optimize_mapping,
        placement_memo_size,
    )
    from repro.planner import load_platform

    platform = load_platform("het4")
    graph = _graph()
    stop = threading.Event()
    errors = []

    def solve() -> None:
        try:
            while not stop.is_set():
                value, _mapping = optimize_mapping(
                    graph, "period", CommModel.OVERLAP, Effort.HEURISTIC,
                    platform,
                )
                assert value > 0
        except Exception as exc:  # surfaced below; threads swallow otherwise
            errors.append(exc)

    def clear() -> None:
        try:
            while not stop.is_set():
                clear_placement_memo()
                time.sleep(0.0005)
        except Exception as exc:
            errors.append(exc)

    workers = [threading.Thread(target=solve) for _ in range(8)]
    workers.append(threading.Thread(target=clear))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for w in workers:
            w.start()
        time.sleep(1.5)
    finally:
        stop.set()
        for w in workers:
            w.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not errors, errors[:3]
    assert placement_memo_size() <= 1

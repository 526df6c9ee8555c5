"""Micro-batching: queue compatible requests briefly, solve them as one.

Distinct-but-compatible requests (same objective/model/method/exactness/
platform parameters, different workloads) that arrive within a short
*batch window* are flushed together as one group, which the server then
runs as one ``solve_many`` call sharded over its persistent
worker-process pool.  Batching trades a few milliseconds of queueing
latency for fan-out: one group spreads over the pool's processes.  The
server batches only when it has a pool (``workers > 0``); without one
there is nothing to fan out over, and each cold solve starts on arrival.

The batcher is generic: it knows nothing about solving.  The server
injects ``run_group(group, jobs) -> results`` and the batcher guarantees
ordering (results line up with the submitted jobs), flush-on-window,
flush-on-capacity (``max_batch``), and error fan-out (a failing group
run rejects every waiting future).
"""

from __future__ import annotations

import asyncio
from typing import Any, Awaitable, Callable, Dict, Hashable, List, Sequence, Tuple

RunGroup = Callable[[Hashable, Sequence[Any]], Awaitable[Sequence[Any]]]


class MicroBatcher:
    """Collect compatible jobs per *group* key; flush by window or size.

    Parameters
    ----------
    run_group:
        Async callable executing one flushed batch; must return one
        result per job, in job order.
    window:
        Seconds a group's first job waits for company before the flush
        (0 still batches: everything submitted in the same event-loop
        tick rides together).
    max_batch:
        Flush immediately once a group holds this many jobs.
    """

    def __init__(
        self, run_group: RunGroup, *, window: float = 0.005, max_batch: int = 16
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._run_group = run_group
        self.window = max(0.0, float(window))
        self.max_batch = int(max_batch)
        self._pending: Dict[Hashable, List[Tuple[Any, "asyncio.Future[Any]"]]] = {}
        self._timers: Dict[Hashable, "asyncio.Task[None]"] = {}
        self._running: "set[asyncio.Task[None]]" = set()
        #: Batches flushed / jobs they carried (``batched_jobs / batches``
        #: is the realised batch size).
        self.batches = 0
        self.batched_jobs = 0

    async def submit(self, group: Hashable, job: Any) -> Any:
        """Queue *job* under *group*; resolves when its batch has run."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Any]" = loop.create_future()
        bucket = self._pending.setdefault(group, [])
        bucket.append((job, future))
        if len(bucket) >= self.max_batch:
            self._flush(group)
        elif len(bucket) == 1:
            self._timers[group] = loop.create_task(self._flush_later(group))
        return await future

    async def _flush_later(self, group: Hashable) -> None:
        try:
            await asyncio.sleep(self.window)
        except asyncio.CancelledError:
            return
        self._timers.pop(group, None)
        self._flush(group)

    def _flush(self, group: Hashable) -> None:
        timer = self._timers.pop(group, None)
        if timer is not None:
            timer.cancel()
        bucket = self._pending.pop(group, None)
        if not bucket:
            return
        task = asyncio.get_running_loop().create_task(
            self._run(group, bucket)
        )
        self._running.add(task)
        task.add_done_callback(self._running.discard)

    async def _run(
        self, group: Hashable, bucket: List[Tuple[Any, "asyncio.Future[Any]"]]
    ) -> None:
        jobs = [job for job, _ in bucket]
        self.batches += 1
        self.batched_jobs += len(jobs)
        try:
            results = await self._run_group(group, jobs)
            if len(results) != len(jobs):
                raise RuntimeError(
                    f"run_group returned {len(results)} results for "
                    f"{len(jobs)} jobs"
                )
        except Exception as exc:
            for _, future in bucket:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(bucket, results):
            if not future.done():
                future.set_result(result)

    async def drain(self) -> None:
        """Flush everything queued and wait for every batch to finish."""
        for group in list(self._pending):
            self._flush(group)
        while self._running:
            await asyncio.gather(*list(self._running), return_exceptions=True)


__all__ = ["MicroBatcher"]

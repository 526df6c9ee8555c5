"""``solve_many``: process-parallel batch solving.

Production streams rarely plan one workload at a time: parameter sweeps,
galleries, nightly re-planning of a workload fleet.  :func:`solve_many`
shards a list of jobs over worker processes, solves each shard through the
ordinary :func:`repro.planner.solve` facade against the evaluation cache
of the process it runs in, and aggregates the per-solve
:class:`~repro.planner.SolverStats`.

A *job* is anything the CLI accepts: a workload spec string (``"fig1"``,
``"random:n=9,seed=3"`` — resolved inside the worker, so nothing heavy is
pickled), a :class:`~repro.planner.catalog.Workload` (its bundled
platform/mapping apply), or a bare
:class:`~repro.core.Application`/:class:`~repro.core.ExecutionGraph`.

    >>> from repro.planner import solve_many
    >>> batch = solve_many(["fig1", "b1"], model="overlap", schedule=False,
    ...                    processes=1)
    >>> [str(r.value) for r in batch.results]
    ['4', '100']
    >>> batch.shards
    1

Exposed on the command line as ``python -m repro batch``.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core import Application, ExecutionGraph, Mapping, Platform
from .catalog import Workload, load_workload
from .result import PlanResult, SolverStats

Job = Union[str, Workload, Application, ExecutionGraph]


@dataclass
class BatchResult:
    """Everything :func:`solve_many` knows about one batch run.

    ``results`` preserves the input job order regardless of sharding.
    ``stats`` aggregates the per-solve counters (its ``wall_time`` is the
    batch wall clock, not the sum of per-solve times — shards overlap).
    """

    results: List[PlanResult]
    stats: SolverStats
    shards: int
    processes: int

    def as_dict(self, *, include_graph: bool = False) -> Dict[str, Any]:
        return {
            "results": [r.as_dict(include_graph=include_graph) for r in self.results],
            "stats": self.stats.as_dict(),
            "shards": self.shards,
            "processes": self.processes,
        }


def _resolve_job(
    job: Job,
    platform: Union[str, Platform, None],
    mapping: Optional[Mapping],
) -> Tuple[Any, Any, Any]:
    """(problem, platform, mapping) for one job.

    An explicit batch-wide platform wins over a workload's bundled one
    (mirroring the CLI's ``--platform`` semantics — the bundled mapping
    only makes sense on the bundled platform).
    """
    if isinstance(job, str):
        job = load_workload(job)
    if isinstance(job, Workload):
        if platform is not None:
            return job.problem, platform, mapping
        return job.problem, job.platform, job.mapping
    return job, platform, mapping


def _solve_shard(
    payload: Tuple[Sequence[Tuple[int, Job]], Dict[str, Any]]
) -> List[Tuple[int, PlanResult]]:
    """Worker body: solve one shard against the evaluation cache of the
    process it runs in; returns the indexed results."""
    from .facade import solve  # deferred: keep the pickled payload light

    jobs, kwargs = payload
    platform = kwargs.pop("platform", None)
    mapping = kwargs.pop("mapping", None)
    results: List[Tuple[int, PlanResult]] = []
    for index, job in jobs:
        problem, job_platform, job_mapping = _resolve_job(job, platform, mapping)
        results.append(
            (
                index,
                solve(
                    problem,
                    platform=job_platform,
                    mapping=job_mapping,
                    **kwargs,
                ),
            )
        )
    return results


def solve_many(
    jobs: Sequence[Job],
    *,
    processes: Optional[int] = None,
    pool: Optional[Any] = None,
    **solve_kwargs: Any,
) -> BatchResult:
    """Solve every job, sharding over worker processes; returns
    :class:`BatchResult`.

    Parameters
    ----------
    jobs:
        Workload spec strings, :class:`Workload` bundles, or bare
        problems; order is preserved in ``results``.
    processes:
        Worker process count; ``None`` picks ``min(cpu_count, len(jobs))``
        and, without a *pool*, ``1`` (or a single job) solves serially
        in-process.  Workers are plain ``concurrent.futures`` processes —
        no external dependencies.
    pool:
        An already-running ``concurrent.futures`` executor to shard over
        instead of spawning (and tearing down) a fresh process pool per
        call.  The serve daemon passes its persistent worker pool here so
        micro-batched request groups don't pay process startup on every
        batch.  The caller owns the pool's lifecycle; ``processes`` still
        bounds how many shards are cut, and every shard goes to the pool,
        even when only one is cut.
    solve_kwargs:
        Forwarded to :func:`repro.planner.solve` for every job —
        ``objective``, ``model``, ``method``, ``effort``, ``schedule``,
        ``platform``, ``mapping``, solver options...

    Jobs are dealt round-robin so similarly sized neighbours spread across
    shards.  Worker failures propagate (the batch is all-or-nothing).
    """
    jobs = list(jobs)
    if not jobs:
        raise ValueError("solve_many needs at least one job")
    if processes is None:
        processes = min(os.cpu_count() or 1, len(jobs))
    processes = max(1, int(processes))
    started = time.perf_counter()

    indexed = list(enumerate(jobs))
    if pool is None and (processes == 1 or len(jobs) == 1):
        processes = 1  # report what actually ran, not what was requested
        shard_results = [_solve_shard((indexed, dict(solve_kwargs)))]
    else:
        shards = [indexed[i::processes] for i in range(processes)]
        shards = [s for s in shards if s]
        processes = len(shards)  # workers actually spawned
        if pool is not None:
            futures = [
                pool.submit(_solve_shard, (shard, dict(solve_kwargs)))
                for shard in shards
            ]
            shard_results = [f.result() for f in futures]
        else:
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(
                max_workers=len(shards)
            ) as fresh_pool:
                futures = [
                    fresh_pool.submit(_solve_shard, (shard, dict(solve_kwargs)))
                    for shard in shards
                ]
                shard_results = [f.result() for f in futures]

    ordered: List[Optional[PlanResult]] = [None] * len(jobs)
    totals = SolverStats()
    for results in shard_results:
        for index, result in results:
            ordered[index] = result
            totals.evaluations += result.stats.evaluations
            totals.cache_hits += result.stats.cache_hits
            totals.graphs_considered += result.stats.graphs_considered
    totals.wall_time = time.perf_counter() - started
    totals.extras = {"jobs": len(jobs)}
    assert all(r is not None for r in ordered)
    return BatchResult(
        results=[r for r in ordered if r is not None],
        stats=totals,
        shards=len(shard_results),
        processes=processes,
    )


__all__ = ["BatchResult", "Job", "solve_many"]

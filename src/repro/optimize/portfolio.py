"""Anytime portfolio search: race solver configurations under a deadline.

The individual solvers trade quality for time very differently — greedy
construction is effectively free, reparenting local search costs
milliseconds, branch and bound proves optimality but may need seconds —
and which one wins on a given instance is hard to predict.  The portfolio
runs a fixed roster of *racers* against one shared incumbent under a
wall-clock budget:

1. **greedy** always runs first, in-process and unconditionally, so any
   deadline — including one that has already expired — still yields a
   valid plan (the anytime guarantee);
2. the **primary** racer (the method the caller asked for, resolved to a
   deadline-capable search);
3. **seeded local searches** restarting from pseudo-random forests
   (:func:`random_forest` with fixed seeds — deterministic);
4. **branch and bound** last, warm-started from the best incumbent so
   far and handed the remaining budget via its ``deadline`` knob.

**Winner rule (deterministic):** the incumbent only updates on a strict
improvement and racers run in the fixed priority order above, so among
equal-valued results the *earliest* racer wins.  With fixed seeds the
outcome is a pure function of the instance and the roster — the deadline
can only truncate the tail of the roster, never reorder it.

``workers > 0`` races the post-greedy roster in parallel OS processes
(each worker re-derives its objective in a private cache; the greedy
incumbent computed before the fork is the shared warm start).  Results
are still arbitrated by ``(value, priority)``, so a fully-completed
parallel run matches the serial one; a deadline may truncate different
racers than serial execution would, which is the documented
nondeterminism of the process mode.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core import Application, ExecutionGraph
from .branch_and_bound import MAX_BB_LATENCY_SERVICES, bb_minlatency, bb_minperiod
from .greedy import greedy_forest
from .local_search import local_search_forest

Incumbent = Tuple[Fraction, ExecutionGraph]

#: Racers other than branch and bound finish in bounded time on their
#: own; B&B without a deadline is bounded by this node budget instead, so
#: an undeadlined portfolio solve always terminates.
DEFAULT_BB_NODE_LIMIT = 20_000


@dataclass
class Racer:
    """One portfolio entrant.

    *run* receives ``(remaining_seconds_or_None, incumbent_or_None)`` and
    returns ``(value, graph, extras)``; it must honour the remaining
    budget on a best-effort basis (greedy and local search simply finish —
    they are fast; branch and bound cuts off via its ``deadline``).
    """

    name: str
    run: Callable[
        [Optional[float], Optional[Incumbent]],
        Tuple[Fraction, ExecutionGraph, Dict[str, Any]],
    ]


@dataclass
class PortfolioOutcome:
    """What :func:`run_portfolio` learned.

    ``trajectory`` records every incumbent improvement as
    ``(elapsed_seconds, value, racer_name)``; ``budget_exhausted`` is
    ``True`` when the deadline truncated the roster or a racer reported
    stopping on its own limit (the result is then the best incumbent, not
    a proved optimum).
    """

    value: Fraction
    graph: ExecutionGraph
    trajectory: List[Tuple[float, Fraction, str]] = field(default_factory=list)
    budget_exhausted: bool = False
    racers: List[Dict[str, Any]] = field(default_factory=list)


def random_forest(app: Application, rng: Random) -> ExecutionGraph:
    """A pseudo-random forest over *app* (acyclic by construction).

    Services are shuffled and each picks a parent uniformly among the
    already-placed ones (or roothood), so every forest shape is reachable
    and the result is a pure function of the RNG state — the portfolio's
    deterministic restart seeds.
    """
    names = list(app.names)
    order = names[:]
    rng.shuffle(order)
    parents: Dict[str, Optional[str]] = {}
    placed: List[str] = []
    for name in order:
        choices: List[Optional[str]] = [None] + placed
        parents[name] = choices[rng.randrange(len(choices))]
        placed.append(name)
    return ExecutionGraph.from_parents(app, parents)


def run_portfolio(
    racers: List[Racer],
    *,
    deadline: Optional[float] = None,
) -> PortfolioOutcome:
    """Run *racers* serially against a shared incumbent and wall budget.

    The first racer always runs (the anytime guarantee); later racers are
    skipped once the budget is spent.  Each racer receives the remaining
    budget and the current incumbent — deadline-capable searches warm-start
    from it and stop in time.
    """
    if not racers:
        raise ValueError("a portfolio needs at least one racer")
    started = time.monotonic()
    deadline_at = None if deadline is None else started + deadline
    best: Optional[Incumbent] = None
    trajectory: List[Tuple[float, Fraction, str]] = []
    ran: List[Dict[str, Any]] = []
    exhausted = False
    for i, racer in enumerate(racers):
        if i > 0 and deadline_at is not None and time.monotonic() >= deadline_at:
            exhausted = True
            break
        remaining = (
            None if deadline_at is None
            else max(0.0, deadline_at - time.monotonic())
        )
        value, graph, extras = racer.run(remaining, best)
        ran.append({"racer": racer.name, "value": value, **extras})
        if extras.get("limit_hit"):
            exhausted = True
        if best is None or value < best[0]:
            best = (value, graph)
            trajectory.append((time.monotonic() - started, value, racer.name))
    assert best is not None  # racer 0 always ran
    return PortfolioOutcome(
        value=best[0],
        graph=best[1],
        trajectory=trajectory,
        budget_exhausted=exhausted,
        racers=ran,
    )


def _local_search_racer(
    app: Application,
    objective_fn,
    seed: Optional[int],
    max_moves: int,
) -> Tuple[Fraction, ExecutionGraph, Dict[str, Any]]:
    """One local-search racer body: from the greedy forest, or from the
    :func:`random_forest` of *seed*; the winner is scored once through
    *objective_fn* (a delta-priced search never called it)."""
    if seed is None:
        _, start = greedy_forest(app, objective_fn)
    else:
        start = random_forest(app, Random(seed))
    _, graph = local_search_forest(start, objective_fn, max_moves=max_moves)
    return objective_fn(graph), graph, {}


def _bb_run(
    app: Application,
    objective_fn,
    *,
    remaining: Optional[float],
    incumbent: Optional[Incumbent],
    node_limit: Optional[int],
) -> Tuple[Fraction, ExecutionGraph, Dict[str, Any]]:
    """The branch-and-bound racer body: deadline-aware, incumbent-seeded."""
    if remaining is None and node_limit is None:
        node_limit = DEFAULT_BB_NODE_LIMIT
    search = bb_minperiod if objective_fn.kind == "period" else bb_minlatency
    value, graph, stats = search(
        app, objective_fn, incumbent=incumbent, node_limit=node_limit,
        deadline=remaining,
    )
    return value, graph, {
        "limit_hit": stats.limit_hit,
        "expanded": stats.expanded,
        "evaluated": stats.evaluated,
    }


def build_racers(
    app: Application,
    objective_fn,
    *,
    primary: str = "auto",
    seeds: int = 2,
    seed_base: int = 17,
    max_moves: int = 200,
    node_limit: Optional[int] = None,
) -> List[Racer]:
    """The portfolio roster, in priority order (see the module docstring).

    *primary* is the method the caller originally asked for:
    ``"branch-and-bound"``, ``"exhaustive"`` and ``"auto"`` all resolve to
    the deadline-capable branch and bound (same optimum when it
    completes), which then runs right after greedy; any other name leaves
    local search as the second racer.  *seeds* adds that many
    pseudo-random restarts (``seed_base + k``).  *objective_fn* (an
    :class:`~repro.optimize.evaluation.Objective`) scores every racer and
    sets what they search.
    """
    bb_ok = objective_fn.kind == "period" or len(app) <= MAX_BB_LATENCY_SERVICES
    bb_primary = bb_ok and primary in ("auto", "branch-and-bound", "exhaustive")

    def greedy_run(_remaining, _incumbent):
        value, graph = greedy_forest(app, objective_fn)
        return value, graph, {}

    def ls_run(seed: Optional[int]):
        def run(_remaining, _incumbent):
            return _local_search_racer(app, objective_fn, seed, max_moves)
        return run

    def bb_run(remaining, incumbent):
        return _bb_run(
            app, objective_fn, remaining=remaining, incumbent=incumbent,
            node_limit=node_limit,
        )

    racers: List[Racer] = [Racer("greedy", greedy_run)]
    if bb_primary:
        racers.append(Racer("branch-and-bound", bb_run))
    racers.append(Racer("local-search", ls_run(None)))
    for k in range(seeds):
        racers.append(
            Racer(f"local-search[seed={seed_base + k}]", ls_run(seed_base + k))
        )
    if bb_ok and not bb_primary:
        racers.append(Racer("branch-and-bound", bb_run))
    return racers


# ---------------------------------------------------------------------------
# Process-parallel mode
# ---------------------------------------------------------------------------

def _racer_worker(payload):
    """Run one racer spec in a worker process (module-level: picklable).

    The worker re-derives its objective in a private
    :class:`~repro.planner.cache.EvaluationCache` — caches are per-process,
    the shared state is only the greedy incumbent computed before the
    fork.  Never raises: failures come back as ``("error", ...)`` so one
    broken racer cannot void the anytime contract.
    """
    (
        app, objective, model, effort, platform, mapping, exactness,
        incumbent, name, spec, params,
    ) = payload
    try:
        from ..planner.cache import EvaluationCache

        objective_fn = EvaluationCache().objective(
            objective, model, effort, platform, mapping, exactness
        )
        if spec == "local-search":
            value, graph, extras = _local_search_racer(
                app, objective_fn, params.get("seed"),
                params.get("max_moves", 200),
            )
        elif spec == "branch-and-bound":
            value, graph, extras = _bb_run(
                app, objective_fn, remaining=params.get("deadline"),
                incumbent=incumbent, node_limit=params.get("node_limit"),
            )
        else:
            return name, None, None, {"error": f"unknown racer spec {spec!r}"}
        return name, value, graph, extras
    except Exception as exc:  # pragma: no cover - defensive
        return name, None, None, {"error": repr(exc)}


def _parallel_specs(
    app: Application,
    *,
    objective: str,
    primary: str,
    seeds: int,
    seed_base: int,
    max_moves: int,
    node_limit: Optional[int],
    remaining: Optional[float],
) -> List[Tuple[str, str, Dict[str, Any]]]:
    """Picklable ``(name, spec, params)`` roster mirroring :func:`build_racers`
    minus the in-process greedy leg."""
    bb_ok = objective == "period" or len(app) <= MAX_BB_LATENCY_SERVICES
    bb_primary = bb_ok and primary in ("auto", "branch-and-bound", "exhaustive")
    bb_params: Dict[str, Any] = {"node_limit": node_limit, "deadline": remaining}
    specs: List[Tuple[str, str, Dict[str, Any]]] = []
    if bb_primary:
        specs.append(("branch-and-bound", "branch-and-bound", bb_params))
    specs.append(("local-search", "local-search", {"max_moves": max_moves}))
    for k in range(seeds):
        specs.append(
            (f"local-search[seed={seed_base + k}]", "local-search",
             {"seed": seed_base + k, "max_moves": max_moves})
        )
    if bb_ok and not bb_primary:
        specs.append(("branch-and-bound", "branch-and-bound", bb_params))
    return specs


def _run_parallel(
    app: Application,
    objective_fn,
    incumbent: Incumbent,
    specs: List[Tuple[str, str, Dict[str, Any]]],
    *,
    workers: int,
    deadline_at: Optional[float],
    started: float,
) -> Tuple[Optional[Incumbent], List[Tuple[float, Fraction, str]],
           List[Dict[str, Any]], bool]:
    """Race *specs* in OS processes; returns ``(best, trajectory, ran,
    exhausted)`` relative to the greedy *incumbent*."""
    import multiprocessing

    payloads = [
        (app, objective_fn.kind, objective_fn.model, objective_fn.effort,
         objective_fn.platform, objective_fn.mapping, objective_fn.exactness,
         incumbent, name, spec, params)
        for name, spec, params in specs
    ]
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-posix
        ctx = multiprocessing.get_context()
    best: Optional[Incumbent] = incumbent
    trajectory: List[Tuple[float, Fraction, str]] = []
    ran: List[Dict[str, Any]] = []
    exhausted = False
    pool = ctx.Pool(processes=workers)
    try:
        handles = [
            (name, pool.apply_async(_racer_worker, (payload,)))
            for (name, _s, _p), payload in zip(specs, payloads)
        ]
        # Collect in priority order so ties keep the earliest racer —
        # the serial winner rule.
        for name, handle in handles:
            timeout = (
                None if deadline_at is None
                else max(0.0, deadline_at - time.monotonic())
            )
            try:
                got_name, value, graph, extras = handle.get(timeout=timeout)
            except multiprocessing.TimeoutError:
                exhausted = True
                ran.append({"racer": name, "skipped": "deadline"})
                continue
            if value is None:
                ran.append({"racer": got_name, **extras})
                continue
            ran.append({"racer": got_name, "value": value, **extras})
            if extras.get("limit_hit"):
                exhausted = True
            if best is None or value < best[0]:
                best = (value, graph)
                trajectory.append(
                    (time.monotonic() - started, value, got_name)
                )
    finally:
        pool.terminate()
        pool.join()
    return best, trajectory, ran, exhausted


def portfolio_search(
    app: Application,
    objective_fn,
    *,
    deadline: Optional[float] = None,
    primary: str = "auto",
    seeds: int = 2,
    seed_base: int = 17,
    max_moves: int = 200,
    node_limit: Optional[int] = None,
    workers: int = 0,
) -> PortfolioOutcome:
    """The full portfolio solve (see the module docstring).

    Serial by default; ``workers > 0`` forks that many racer processes
    after the in-process greedy warm start.  A failure to fork (or any
    process-mode error) falls back to the serial roster — the anytime
    contract never surfaces an exception.
    """
    if workers <= 0:
        racers = build_racers(
            app, objective_fn, primary=primary, seeds=seeds,
            seed_base=seed_base, max_moves=max_moves, node_limit=node_limit,
        )
        return run_portfolio(racers, deadline=deadline)

    started = time.monotonic()
    deadline_at = None if deadline is None else started + deadline
    value, graph = greedy_forest(app, objective_fn)
    best: Incumbent = (value, graph)
    trajectory: List[Tuple[float, Fraction, str]] = [(
        time.monotonic() - started, value, "greedy"
    )]
    ran: List[Dict[str, Any]] = [{"racer": "greedy", "value": value}]
    remaining = (
        None if deadline_at is None
        else max(0.0, deadline_at - time.monotonic())
    )
    specs = _parallel_specs(
        app, objective=objective_fn.kind, primary=primary, seeds=seeds,
        seed_base=seed_base, max_moves=max_moves, node_limit=node_limit,
        remaining=remaining,
    )
    try:
        best2, traj2, ran2, exhausted = _run_parallel(
            app, objective_fn, best, specs,
            workers=workers, deadline_at=deadline_at, started=started,
        )
    except Exception:
        # Process mode unavailable (sandboxing, pickling, ...): serial
        # fallback minus the greedy leg already run.
        racers = build_racers(
            app, objective_fn, primary=primary, seeds=seeds,
            seed_base=seed_base, max_moves=max_moves, node_limit=node_limit,
        )[1:]
        outcome = run_portfolio(
            [Racer("incumbent", lambda _r, _i: (best[0], best[1], {}))] + racers,
            deadline=remaining,
        )
        outcome.trajectory = trajectory + [
            (t, v, n) for t, v, n in outcome.trajectory if n != "incumbent"
        ]
        outcome.racers = ran + [
            r for r in outcome.racers if r.get("racer") != "incumbent"
        ]
        return outcome
    if best2 is not None:
        best = best2
    return PortfolioOutcome(
        value=best[0],
        graph=best[1],
        trajectory=trajectory + traj2,
        budget_exhausted=exhausted,
        racers=ran + ran2,
    )


__all__ = [
    "DEFAULT_BB_NODE_LIMIT",
    "PortfolioOutcome",
    "Racer",
    "build_racers",
    "portfolio_search",
    "random_forest",
    "run_portfolio",
]

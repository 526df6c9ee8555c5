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
can only truncate the tail of the roster, never reorder it.  Racers run
one after another in the caller's process, against the caller's
objective and its cache.
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
        # From the greedy forest, or from the random forest of *seed*; the
        # winner is scored once (a delta-priced search never scores it).
        def run(_remaining, _incumbent):
            if seed is None:
                _, start = greedy_forest(app, objective_fn)
            else:
                start = random_forest(app, Random(seed))
            _, graph = local_search_forest(
                start, objective_fn, max_moves=max_moves
            )
            return objective_fn(graph), graph, {}
        return run

    def bb_run(remaining, incumbent):
        limit = node_limit
        if remaining is None and limit is None:
            limit = DEFAULT_BB_NODE_LIMIT
        search = bb_minperiod if objective_fn.kind == "period" else bb_minlatency
        value, graph, stats = search(
            app, objective_fn, incumbent=incumbent, node_limit=limit,
            deadline=remaining,
        )
        return value, graph, {
            "limit_hit": stats.limit_hit,
            "expanded": stats.expanded,
            "evaluated": stats.evaluated,
        }

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
) -> PortfolioOutcome:
    """The full portfolio solve: :func:`build_racers` raced by
    :func:`run_portfolio` (see the module docstring)."""
    racers = build_racers(
        app, objective_fn, primary=primary, seeds=seeds,
        seed_base=seed_base, max_moves=max_moves, node_limit=node_limit,
    )
    return run_portfolio(racers, deadline=deadline)


__all__ = [
    "DEFAULT_BB_NODE_LIMIT",
    "PortfolioOutcome",
    "Racer",
    "build_racers",
    "portfolio_search",
    "random_forest",
    "run_portfolio",
]

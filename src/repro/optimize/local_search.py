"""Local searches: reparenting over forests, reassignment over placements.

:func:`local_search_forest` starts from any forest (e.g. the greedy
construction's output or the communication-free baseline) and repeatedly
moves one node under a different parent (or makes it a root) whenever that
strictly improves the objective.  :func:`placement_local_search` does the
analogous walk over service-to-server assignments on a heterogeneous
platform: move one service to an idle server, or swap two services.  Both
are first-improvement with a deterministic scan order and terminate
because the objective strictly decreases and the neighbourhood is finite.
The scan *resumes* after an accepted move instead of restarting at the
first service, so one full improvement pass costs one sweep of the
neighbourhood, not a quadratic number of partial re-sweeps.

Both searches price each candidate move with a delta evaluator from
:mod:`repro.optimize.incremental` where one computes the objective —
without rebuilding a graph or a :class:`~repro.core.CostModel`, the hot
path of every heuristic solve.  The evaluators are exact (Fraction-level
parity with full recomputation), so the result is identical either way.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

from ..core import CommModel, Exactness, ExecutionGraph, Mapping, Platform
from ..core.graph import CycleError
from .branch_and_bound import PlacementGate
from .evaluation import (
    Effort,
    Objective,
    make_latency_objective,
    make_period_objective,
)
from .incremental import IncrementalSharedCosts, period_delta


def _parents_of(graph: ExecutionGraph) -> Dict[str, Optional[str]]:
    parents: Dict[str, Optional[str]] = {}
    for node in graph.nodes:
        preds = graph.predecessors(node)
        if len(preds) > 1:
            raise ValueError("local search requires a forest execution graph")
        parents[node] = preds[0] if preds else None
    return parents


def _descends(
    node: Optional[str], ancestor: str, parents: Dict[str, Optional[str]]
) -> bool:
    """Is *node* in the subtree of *ancestor* (itself included)?"""
    while node is not None:
        if node == ancestor:
            return True
        node = parents[node]
    return False


def local_search_forest(
    graph: ExecutionGraph,
    objective: Callable[[ExecutionGraph], Fraction],
    *,
    max_moves: int = 200,
) -> Tuple[Fraction, ExecutionGraph]:
    """First-improvement reparenting search from *graph* (a forest).

    *objective* is any ``ExecutionGraph -> Fraction`` callable.  For an
    :class:`~repro.optimize.evaluation.Objective` whose period is the
    Section-2.1 bound (see
    :func:`~repro.optimize.incremental.period_delta`) the search prices
    every candidate on an ``O(subtree)`` delta of its tier and never calls
    *objective*: the returned value is the delta's (a ``FAST`` delta's
    float as its exact image), and a caller that wants the objective's own
    value for the final graph scores it once.  Otherwise every candidate
    graph is scored through *objective* — pass a memoized one
    (``repro.planner.EvaluationCache.objective``) to avoid re-scoring
    graphs revisited across passes.  Two gates skip candidates that
    provably cannot improve, so the trajectory is the same: the delta
    prices a service's moves only when every bottleneck node (see
    :meth:`~repro.optimize.incremental.IncrementalForestPeriod.bottlenecks`)
    lies in its subtree, at its old parent, or at the one new parent that
    could relieve it; and a period objective that runs a placement search
    per graph skips a move whose
    :class:`~repro.optimize.branch_and_bound.PlacementBound` already
    reaches the current value.  The scan resumes at the service
    *after* an accepted move and stops once a whole pass finds no
    improvement.  Example — starting from the empty forest, the search
    discovers the filter-first chain::

        >>> from repro import CommModel, ExecutionGraph, make_application
        >>> from repro.optimize import make_period_objective
        >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        >>> objective = make_period_objective(CommModel.OVERLAP)
        >>> value, graph = local_search_forest(
        ...     ExecutionGraph.empty(app), objective)
        >>> value, sorted(graph.edges), objective.evaluations
        (Fraction(4, 1), [('A', 'B')], 0)
    """
    app = graph.application
    if app.precedence:
        raise ValueError("local search assumes no precedence constraints")
    parents = _parents_of(graph)
    delta = None
    if isinstance(objective, Objective) and objective.kind == "period":
        delta = period_delta(
            graph, objective.model, objective.effort, objective.platform,
            objective.mapping, exactness=objective.exactness,
        )
    gate = PlacementGate.of(app, objective)  # None wherever a delta prices
    current = delta.value() if delta is not None else objective(graph)
    names = list(app.names)
    n = len(names)
    moves = 0
    position = 0
    stale = 0  # services scanned since the last accepted move
    while stale < n and moves < max_moves:
        node = names[position % n]
        position += 1
        original = parents[node]
        accepted = False
        candidates = [None] + [p for p in names if p != node]
        if delta is not None:
            # A move changes the Cexec of node's subtree, its old parent
            # and its new parent only, so it can lower the max only if
            # every bottleneck is among them.
            held = [
                b for b in delta.bottlenecks()
                if b != original and not _descends(b, node, parents)
            ]
            if held:
                candidates = held if len(held) == 1 else []
        for candidate in candidates:
            if candidate == original:
                continue
            if delta is not None:
                val = delta.score_reparent(node, candidate)
                if val is None:
                    continue  # candidate creates a cycle
            else:
                trial = dict(parents)
                trial[node] = candidate
                try:
                    trial_graph = ExecutionGraph.from_parents(app, trial)
                except CycleError:
                    continue  # candidate creates a cycle
                if gate is not None and gate.forest_reaches(trial, current):
                    continue  # its placement search cannot beat current
                val = objective(trial_graph)
            if val < current:
                if delta is not None:
                    delta.apply_reparent(node, candidate)
                parents[node] = candidate
                current = val
                moves += 1
                accepted = True
                break
        stale = 0 if accepted else stale + 1
    if isinstance(current, float):
        current = Fraction(current)  # the FAST delta prices moves in floats
    return current, ExecutionGraph.from_parents(app, parents)


def local_search_minperiod(
    graph: ExecutionGraph,
    model: CommModel,
    *,
    effort: Effort = Effort.HEURISTIC,
    max_moves: int = 200,
    exactness: Exactness = Exactness.EXACT,
) -> Tuple[Fraction, ExecutionGraph]:
    """Reparenting local search on the period objective.

    Uses delta evaluation automatically where it is exact (OVERLAP, or the
    one-port bound effort — :func:`repro.optimize.incremental.period_delta`);
    *exactness* picks the objective's numeric tier, hence the delta's
    (``CERTIFIED`` keeps the trajectory and value bit-for-bit, pricing
    rejected moves in floats).
    Example::

        >>> from repro import CommModel, ExecutionGraph, make_application
        >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        >>> local_search_minperiod(
        ...     ExecutionGraph.empty(app), CommModel.OVERLAP)[0]
        Fraction(4, 1)
    """
    return local_search_forest(
        graph, make_period_objective(model, effort, exactness=exactness),
        max_moves=max_moves,
    )


def local_search_minlatency(
    graph: ExecutionGraph,
    model: CommModel,
    *,
    effort: Effort = Effort.HEURISTIC,
    max_moves: int = 200,
) -> Tuple[Fraction, ExecutionGraph]:
    """Reparenting local search on the latency objective.

    Example::

        >>> from repro import CommModel, ExecutionGraph, make_application
        >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        >>> local_search_minlatency(
        ...     ExecutionGraph.empty(app), CommModel.OVERLAP)[0]
        Fraction(7, 1)
    """
    return local_search_forest(
        graph, make_latency_objective(model, effort), max_moves=max_moves
    )


def _scan_first_improvement(
    services,
    *,
    initial: Fraction,
    reassign_candidates,
    score_reassign,
    apply_reassign,
    swap_candidates,
    score_swap,
    apply_swap,
    max_moves: int,
) -> Fraction:
    """The first-improvement scan shared by both placement searches.

    Reassign moves are tried first (service-major, candidate servers from
    *reassign_candidates*), then swaps; every accepted move restarts the
    scan.  Only the candidate generators differ between the injective
    search (idle servers, all pairs) and the shared search (all servers,
    cross-server pairs).
    """
    current_value = initial
    moves = 0
    improved = True
    while improved and moves < max_moves:
        improved = False
        for service in services:
            for server in reassign_candidates(service):
                value = score_reassign(service, server)
                if value < current_value:
                    apply_reassign(service, server)
                    current_value = value
                    moves += 1
                    improved = True
                    break
            if improved:
                break
        if improved:
            continue
        for a, b in swap_candidates():
            value = score_swap(a, b)
            if value < current_value:
                apply_swap(a, b)
                current_value = value
                moves += 1
                improved = True
                break
    return current_value


def placement_local_search(
    graph: ExecutionGraph,
    objective: Callable[[Mapping], Fraction],
    start: Mapping,
    platform: Platform,
    *,
    max_moves: int = 200,
    evaluator: Optional[IncrementalSharedCosts] = None,
) -> Tuple[Fraction, Mapping]:
    """First-improvement search over service-to-server assignments.

    Neighbour moves, scanned deterministically:

    * *reassign*: move one service to a server hosting nothing — in
      particular, a strictly faster idle server is always tried, and a
      strictly improving move is never rejected (first-improvement accepts
      every strict decrease);
    * *swap*: exchange the servers of two services.

    *objective* maps a :class:`~repro.core.Mapping` to the value being
    minimised and scores every candidate.  Passing *evaluator* (an
    :class:`~repro.optimize.incremental.IncrementalSharedCosts` built
    from *start* with ``shared=False`` for the matching objective, or any
    evaluator of :func:`~repro.optimize.incremental.placement_evaluator`)
    instead prices each move by recomputing only the touched servers'
    ``Cin``/``Ccomp``/``Cout``, and *objective* is never called.

    Example (the heavy service walks onto the fast idle server)::

        >>> from fractions import Fraction
        >>> from repro import ExecutionGraph, Mapping, Platform, make_application
        >>> from repro.core import CommModel, CostModel
        >>> app = make_application([("A", 1, 1), ("B", 9, 1)])
        >>> graph = ExecutionGraph.empty(app)
        >>> platform = Platform.of(speeds=[1, 1, 3])
        >>> objective = lambda m: CostModel(graph, platform, m).period_lower_bound(
        ...     CommModel.OVERLAP)
        >>> start = Mapping({"A": "S1", "B": "S2"})   # B on a slow server
        >>> value, best = placement_local_search(graph, objective, start, platform)
        >>> value, best.server("B")
        (Fraction(3, 1), 'S3')
    """
    start.validate_on(graph.nodes, platform)
    services = list(start.services())
    state = {"mapping": start}

    def idle_servers(service: str):
        used = set(state["mapping"].used_servers())
        return [name for name in platform.names if name not in used]

    def score_reassign(service: str, server: str) -> Fraction:
        if evaluator is not None:
            return evaluator.score_reassign(service, server)
        return objective(state["mapping"].reassigned(service, server))

    def apply_reassign(service: str, server: str) -> None:
        if evaluator is not None:
            evaluator.apply_reassign(service, server)
        state["mapping"] = state["mapping"].reassigned(service, server)

    def score_swap(a: str, b: str) -> Fraction:
        if evaluator is not None:
            return evaluator.score_swap(a, b)
        return objective(state["mapping"].swapped(a, b))

    def apply_swap(a: str, b: str) -> None:
        if evaluator is not None:
            evaluator.apply_swap(a, b)
        state["mapping"] = state["mapping"].swapped(a, b)

    def all_pairs():
        return [
            (a, b)
            for i, a in enumerate(services)
            for b in services[i + 1 :]
        ]

    value = _scan_first_improvement(
        services,
        initial=evaluator.value() if evaluator is not None else objective(start),
        reassign_candidates=idle_servers,
        score_reassign=score_reassign,
        apply_reassign=apply_reassign,
        swap_candidates=all_pairs,
        score_swap=score_swap,
        apply_swap=apply_swap,
        max_moves=max_moves,
    )
    return value, state["mapping"]


def shared_placement_local_search(
    graph: ExecutionGraph,
    evaluator: IncrementalSharedCosts,
    platform: Platform,
    *,
    max_moves: int = 400,
) -> Tuple[Fraction, Mapping]:
    """First-improvement search over *shared* service-to-server assignments.

    The concurrent regime drops injectivity, so the neighbourhood widens:

    * *reassign*: move one service onto **any** other server — including
      one already hosting services (co-location zeroes the edge between
      co-located services, so packing chatty neighbours together can win);
    * *swap*: exchange the servers of two services on different servers.

    Every candidate is priced by the *evaluator*'s
    (:class:`~repro.optimize.incremental.IncrementalSharedCosts`)
    ``O(degree)`` deltas against the aggregated per-server load objective;
    committed moves mutate the evaluator, whose mapping is returned.

    Example (two chatty chain neighbours walk onto one server: splitting
    costs the size-4 transfer, co-locating zeroes it)::

        >>> from repro import ExecutionGraph, Mapping, Platform, make_application
        >>> from repro.core import CommModel
        >>> from repro.optimize.incremental import IncrementalSharedCosts
        >>> app = make_application([("A", 1, 4), ("B", "1/2", "1/4")])
        >>> graph = ExecutionGraph.chain(app, ["A", "B"])
        >>> platform = Platform.homogeneous(2)
        >>> start = Mapping.shared({"A": "S1", "B": "S2"})
        >>> ev = IncrementalSharedCosts(graph, platform, start)
        >>> value, best = shared_placement_local_search(graph, ev, platform)
        >>> value, best.server("A") == best.server("B")
        (Fraction(3, 1), True)
    """
    evaluator.mapping().validate_on(graph.nodes, platform)
    services = sorted(graph.nodes)

    def other_servers(service: str):
        home = evaluator.assignment[service]
        return [name for name in platform.names if name != home]

    def cross_server_pairs():
        # Swapping co-located services is a no-op in the shared space.
        return (
            (a, b)
            for i, a in enumerate(services)
            for b in services[i + 1 :]
            if evaluator.assignment[a] != evaluator.assignment[b]
        )

    value = _scan_first_improvement(
        services,
        initial=evaluator.value(),
        reassign_candidates=other_servers,
        score_reassign=evaluator.score_reassign,
        apply_reassign=evaluator.apply_reassign,
        swap_candidates=cross_server_pairs,
        score_swap=evaluator.score_swap,
        apply_swap=evaluator.apply_swap,
        max_moves=max_moves,
    )
    return value, evaluator.mapping()


__all__ = [
    "local_search_forest",
    "local_search_minlatency",
    "local_search_minperiod",
    "placement_local_search",
    "shared_placement_local_search",
]

"""Exact maximum-cycle-ratio solver for uniform constraint graphs.

The constraint system ``t_v >= t_u + w_e - lambda * h_e`` is feasible iff the
graph with arc lengths ``w_e - lambda * h_e`` has no strictly positive cycle.
Hence the minimal feasible period is::

    lambda* = max over directed cycles C of  sum_e w_e / sum_e h_e

with the convention that cycles of total height 0 must satisfy
``sum w <= 0`` (otherwise no period works and the system is infeasible).

The solver uses exact rational *cycle raising*: starting from a lower bound,
repeatedly run a longest-path Bellman–Ford with reduced costs
``w - lambda * h``; every strictly positive cycle found raises ``lambda`` to
that cycle's ratio.  Each iteration pins ``lambda`` to the ratio of an
actual simple cycle, so the loop terminates with the exact maximum ratio —
no floating point, no epsilon.

The relaxation runs in integers.  Every reduced cost is multiplied by one
common denominator, ``den·q``: ``den`` is the lcm of the weights'
denominators (formed once per call) and ``q`` that of ``lambda``.  A
positive scale preserves every comparison of the relaxation, so it takes
the same decisions, finds the same cycle and converges to the same
distances, each ``den·q`` times the rational one.  The cycle's ratio is
still formed from the original ``Fraction`` weights, and
:func:`earliest_times` divides the distances back.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core.service import Numeric, as_fraction
from .eventgraph import ConstraintEdge, EventGraph

ZERO = Fraction(0)

#: An arc ``(src, dst, weight·den, height)`` in integers.
IntArc = Tuple[int, int, int, int]


class InfeasibleScheduleError(ValueError):
    """The constraint graph has a positive cycle of height 0."""


def _integer_arcs(edges: List[ConstraintEdge]) -> Tuple[List[IntArc], int]:
    """*edges* as integer arcs, each weight times ``den``, and ``den``: the
    lcm of the weights' denominators."""
    den = math.lcm(*{e.weight.denominator for e in edges})
    return [
        (e.src, e.dst, e.weight.numerator * (den // e.weight.denominator),
         e.height)
        for e in edges
    ], den


def _longest_paths(
    n: int, arcs: List[IntArc], den: int, lam: Fraction
) -> Tuple[List[int], List[int], List[int]]:
    """Longest-path Bellman–Ford at period *lam*, in integers.

    Every event starts at 0 (a virtual source with length-0 arcs) and each
    arc's length is ``w - lam·h`` times ``den·q``, ``q`` being *lam*'s
    denominator.  Returns ``(dist, pred, last_pass)``: the scaled
    distances, each event's last relaxed arc (an index into *arcs*, -1 for
    none) and the events the final pass updated — empty once the
    distances converge, non-empty after ``n`` passes only on a strictly
    positive cycle.
    """
    q = lam.denominator
    p = lam.numerator * den
    reduced = [(u, v, w * q - p * h) for u, v, w, h in arcs]
    dist = [0] * n
    pred = [-1] * n
    last_pass: List[int] = []
    for _ in range(n):
        last_pass = []
        for ei, (src, dst, length) in enumerate(reduced):
            cand = dist[src] + length
            if cand > dist[dst]:
                dist[dst] = cand
                pred[dst] = ei
                last_pass.append(dst)
        if not last_pass:
            break
    return dist, pred, last_pass


def _find_positive_cycle(
    edges: List[ConstraintEdge], pred: List[int], last_pass: List[int]
) -> Optional[Tuple[Fraction, int]]:
    """``(sum_w, sum_h)`` of a strictly positive cycle that the relaxation
    left in *pred*, else ``None`` (*last_pass* empty: it converged)."""
    # Some node updated in the final pass leads backwards into a cycle of
    # the predecessor graph; every such cycle has strictly positive reduced
    # weight.  Walk with a visited set for robustness.
    for start in last_pass:
        seen: Dict[int, int] = {}
        order: List[int] = []
        node = start
        while node not in seen and pred[node] != -1:
            seen[node] = len(order)
            order.append(node)
            node = edges[pred[node]].src
        if pred[node] == -1 and node not in seen:
            continue  # chain ended without cycling; try another candidate
        # nodes from seen[node] onwards form the cycle
        cycle_nodes = order[seen[node]:]
        cycle_w = ZERO
        cycle_h = 0
        for v in cycle_nodes:
            e = edges[pred[v]]
            cycle_w += e.weight
            cycle_h += e.height
        return cycle_w, cycle_h
    if last_pass:
        raise AssertionError("relaxation persisted but no cycle was extracted")
    return None


def minimum_period(graph: EventGraph, floor: Numeric = 0) -> Fraction:
    """Smallest ``lambda >= floor`` making *graph*'s constraints feasible.

    Raises :class:`InfeasibleScheduleError` when a positive cycle of height
    0 exists (no period can satisfy the constraints).
    """
    lam = as_fraction(floor)
    n = graph.n_events
    edges = graph.edges
    arcs, den = _integer_arcs(edges)
    while True:
        _, pred, last_pass = _longest_paths(n, arcs, den, lam)
        found = _find_positive_cycle(edges, pred, last_pass)
        if found is None:
            return lam
        cycle_w, cycle_h = found
        if cycle_h == 0:
            raise InfeasibleScheduleError(
                f"positive cycle of height 0 with total weight {cycle_w}"
            )
        ratio = cycle_w / cycle_h
        if ratio <= lam:  # safety: should be strictly positive progress
            raise AssertionError(
                "cycle raising failed to make progress "
                f"(lambda={lam}, cycle ratio={ratio})"
            )
        lam = ratio


def is_feasible(graph: EventGraph, lam: Numeric) -> bool:
    """Is the constraint system satisfiable at period *lam*?"""
    arcs, den = _integer_arcs(graph.edges)
    _, _, last_pass = _longest_paths(graph.n_events, arcs, den, as_fraction(lam))
    return not last_pass


def earliest_times(graph: EventGraph, lam: Numeric) -> Dict[object, Fraction]:
    """Earliest event times at period *lam* (all ``>= 0``), by event label.

    This is the longest path from a virtual time-0 source under reduced
    costs; *lam* must be feasible.
    """
    lam = as_fraction(lam)
    arcs, den = _integer_arcs(graph.edges)
    dist, _, last_pass = _longest_paths(graph.n_events, arcs, den, lam)
    if last_pass:
        raise InfeasibleScheduleError(f"period {lam} is infeasible")
    scale = den * lam.denominator
    return {graph.label(i): Fraction(d, scale) for i, d in enumerate(dist)}


def brute_force_mcr(graph: EventGraph) -> Optional[Fraction]:
    """Reference implementation: enumerate all simple cycles (tests only).

    Returns the maximum ratio over simple cycles with positive height, or
    ``None`` when the graph has no such cycle.  Raises
    :class:`InfeasibleScheduleError` on a positive cycle of height 0.
    Exponential — only for cross-checking :func:`minimum_period` on small
    random graphs.
    """
    import networkx as nx

    g = nx.MultiDiGraph()
    g.add_nodes_from(range(graph.n_events))
    for e in graph.edges:
        g.add_edge(e.src, e.dst, weight=e.weight, height=e.height)
    best: Optional[Fraction] = None
    for cycle in nx.simple_cycles(g):
        nodes = list(cycle)
        m = len(nodes)
        # For multigraphs, enumerate parallel-edge choices along the cycle.
        choices: List[List[Tuple[Fraction, int]]] = []
        for i in range(m):
            u, v = nodes[i], nodes[(i + 1) % m]
            opts = [
                (data["weight"], data["height"])
                for data in g.get_edge_data(u, v).values()
            ]
            choices.append(opts)
        import itertools

        for combo in itertools.product(*choices):
            w = sum((c[0] for c in combo), ZERO)
            h = sum(c[1] for c in combo)
            if h == 0:
                if w > 0:
                    raise InfeasibleScheduleError(
                        f"positive cycle of height 0 with total weight {w}"
                    )
                continue
            ratio = w / h
            if best is None or ratio > best:
                best = ratio
    return best


__all__ = [
    "InfeasibleScheduleError",
    "minimum_period",
    "is_feasible",
    "earliest_times",
    "brute_force_mcr",
]

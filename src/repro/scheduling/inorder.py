"""INORDER orchestration: communication orders + maximum cycle ratio.

Under the INORDER model each server is a strictly cyclic machine: it
receives the incoming messages of data set ``n`` one after the other (in a
fixed order), computes, sends the outgoing messages (in a fixed order), and
only then starts data set ``n + 1``.  Once the per-server communication
*orders* are fixed, the whole steady-state schedule is captured by a
uniform constraint graph:

* consecutive operations of a server's cycle are chained with height-0
  edges weighted by the earlier operation's duration;
* the server's last operation is linked back to its first with a height-1
  edge (data set ``n + 1`` starts after data set ``n`` finishes — this is
  exactly constraint (1) of Appendix A);
* a communication is a *single event* shared by the sender's and the
  receiver's cycles (communications are synchronous), which couples the
  cycles of communicating servers.

The optimal period for the given orders is then the maximum cycle ratio of
this event graph (:mod:`repro.cyclic.mcr`), and earliest event times at
that period yield a concrete operation list.  On the paper's Section-2.3
example the best orders give the fractional optimum ``23/3``.

Choosing the orders is the NP-hard part (Theorem 1); we provide exhaustive
enumeration for small instances and a critical-path heuristic for the rest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..core import (
    CommModel,
    CostModel,
    ExecutionGraph,
    INPUT,
    Mapping,
    OUTPUT,
    Operation,
    OperationList,
    Plan,
    Platform,
    comm_op,
    comp_op,
)
from ..cyclic import (
    EventGraph,
    InfeasibleScheduleError,
    earliest_times,
    minimum_period,
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class CommOrders:
    """Per-server communication orders.

    ``incoming[k]`` lists the sources feeding ``k`` (``INPUT`` for entry
    nodes) in reception order; ``outgoing[k]`` lists the destinations
    (``OUTPUT`` for exit nodes) in emission order.
    """

    incoming: Mapping[str, Tuple[str, ...]]
    outgoing: Mapping[str, Tuple[str, ...]]

    @staticmethod
    def canonical(graph: ExecutionGraph) -> "CommOrders":
        """Orders following the graph's stored (sorted) adjacency."""
        incoming = {
            k: tuple(graph.predecessors(k)) or (INPUT,) for k in graph.nodes
        }
        outgoing = {
            k: tuple(graph.successors(k)) or (OUTPUT,) for k in graph.nodes
        }
        return CommOrders(incoming, outgoing)


def _durations(costs: CostModel) -> Dict[Operation, Fraction]:
    graph = costs.graph
    dur: Dict[Operation, Fraction] = {}
    for node in graph.nodes:
        dur[comp_op(node)] = costs.ccomp(node)
    for a, b in costs.comm_edges():
        dur[comm_op(a, b)] = costs.comm_time(a, b)
    return dur


def server_sequence(node: str, orders: CommOrders) -> List[Operation]:
    """The cyclic operation sequence of server *node* under *orders*."""
    seq: List[Operation] = [comm_op(p, node) for p in orders.incoming[node]]
    seq.append(comp_op(node))
    seq.extend(comm_op(node, s) for s in orders.outgoing[node])
    return seq


def _event_graph(
    graph: ExecutionGraph, orders: CommOrders, dur: Dict[Operation, Fraction]
) -> EventGraph:
    """The constraint graph of *orders*, with operation durations *dur*."""
    eg = EventGraph()
    for node in graph.nodes:
        seq = server_sequence(node, orders)
        for a, b in zip(seq, seq[1:]):
            eg.add_constraint(a, b, dur[a], height=0)
        eg.add_constraint(seq[-1], seq[0], dur[seq[-1]], height=1)
    return eg


def inorder_event_graph(
    graph: ExecutionGraph,
    orders: Optional[CommOrders] = None,
    *,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> EventGraph:
    """Uniform constraint graph of the INORDER steady state."""
    if orders is None:
        orders = CommOrders.canonical(graph)
    costs = CostModel(graph, platform, mapping)
    return _event_graph(graph, orders, _durations(costs))


def _schedule(
    graph: ExecutionGraph,
    eg: EventGraph,
    lam: Fraction,
    dur: Dict[Operation, Fraction],
    costs: CostModel,
) -> Plan:
    """The operation list of the earliest times of *eg* at period *lam*."""
    begins = earliest_times(eg, lam)
    times = {op: (b, b + dur[op]) for op, b in begins.items()}
    return Plan(
        graph, OperationList(times, lam=lam), CommModel.INORDER,
        platform=costs.platform, mapping=costs.mapping,
    )


def inorder_period_for_orders(
    graph: ExecutionGraph,
    orders: CommOrders,
    *,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Fraction:
    """Optimal INORDER period for fixed communication orders (exact, MCR).

    Example (on the Figure-1 graph the critical-path greedy orders reach
    the overall optimum 23/3; the canonical sorted orders only reach 9)::

        >>> from repro.workloads import fig1_example
        >>> graph = fig1_example().graph
        >>> inorder_period_for_orders(graph, greedy_orders(graph))
        Fraction(23, 3)
        >>> inorder_period_for_orders(graph, CommOrders.canonical(graph))
        Fraction(9, 1)
    """
    eg = inorder_event_graph(graph, orders, platform=platform, mapping=mapping)
    return minimum_period(eg)


def inorder_schedule_for_orders(
    graph: ExecutionGraph,
    orders: CommOrders,
    *,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Plan:
    """Concrete operation list at the orders' optimal period.

    Example::

        >>> from repro.workloads import fig1_example
        >>> graph = fig1_example().graph
        >>> plan = inorder_schedule_for_orders(graph, greedy_orders(graph))
        >>> plan.period, plan.is_valid()
        (Fraction(23, 3), True)
    """
    costs = CostModel(graph, platform, mapping)
    dur = _durations(costs)
    eg = _event_graph(graph, orders, dur)
    return _schedule(graph, eg, minimum_period(eg), dur, costs)


# ---------------------------------------------------------------------------
# Order selection
# ---------------------------------------------------------------------------

def greedy_orders(
    graph: ExecutionGraph,
    *,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    costs: Optional[CostModel] = None,
) -> CommOrders:
    """Critical-path heuristic orders.

    Outgoing messages are sent to the successor with the longest remaining
    downstream work first (feeding the critical path early); incoming
    messages are received from the earliest-available producer first.
    Pass a prebuilt *costs* (for the same graph/platform/mapping) to skip
    rebuilding the cost model.
    """
    if costs is None:
        costs = CostModel(graph, platform, mapping)
    # downstream[k]: longest (comp + comm) path from the start of k's
    # computation to the end of the final output communication.
    downstream: Dict[str, Fraction] = {}
    for node in reversed(graph.topological_order):
        succs = graph.successors(node)
        if succs:
            tail = max(costs.comm_time(node, s) + downstream[s] for s in succs)
        else:
            tail = costs.comm_time(node, OUTPUT)
        downstream[node] = costs.ccomp(node) + tail
    # upstream[k]: longest path from time 0 to the end of k's computation.
    upstream: Dict[str, Fraction] = {}
    for node in graph.topological_order:
        preds = graph.predecessors(node)
        if preds:
            head = max(upstream[p] + costs.comm_time(p, node) for p in preds)
        else:
            head = costs.comm_time(INPUT, node)
        upstream[node] = head + costs.ccomp(node)

    incoming: Dict[str, Tuple[str, ...]] = {}
    outgoing: Dict[str, Tuple[str, ...]] = {}
    for node in graph.nodes:
        preds = list(graph.predecessors(node))
        if preds:
            preds.sort(key=lambda p: (upstream[p], p))
            incoming[node] = tuple(preds)
        else:
            incoming[node] = (INPUT,)
        succs = list(graph.successors(node))
        if succs:
            succs.sort(key=lambda s: (-downstream[s], s))
            outgoing[node] = tuple(succs)
        else:
            outgoing[node] = (OUTPUT,)
    return CommOrders(incoming, outgoing)


def iter_all_orders(graph: ExecutionGraph) -> Iterator[CommOrders]:
    """All per-server order combinations (exponential; small graphs only)."""
    nodes = list(graph.nodes)
    in_perm_lists: List[List[Tuple[str, ...]]] = []
    out_perm_lists: List[List[Tuple[str, ...]]] = []
    for node in nodes:
        preds = graph.predecessors(node) or (INPUT,)
        succs = graph.successors(node) or (OUTPUT,)
        in_perm_lists.append([tuple(p) for p in itertools.permutations(preds)])
        out_perm_lists.append([tuple(s) for s in itertools.permutations(succs)])
    for in_combo in itertools.product(*in_perm_lists):
        for out_combo in itertools.product(*out_perm_lists):
            yield CommOrders(
                dict(zip(nodes, in_combo)), dict(zip(nodes, out_combo))
            )


def order_space_size(graph: ExecutionGraph) -> int:
    """Number of order combinations :func:`iter_all_orders` would yield.

    Example::

        >>> from repro.workloads import fig1_example
        >>> order_space_size(fig1_example().graph)   # C1 and C5 have degree 2
        4
    """
    total = 1
    for node in graph.nodes:
        total *= math.factorial(max(1, len(graph.predecessors(node))))
        total *= math.factorial(max(1, len(graph.successors(node))))
    return total


def _serialized_fallback(
    graph: ExecutionGraph,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Plan:
    """A trivially valid INORDER plan: one data set at a time.

    The greedy serialized latency schedule with ``lambda = makespan``
    satisfies every INORDER constraint (all operations live in one period
    window).  Used when chosen communication orders deadlock.
    """
    from .latency import oneport_latency_schedule

    plan = oneport_latency_schedule(
        graph, CommModel.INORDER, platform=platform, mapping=mapping
    )
    return plan


def exact_inorder_period(
    graph: ExecutionGraph,
    *,
    max_configs: int = 100_000,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Tuple[Fraction, Plan]:
    """Optimal INORDER orchestration by exhaustive order enumeration.

    Exact but exponential in the in/out degrees (the problem is NP-hard,
    Theorem 1); guarded by *max_configs*.  Order combinations that deadlock
    (rendezvous cycles: a positive height-0 constraint cycle) are skipped —
    they admit no schedule at any period.

    Example (the paper's "surprising" fractional optimum, above the
    lower bound of 7; the facade path is ``solve(graph, model="inorder",
    method="exhaustive")``)::

        >>> from repro.workloads import fig1_example
        >>> lam, plan = exact_inorder_period(fig1_example().graph)
        >>> lam, plan.is_valid()
        (Fraction(23, 3), True)
    """
    space = order_space_size(graph)
    if space > max_configs:
        raise ValueError(
            f"order space has {space} configurations (> max_configs="
            f"{max_configs}); use inorder_schedule() for the heuristic"
        )
    # One cost model prices every order set; the winner's event graph is
    # kept, so its schedule needs only its earliest times.
    costs = CostModel(graph, platform, mapping)
    dur = _durations(costs)
    floor = costs.period_lower_bound(CommModel.INORDER)
    best: Optional[Tuple[Fraction, EventGraph]] = None
    for orders in iter_all_orders(graph):
        eg = _event_graph(graph, orders, dur)
        try:
            lam = minimum_period(eg)
        except InfeasibleScheduleError:
            continue
        if best is None or lam < best[0]:
            best = lam, eg
            if lam == floor:
                break  # cannot do better than the lower bound
    if best is None:  # every ordering deadlocked (not expected)
        plan = _serialized_fallback(graph, platform, mapping)
        return plan.period, plan
    lam, eg = best
    return lam, _schedule(graph, eg, lam, dur, costs)


def inorder_schedule(
    graph: ExecutionGraph,
    *,
    exact_threshold: int = 5_000,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Plan:
    """Best-effort INORDER orchestration.

    Uses exhaustive order search when the order space is small, the greedy
    critical-path orders otherwise; falls back to a fully serialized
    schedule if the heuristic orders deadlock.

    Example (what ``solve(graph, model="inorder")`` runs)::

        >>> from repro.workloads import fig1_example
        >>> inorder_schedule(fig1_example().graph).period
        Fraction(23, 3)
    """
    if order_space_size(graph) <= exact_threshold:
        _, plan = exact_inorder_period(
            graph, max_configs=exact_threshold, platform=platform, mapping=mapping
        )
        return plan
    try:
        return inorder_schedule_for_orders(
            graph,
            greedy_orders(graph, platform=platform, mapping=mapping),
            platform=platform,
            mapping=mapping,
        )
    except InfeasibleScheduleError:
        return _serialized_fallback(graph, platform, mapping)


__all__ = [
    "CommOrders",
    "exact_inorder_period",
    "greedy_orders",
    "inorder_event_graph",
    "inorder_period_for_orders",
    "inorder_schedule",
    "inorder_schedule_for_orders",
    "iter_all_orders",
    "order_space_size",
    "server_sequence",
]

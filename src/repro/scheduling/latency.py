"""Latency orchestration (Section 5 + Appendix D).

Latency concerns a *single* data set, so the overlap/no-overlap distinction
disappears (the paper serialises data sets); what matters is one-port
versus multi-port communications.  This module provides:

* :func:`oneport_latency_schedule` — greedy serialized list scheduling for
  arbitrary execution graphs (valid for all three models);
* :func:`exact_oneport_schedule` / :func:`exact_oneport_latency` —
  branch-and-bound over activity orders (the problem is NP-hard,
  Theorem 3; exact for small graphs);
* :func:`tree_latency` / :func:`tree_latency_schedule` — the paper's
  Algorithm 1 (Proposition 12), ``O(n log n)``, optimal on forests;
* :func:`minmax_two_permutations` — the fork-join inner problem
  ``min over permutations of max_i lambda1(i) + B_i + lambda2(i)``
  (exact + greedy heuristic), the combinatorial heart of Propositions 9-15;
* :func:`overlap_latency_layered` — the bandwidth-sharing window scheduler
  that achieves the multi-port latency 20 on counter-example B.2.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

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
    is_comm,
)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Operation-level DAG shared by the serialized schedulers
# ---------------------------------------------------------------------------

class _OpDag:
    """Operations, durations, op-level precedence and server incidence."""

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
    ) -> None:
        costs = CostModel(graph, platform, mapping)
        self.costs = costs
        self.graph = graph
        self.ops: List[Operation] = []
        self.duration: Dict[Operation, Fraction] = {}
        self.op_preds: Dict[Operation, List[Operation]] = {}
        self.servers: Dict[Operation, Tuple[str, ...]] = {}
        for node in graph.topological_order:
            in_ops = []
            for p in graph.predecessors(node) or (INPUT,):
                op = comm_op(p, node)
                self.ops.append(op)
                self.duration[op] = costs.comm_time(p, node)
                self.op_preds[op] = [] if p == INPUT else [comp_op(p)]
                self.servers[op] = tuple(s for s in (p, node) if s != INPUT)
                in_ops.append(op)
            cop = comp_op(node)
            self.ops.append(cop)
            self.duration[cop] = costs.ccomp(node)
            self.op_preds[cop] = in_ops
            self.servers[cop] = (node,)
        for node in graph.topological_order:
            for s in graph.successors(node) or (OUTPUT,):
                op = comm_op(node, s)
                if op not in self.duration:
                    self.ops.append(op)
                    self.duration[op] = costs.comm_time(node, s)
                    self.op_preds[op] = [comp_op(node)]
                    self.servers[op] = tuple(x for x in (node, s) if x != OUTPUT)
        self.bottom: Dict[Operation, Fraction] = self._bottom_levels()

    def _bottom_levels(self) -> Dict[Operation, Fraction]:
        """Longest downstream duration chain from each op (inclusive)."""
        op_succs: Dict[Operation, List[Operation]] = {op: [] for op in self.ops}
        for op, preds in self.op_preds.items():
            for p in preds:
                op_succs[p].append(op)
        bottom: Dict[Operation, Fraction] = {}
        # ops were appended respecting precedence order, so reverse works
        for op in reversed(self.ops):
            tail = max((bottom[s] for s in op_succs[op]), default=ZERO)
            bottom[op] = self.duration[op] + tail
        return bottom


def oneport_latency_schedule(
    graph: ExecutionGraph,
    model: CommModel = CommModel.INORDER,
    *,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Plan:
    """Greedy serialized (one-port) schedule of a single data set.

    Non-delay list scheduling: repeatedly start the ready operation with
    the earliest possible start time, breaking ties by the longest
    downstream critical path.  The resulting operation list is valid for
    all three models with ``lambda`` equal to the makespan (data sets fully
    serialised, as in the paper's latency discussion).

    Example (matches the paper's hand-built latency-21 schedule)::

        >>> from repro.workloads import fig1_example
        >>> plan = oneport_latency_schedule(fig1_example().graph)
        >>> plan.latency, plan.is_valid()
        (Fraction(21, 1), True)
    """
    dag = _OpDag(graph, platform, mapping)
    unscheduled = set(dag.ops)
    remaining_preds = {op: set(ps) for op, ps in dag.op_preds.items()}
    ready_at: Dict[Operation, Fraction] = {
        op: ZERO for op in dag.ops if not dag.op_preds[op]
    }
    busy: Dict[str, Fraction] = {n: ZERO for n in graph.nodes}
    times: Dict[Operation, Tuple[Fraction, Fraction]] = {}
    while unscheduled:
        best_op: Optional[Operation] = None
        best_start: Fraction = ZERO
        for op, ready in ready_at.items():
            start = ready
            for s in dag.servers[op]:
                if busy[s] > start:
                    start = busy[s]
            if (
                best_op is None
                or start < best_start
                or (
                    start == best_start
                    and (dag.bottom[op], op) > (dag.bottom[best_op], best_op)
                )
            ):
                best_op, best_start = op, start
        assert best_op is not None
        end = best_start + dag.duration[best_op]
        times[best_op] = (best_start, end)
        for s in dag.servers[best_op]:
            busy[s] = end
        unscheduled.remove(best_op)
        del ready_at[best_op]
        for op in list(unscheduled):
            if best_op in remaining_preds[op]:
                remaining_preds[op].discard(best_op)
                if not remaining_preds[op]:
                    ready_at[op] = max(
                        (times[p][1] for p in dag.op_preds[op]), default=ZERO
                    )
    lam = max(e for _, e in times.values())
    return Plan(
        graph,
        OperationList(times, lam=lam),
        model,
        platform=platform,
        mapping=dag.costs.mapping,
    )


class NodeLimitExceeded(RuntimeError):
    """An exact schedule search stopped at its node limit.

    ``plan`` is the best schedule it had found: achievable, but not proved
    optimal.
    """

    def __init__(self, message: str, plan: Plan) -> None:
        super().__init__(message)
        self.plan = plan


def exact_oneport_schedule(
    graph: ExecutionGraph,
    model: CommModel = CommModel.INORDER,
    *,
    node_limit: int = 2_000_000,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Plan:
    """A latency-optimal one-port schedule, by branch and bound over
    activity orders.

    Serial schedule generation enumerates all *active* schedules, one of
    which is optimal for makespan.  Pruning: partial makespan plus the
    largest remaining bottom level.  The search starts from
    :func:`oneport_latency_schedule` and keeps the operation list of its
    best schedule, returned as a plan under *model* (valid for all three,
    as the greedy one is).  Exponential (Theorem 3 says NP-hard); past
    *node_limit* states it raises :class:`NodeLimitExceeded`, which
    carries the best schedule found.

    Example (on Figure 1 the greedy serialized schedule is already
    optimal)::

        >>> from repro.workloads import fig1_example
        >>> plan = exact_oneport_schedule(fig1_example().graph)
        >>> plan.latency, plan.is_valid()
        (Fraction(21, 1), True)
    """
    dag = _OpDag(graph, platform, mapping)
    ops = dag.ops
    n = len(ops)
    idx = {op: i for i, op in enumerate(ops)}
    dur = [dag.duration[op] for op in ops]
    preds = [[idx[p] for p in dag.op_preds[op]] for op in ops]
    bottoms = [dag.bottom[op] for op in ops]
    server_ids = {name: i for i, name in enumerate(graph.nodes)}
    servers = [[server_ids[s] for s in dag.servers[op]] for op in ops]

    greedy = oneport_latency_schedule(
        graph, model, platform=platform, mapping=mapping
    )
    best = [greedy.latency]
    # The finish times of the best schedule found, or None while the
    # greedy one is still the best (each op starts ``dur`` before it ends).
    best_finish: List[Optional[List[Fraction]]] = [None]
    visited = [0]

    def best_plan() -> Plan:
        if best_finish[0] is None:
            return greedy
        times = {
            op: (end - dur[i], end)
            for i, (op, end) in enumerate(zip(ops, best_finish[0]))
        }
        return Plan(
            graph, OperationList(times, lam=best[0]), model,
            platform=platform, mapping=dag.costs.mapping,
        )

    def dfs(done_mask: int, finish: List[Fraction], busy: List[Fraction], makespan: Fraction) -> None:
        visited[0] += 1
        if visited[0] > node_limit:
            raise NodeLimitExceeded(
                f"exact_oneport_latency exceeded node_limit={node_limit}",
                best_plan(),
            )
        if done_mask == (1 << n) - 1:
            if makespan < best[0]:
                best[0] = makespan
                best_finish[0] = finish
            return
        candidates = []
        for i in range(n):
            if done_mask & (1 << i):
                continue
            if any(not (done_mask >> p) & 1 for p in preds[i]):
                continue
            ready = max((finish[p] for p in preds[i]), default=ZERO)
            start = ready
            for s in servers[i]:
                if busy[s] > start:
                    start = busy[s]
            lb = max(makespan, start + bottoms[i])
            if lb >= best[0]:
                # Any completion schedules i no earlier than `start`, so the
                # whole subtree is at least `lb`: prune the entire state.
                return
            candidates.append((start, -bottoms[i], i))
        candidates.sort()
        for start, _, i in candidates:
            if max(makespan, start + bottoms[i]) >= best[0]:
                continue  # best improved while iterating siblings
            end = start + dur[i]
            new_finish = list(finish)
            new_finish[i] = end
            new_busy = list(busy)
            for s in servers[i]:
                new_busy[s] = end
            dfs(done_mask | (1 << i), new_finish, new_busy, max(makespan, end))

    dfs(0, [ZERO] * n, [ZERO] * len(server_ids), ZERO)
    return best_plan()


def exact_oneport_latency(
    graph: ExecutionGraph,
    *,
    node_limit: int = 2_000_000,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Fraction:
    """Optimal one-port latency: the value of :func:`exact_oneport_schedule`
    (which see; past *node_limit* states it raises
    :class:`NodeLimitExceeded`, a ``RuntimeError``).

    Example::

        >>> from repro.workloads import fig1_example
        >>> exact_oneport_latency(fig1_example().graph)
        Fraction(21, 1)
    """
    return exact_oneport_schedule(
        graph, node_limit=node_limit, platform=platform, mapping=mapping
    ).latency


# ---------------------------------------------------------------------------
# Trees: Algorithm 1 (Proposition 12)
# ---------------------------------------------------------------------------

def tree_latency(
    graph: ExecutionGraph,
    *,
    include_output: bool = True,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Fraction:
    """Optimal latency of a forest execution graph (Algorithm 1).

    For each node, children subtrees are fed in non-increasing order of
    *remaining* latency (subtree latency minus the child's own message
    time — the classic delivery-time exchange argument); the completion is
    ``input + comp + max_i (sends before i + L_(i))``.  On the unit
    platform every message to a child takes the same time, so the order
    degenerates to the paper's "non-increasing subtree latency" and the
    completion to ``max_i (i * msg + L_(i))``.  ``include_output=False``
    reproduces the paper's literal leaf case ``L = c_i`` which ignores the
    exit nodes' output communication; the default accounts for it
    (consistent with the model everywhere else).

    Example (a chain: input + costs + messages, sizes shrinking)::

        >>> from repro import ExecutionGraph, make_application
        >>> app = make_application([("A", 2, "1/2"), ("B", 4, 1)])
        >>> tree_latency(ExecutionGraph.chain(app, ["A", "B"]))
        Fraction(6, 1)
    """
    if not graph.is_forest:
        raise ValueError("tree_latency requires a forest execution graph")
    costs = CostModel(graph, platform, mapping)

    def solve(node: str, src: str) -> Fraction:
        # in-communication + computation (both platform-scaled times)
        base = costs.comm_time(src, node) + costs.ccomp(node)
        children = graph.successors(node)
        if not children:
            out = costs.comm_time(node, OUTPUT)
            return base + (out if include_output else ZERO)
        # Child subtree latencies include their incoming message; each
        # child's receive waits for the sends sequenced before it on the
        # (one-port) sender.  Sequencing by non-increasing remaining
        # latency minimises the max completion.
        subs = sorted(
            ((solve(c, node), costs.comm_time(node, c)) for c in children),
            key=lambda pair: pair[0] - pair[1],
            reverse=True,
        )
        best = ZERO
        sent = ZERO
        for sub, send in subs:
            best = max(best, sent + sub)
            sent += send
        return base + best

    return max(solve(root, INPUT) for root in graph.entry_nodes)


def tree_latency_schedule(
    graph: ExecutionGraph,
    *,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Plan:
    """A concrete optimal one-port schedule realising :func:`tree_latency`.

    Example::

        >>> from repro import ExecutionGraph, make_application
        >>> app = make_application([("A", 2, "1/2"), ("B", 4, 1)])
        >>> plan = tree_latency_schedule(ExecutionGraph.chain(app, ["A", "B"]))
        >>> plan.latency == tree_latency(plan.graph), plan.is_valid()
        (True, True)
    """
    if not graph.is_forest:
        raise ValueError("tree_latency_schedule requires a forest")
    costs = CostModel(graph, platform, mapping)
    times: Dict[Operation, Tuple[Fraction, Fraction]] = {}

    def remaining(node: str, src: str) -> Fraction:
        """Subtree latency from the start of the ``src -> node`` message."""
        base = costs.comm_time(src, node) + costs.ccomp(node)
        children = graph.successors(node)
        if not children:
            return base + costs.comm_time(node, OUTPUT)
        subs = sorted(
            ((remaining(c, node), costs.comm_time(node, c)) for c in children),
            key=lambda pair: pair[0] - pair[1],
            reverse=True,
        )
        best = ZERO
        sent = ZERO
        for sub, send in subs:
            best = max(best, sent + sub)
            sent += send
        return base + best

    def emit(node: str, t: Fraction, src: str) -> Fraction:
        in_time = costs.comm_time(src, node)
        times[comm_op(src, node)] = (t, t + in_time)
        comp_start = t + in_time
        comp_end = comp_start + costs.ccomp(node)
        times[comp_op(node)] = (comp_start, comp_end)
        children = sorted(
            graph.successors(node),
            key=lambda c: remaining(c, node) - costs.comm_time(node, c),
            reverse=True,
        )
        if not children:
            out = costs.comm_time(node, OUTPUT)
            times[comm_op(node, OUTPUT)] = (comp_end, comp_end + out)
            return comp_end + out
        finish = ZERO
        send_begin = comp_end
        for child in children:
            finish = max(finish, emit(child, send_begin, node))
            send_begin = send_begin + costs.comm_time(node, child)
        return finish

    total = max(emit(root, ZERO, INPUT) for root in graph.entry_nodes)
    return Plan(
        graph,
        OperationList(times, lam=total),
        CommModel.INORDER,
        platform=platform,
        mapping=costs.mapping,
    )


# ---------------------------------------------------------------------------
# Fork-join inner problem (Propositions 9-15)
# ---------------------------------------------------------------------------

def greedy_second_permutation(
    values: Sequence[Fraction], scale: Fraction = ONE
) -> Tuple[Fraction, List[int]]:
    """Given ``v_i``, the permutation ``mu`` minimising ``max v_i + scale*mu(i)``.

    Pair the largest value with the smallest slot (rearrangement argument);
    slots are ``1..n``.  Returns ``(optimal max, mu)`` with ``mu`` 1-based.

    Example::

        >>> from fractions import Fraction
        >>> best, mu = greedy_second_permutation(
        ...     [Fraction(5), Fraction(1), Fraction(3)])
        >>> best, mu                       # 5+1, 1+3, 3+2 -> max is 6
        (Fraction(6, 1), [1, 3, 2])
    """
    n = len(values)
    order = sorted(range(n), key=lambda i: values[i], reverse=True)
    mu = [0] * n
    best: Optional[Fraction] = None
    for slot, i in enumerate(order, start=1):
        mu[i] = slot
        cand = values[i] + scale * slot
        if best is None or cand > best:
            best = cand
    assert best is not None
    return best, mu


def minmax_two_permutations(
    b_values: Sequence[Fraction],
    *,
    second_scale: Fraction = ONE,
    exact: bool = True,
    max_n_exact: int = 9,
) -> Tuple[Fraction, List[int], List[int]]:
    """``min over perms of max_i lambda1(i) + B_i + scale * lambda2(i)``.

    The decision version is exactly RN3DM (the paper's hardness source for
    all latency results).  ``exact=True`` enumerates ``lambda1`` (with the
    optimal greedy ``lambda2`` per choice) for up to *max_n_exact* items;
    otherwise a sort-based heuristic is used.  Permutations are 1-based.
    ``second_scale`` supports the Prop-13 gadget where the join-side slots
    carry the filtered message size.

    Example::

        >>> from fractions import Fraction
        >>> val, l1, l2 = minmax_two_permutations([Fraction(4), Fraction(4)])
        >>> val                            # 4+1+2 or 4+2+1 either way
        Fraction(7, 1)
    """
    b = [Fraction(x) for x in b_values]
    n = len(b)
    if n == 0:
        raise ValueError("empty instance")
    if exact and n <= max_n_exact:
        best_val: Optional[Fraction] = None
        best_l1: List[int] = []
        best_l2: List[int] = []
        for perm in itertools.permutations(range(1, n + 1)):
            vals = [b[i] + perm[i] for i in range(n)]
            cand, mu = greedy_second_permutation(vals, second_scale)
            if best_val is None or cand < best_val:
                best_val, best_l1, best_l2 = cand, list(perm), mu
        assert best_val is not None
        return best_val, best_l1, best_l2
    # Heuristic: biggest B first in both directions.
    order = sorted(range(n), key=lambda i: b[i], reverse=True)
    l1 = [0] * n
    for slot, i in enumerate(order, start=1):
        l1[i] = slot
    vals = [b[i] + l1[i] for i in range(n)]
    val, l2 = greedy_second_permutation(vals, second_scale)
    return val, l1, l2


# ---------------------------------------------------------------------------
# Layered bandwidth-sharing OVERLAP schedule (counter-example B.2)
# ---------------------------------------------------------------------------

def _levels(graph: ExecutionGraph) -> Optional[List[List[str]]]:
    level: Dict[str, int] = {}
    for node in graph.topological_order:
        preds = graph.predecessors(node)
        level[node] = max((level[p] + 1 for p in preds), default=0)
    depth = max(level.values(), default=0)
    for a, b in graph.edges:
        if level[b] != level[a] + 1:
            return None  # not strictly layered
    for x in graph.exit_nodes:
        if level[x] != depth:
            return None
    for e in graph.entry_nodes:
        if level[e] != 0:
            return None
    out: List[List[str]] = [[] for _ in range(depth + 1)]
    for node in graph.topological_order:
        out[level[node]].append(node)
    return out


def overlap_latency_layered(
    graph: ExecutionGraph,
    *,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Optional[Plan]:
    """Bandwidth-sharing window schedule for strictly layered graphs.

    All communications between consecutive layers share one window whose
    length is the worst per-server directional load across the cut; every
    message gets the constant ratio ``transfer time / window``.  On
    counter-example B.2 this achieves the multi-port latency 20, which no
    one-port schedule can reach.  Returns ``None`` when the graph is not
    strictly layered.
    """
    layers = _levels(graph)
    if layers is None:
        return None
    costs = CostModel(graph, platform, mapping)
    times: Dict[Operation, Tuple[Fraction, Fraction]] = {}
    t = ZERO
    # input window (each entry message at full bandwidth on its own link)
    for node in layers[0]:
        times[comm_op(INPUT, node)] = (t, t + costs.comm_time(INPUT, node))
    t += max(costs.comm_time(INPUT, node) for node in layers[0])
    for li, layer in enumerate(layers):
        comp_window = max(costs.ccomp(n) for n in layer)
        for node in layer:
            times[comp_op(node)] = (t, t + costs.ccomp(node))
        t += comp_window
        if li + 1 < len(layers):
            window = ZERO
            for node in layer:
                window = max(window, costs.cout(node))
            for node in layers[li + 1]:
                window = max(window, costs.cin(node))
            for node in layer:
                for s in graph.successors(node):
                    times[comm_op(node, s)] = (t, t + window)
            t += window
        else:
            out_window = max(costs.comm_time(n, OUTPUT) for n in layer)
            for node in layer:
                times[comm_op(node, OUTPUT)] = (t, t + costs.comm_time(node, OUTPUT))
            t += out_window
    ol = OperationList(times, lam=t)
    return Plan(
        graph, ol, CommModel.OVERLAP, platform=platform, mapping=costs.mapping
    )


def best_latency_schedule(
    graph: ExecutionGraph,
    *,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Plan:
    """Best available OVERLAP latency schedule (window vs serialized).

    Example (Appendix B.2: the layered multi-port schedule reaches 20,
    strictly below every one-port schedule)::

        >>> from repro.workloads import b2_latency_ports
        >>> best_latency_schedule(b2_latency_ports().graph).latency
        Fraction(20, 1)
    """
    serialized = oneport_latency_schedule(
        graph, CommModel.OVERLAP, platform=platform, mapping=mapping
    )
    layered = overlap_latency_layered(graph, platform=platform, mapping=mapping)
    if layered is not None and layered.latency < serialized.latency:
        return layered
    return serialized


__all__ = [
    "NodeLimitExceeded",
    "best_latency_schedule",
    "exact_oneport_latency",
    "exact_oneport_schedule",
    "greedy_second_permutation",
    "minmax_two_permutations",
    "oneport_latency_schedule",
    "overlap_latency_layered",
    "tree_latency",
    "tree_latency_schedule",
]

"""Orchestration: given an execution graph, build operation lists."""

from .inorder import (
    CommOrders,
    exact_inorder_period,
    greedy_orders,
    inorder_event_graph,
    inorder_period_for_orders,
    inorder_schedule,
    inorder_schedule_for_orders,
    iter_all_orders,
    order_space_size,
)
from .latency import (
    NodeLimitExceeded,
    best_latency_schedule,
    exact_oneport_latency,
    exact_oneport_schedule,
    greedy_second_permutation,
    minmax_two_permutations,
    oneport_latency_schedule,
    overlap_latency_layered,
    tree_latency,
    tree_latency_schedule,
)
from .oneport_overlap import (
    b3_oneport_period12_feasible,
    oneport_overlap_period,
    saturated_bipartite_window_feasible,
)
from .outorder import (
    is_certified_optimal,
    outorder_period_bound,
    outorder_schedule,
    repair_schedule,
)
from .overlap import overlap_period_bound, schedule_period_overlap

__all__ = [
    "CommOrders",
    "NodeLimitExceeded",
    "b3_oneport_period12_feasible",
    "best_latency_schedule",
    "exact_inorder_period",
    "exact_oneport_latency",
    "exact_oneport_schedule",
    "greedy_orders",
    "greedy_second_permutation",
    "inorder_event_graph",
    "inorder_period_for_orders",
    "inorder_schedule",
    "inorder_schedule_for_orders",
    "is_certified_optimal",
    "iter_all_orders",
    "minmax_two_permutations",
    "oneport_latency_schedule",
    "oneport_overlap_period",
    "order_space_size",
    "outorder_period_bound",
    "outorder_schedule",
    "overlap_latency_layered",
    "overlap_period_bound",
    "repair_schedule",
    "saturated_bipartite_window_feasible",
    "schedule_period_overlap",
    "tree_latency",
    "tree_latency_schedule",
]

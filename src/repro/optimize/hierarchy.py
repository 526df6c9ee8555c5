"""Hierarchical placement: partition the graph, map partitions to topology.

The process-mapping literature (Schulz & Woydt's hierarchical process
mapping; von Kirchbach et al.'s torus mapping) converges on the same
two-phase shape for structured platforms: first *partition* the
communication graph so chatty edges stay inside one partition, then *map*
partitions onto the platform's locality groups (racks, torus rows) so
cross-partition traffic crosses as few shared links as possible — and
refine with a local search.  On a contended topology this matters twice:
a cross-rack edge is both slower (route bottleneck) and *makes every
co-routed edge slower* (shared uplink capacity divides among flows).

This module supplies the seed; the refinement is the existing
reassignment/swap :func:`~repro.optimize.local_search.placement_local_search`
that :func:`~repro.optimize.placement.optimize_mapping` already drives
(strategy ``"hierarchical"``/``"auto"``).  Everything is deterministic:
services are taken by decreasing communication volume (ties: decreasing
work, then name), groups score by affinity to the services already placed
there, then by remaining speed capacity, then group order.

    >>> from repro import ExecutionGraph, Platform, make_application
    >>> from repro.core import TreeTopology
    >>> app = make_application(
    ...     [("A", 1, 2), ("B", 1, 1), ("C", 1, 2), ("D", 1, 1)])
    >>> graph = ExecutionGraph(app, [("A", "B"), ("C", "D")])
    >>> platform = Platform(
    ...     topology=TreeTopology(racks=2, servers_per_rack=2, up_bw="1/4"))
    >>> seed = hierarchical_seed(graph, platform)
    >>> seed.server("A")[:2] == seed.server("B")[:2]   # same rack
    True
    >>> seed.server("C")[:2] == seed.server("D")[:2]
    True
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from ..core import ExecutionGraph, Mapping, Platform
from ..core.costs import GraphArrays, exact_num

ZERO = Fraction(0)


def _partition(
    graph: ExecutionGraph, platform: Platform
) -> List[Tuple[Tuple[str, ...], List[str]]]:
    """Greedy capacity-respecting partition of the graph over the groups.

    Returns ``[(member services, group server names), ...]`` per topology
    group.  Each group holds at most as many services as it has servers
    (the refined mapping stays injective); services join the group with
    the highest affinity — total size of messages exchanged with services
    already in the group — breaking ties toward the group with the most
    remaining speed capacity, then the earliest group.
    """
    sizes = GraphArrays(graph, exact_num)  # platform-independent volumes
    work: Dict[str, Fraction] = dict(zip(sizes.names, sizes.work))
    # Undirected communication weight per service pair (message sizes).
    edge_w: Dict[Tuple[str, str], Fraction] = {}
    volume: Dict[str, Fraction] = {n: ZERO for n in graph.nodes}
    for u, v in graph.edges:
        w = sizes.outsize[sizes.index[u]]
        key = (u, v) if u < v else (v, u)
        edge_w[key] = edge_w.get(key, ZERO) + w
        volume[u] += w
        volume[v] += w

    groups = [
        (list(names), [platform.speed(s) for s in names])
        for _label, names in platform.topology.groups()
    ]
    members: List[List[str]] = [[] for _ in groups]
    speed_left: List[Fraction] = [sum(sp, ZERO) for _names, sp in groups]
    room: List[int] = [len(names) for names, _sp in groups]

    order = sorted(graph.nodes, key=lambda n: (-volume[n], -work[n], n))
    for svc in order:
        best = None
        best_rank = None
        for g in range(len(groups)):
            if room[g] == 0:
                continue
            affinity = ZERO
            for other in members[g]:
                key = (svc, other) if svc < other else (other, svc)
                affinity += edge_w.get(key, ZERO)
            rank = (affinity, speed_left[g], -g)
            if best_rank is None or rank > best_rank:
                best, best_rank = g, rank
        assert best is not None  # total capacity >= n (checked by caller)
        members[best].append(svc)
        room[best] -= 1
        # Charge the group the work it absorbed so load spreads out.
        speed_left[best] -= work[svc]
    return [
        (tuple(members[g]), list(groups[g][0])) for g in range(len(groups))
    ]


def hierarchical_seed(graph: ExecutionGraph, platform: Platform) -> Mapping:
    """Topology-aware injective seed mapping for the placement search.

    Phase 1 partitions the services over the topology's locality groups
    (chatty edges stay inside a group, group capacity respected); phase 2
    places each group's services work-heaviest-first onto its servers
    speed-fastest-first — the in-group analogue of
    :func:`~repro.optimize.placement.greedy_mapping`.  On a single-group
    (flat) topology this *is* the flat greedy mapping.
    """
    platform.require_capacity(len(graph.nodes))
    if len(platform.topology.groups()) <= 1:
        from .placement import greedy_mapping

        return greedy_mapping(graph, platform)
    sizes = GraphArrays(graph, exact_num)
    work = dict(zip(sizes.names, sizes.work))
    order = {name: i for i, name in enumerate(platform.names)}
    assignment: Dict[str, str] = {}
    for services, servers in _partition(graph, platform):
        ranked = sorted(services, key=lambda n: (-work[n], n))
        hosts = sorted(servers, key=lambda s: (-platform.speed(s), order[s]))
        for svc, host in zip(ranked, hosts):
            assignment[svc] = host
    return Mapping(assignment)


__all__ = ["hierarchical_seed"]

"""Cost formulas of Section 2.1, generalised to heterogeneous platforms.

For an execution graph ``EG`` and a service ``C_k``:

* ``ancestor_selectivity(k) = prod_{j in Ancest_k(EG)} sigma_j`` — the size
  of the data set that ``C_k`` actually processes;
* ``outsize(k) = ancestor_selectivity(k) * sigma_k`` — the size of the data
  ``C_k`` emits, and hence the size of every message ``C_k -> C_j``;
* ``Cin(k)`` — total incoming communication time (entry nodes receive one
  unit-size message from the synthetic input node);
* ``Ccomp(k) = ancestor_selectivity(k) * c_k / s_u`` where ``u`` is the
  server hosting ``C_k``;
* ``Cout(k)`` — total outgoing communication time; exit nodes emit one
  extra message of size ``outsize(k)`` to the synthetic output node.

The paper normalises ``delta_0 = b = s = 1`` (Section 2.1), which makes
communication *times* equal message *sizes* and computation times equal
``P_k * c_k``.  Passing a :class:`~repro.core.platform.Platform` (plus a
:class:`~repro.core.platform.Mapping` of services to servers) lifts the
normalisation: :meth:`CostModel.comm_time` divides each message size by
the bandwidth of the link it crosses, and :meth:`CostModel.ccomp` divides
by the hosting server's speed.  With ``platform=None`` (or any *unit*
platform such as ``Platform.homogeneous(n)``) every value is bit-for-bit
the paper's.

A **shared** (non-injective) mapping — several services on one server, the
regime of the multi-application sequels — changes two things: an edge
between co-located services costs zero communication time (the data never
leaves the server), and the period bound aggregates ``Cin``/``Ccomp``/
``Cout`` per *server* over all co-located services
(:meth:`CostModel.server_cexec`, :meth:`CostModel.period_lower_bound`).
For injective mappings both rules degenerate to the paper's formulas
bit-for-bit.

.. note::
   Appendix A of the paper writes the message size on an edge
   ``(C_i, C_j)`` as ``prod_{k in Ancest_i} sigma_k`` (without ``sigma_i``),
   but every worked example (B.1, B.2, B.3) and the ``Cout`` formula require
   the message to be the *output* of the sender, i.e. including ``sigma_i``.
   We follow the examples; see DESIGN.md "Known paper slips".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .constants import INPUT, OUTPUT
from .graph import ExecutionGraph
from .models import CommModel
from .platform import Mapping, Platform, link_flow_counts

CommEdge = Tuple[str, str]

ONE = Fraction(1)


def comm_edges(graph: ExecutionGraph) -> List[CommEdge]:
    """All communications of a plan built on *graph*, in a stable order.

    Includes one ``(INPUT, k)`` edge per entry node and one ``(k, OUTPUT)``
    edge per exit node, besides the graph's own edges.
    """
    edges: List[CommEdge] = [(INPUT, k) for k in graph.entry_nodes]
    edges.extend(sorted(graph.edges))
    edges.extend((k, OUTPUT) for k in graph.exit_nodes)
    return edges


def effective_bandwidths(
    platform: Platform,
    flows: List[Tuple[str, str]],
    pairs: Optional[Iterable[Tuple[str, str]]] = None,
) -> Dict[Tuple[str, str], Fraction]:
    """Contended effective bandwidth of server pairs under *flows*.

    *flows* holds one ``(src_server, dst_server)`` pair per graph edge
    whose endpoints sit on distinct servers; each is one concurrent flow,
    and ``k`` flows on a link of capacity ``c`` each see ``c/k``.  A
    pair's effective bandwidth is therefore ``min_l cap_l / k_l`` over its
    route.  *pairs* (default: every flow's pair) picks which pairs to
    price; each must be one of the flows.  Pairs with an empty route
    (flat cliques) are left out: their platform bandwidth applies.
    """
    counts = link_flow_counts(platform, flows)
    caps = platform.link_capacities()
    out: Dict[Tuple[str, str], Fraction] = {}
    for pair in set(flows) if pairs is None else pairs:
        route = platform.route(*pair)
        if route:
            out[pair] = min(caps[l] / counts[l] for l in route)
    return out


class CostModel:
    """Cached evaluation of all Section-2.1 quantities for one graph.

    Parameters
    ----------
    graph:
        The execution graph.
    platform:
        Server speeds and link bandwidths; ``None`` means the paper's
        normalised unit platform (``s = b = 1``).
    mapping:
        Which server hosts which service.  Defaults to the positional
        one-to-one :meth:`~repro.core.platform.Mapping.default`; irrelevant
        (and ignored) without a platform.
    """

    __slots__ = (
        "graph", "platform", "mapping", "_anc_sel", "_outsize", "_scaled",
        "_shared", "_eff_bw",
    )

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
    ) -> None:
        self.graph = graph
        if platform is not None:
            if mapping is None:
                mapping = Mapping.default(graph.nodes, platform)
            else:
                mapping.validate_on(graph.nodes, platform)
        else:
            mapping = None
        self.platform = platform
        self.mapping = mapping
        # Unit platforms take the exact code path of the normalised paper
        # model: no divisions, identical Fractions.  Shared (non-injective)
        # mappings always take the platform-aware path: co-location zeroes
        # intra-server communications even when every speed is 1.
        self._scaled = platform is not None and not platform.is_unit
        self._shared = mapping is not None and not mapping.is_injective
        app = graph.application
        anc_sel: Dict[str, Fraction] = {}
        outsize: Dict[str, Fraction] = {}
        for node in graph.topological_order:
            prod = ONE
            for j in graph.ancestors(node):
                prod *= app.selectivity(j)
            anc_sel[node] = prod
            outsize[node] = prod * app.selectivity(node)
        self._anc_sel = anc_sel
        self._outsize = outsize
        # Contended topologies: price every cross-server edge at the
        # bottleneck of its route with concurrent flows sharing capacity.
        # Input/output-world edges ride dedicated links and never appear.
        self._eff_bw: Dict[Tuple[str, str], Fraction] = {}
        if (
            platform is not None
            and mapping is not None
            and platform.has_contention
        ):
            self._eff_bw = effective_bandwidths(
                platform,
                [
                    (mapping.server(u), mapping.server(v))
                    for u, v in graph.edges
                    if mapping.server(u) != mapping.server(v)
                ],
            )

    # -- platform lookups ------------------------------------------------------
    def server_of(self, node: str) -> str:
        """The server hosting *node* (the node itself on the unit platform)."""
        if self.mapping is None:
            return node
        return self.mapping.server(node)

    def _endpoint(self, node: str) -> str:
        """Map a service (or INPUT/OUTPUT) to its platform endpoint."""
        if node in (INPUT, OUTPUT) or self.mapping is None:
            return node
        return self.mapping.server(node)

    def link_bandwidth(self, src: str, dst: str) -> Fraction:
        """``b_{u,v}`` of the link carrying the communication ``src -> dst``.

        On a contended topology this is the *effective* bandwidth of the
        pair under the current ``(graph, mapping)`` flow pattern — the
        route bottleneck with concurrent flows dividing each shared
        link's capacity.
        """
        if not self._scaled:
            return ONE
        assert self.platform is not None
        a, b = self._endpoint(src), self._endpoint(dst)
        eff = self._eff_bw.get((a, b))
        if eff is not None:
            return eff
        return self.platform.bandwidth(a, b)

    def server_speed(self, node: str) -> Fraction:
        """``s_u`` of the server hosting *node*."""
        if not self._scaled:
            return ONE
        assert self.platform is not None
        return self.platform.speed(self.server_of(node))

    # -- sizes ---------------------------------------------------------------
    def ancestor_selectivity(self, node: str) -> Fraction:
        """``prod_{j in Ancest(node)} sigma_j`` — input data-set size of *node*."""
        return self._anc_sel[node]

    def input_size(self, node: str) -> Fraction:
        """Alias of :meth:`ancestor_selectivity` (size the service processes)."""
        return self._anc_sel[node]

    def outsize(self, node: str) -> Fraction:
        """Size of the data emitted by *node* (its input size times ``sigma``)."""
        return self._outsize[node]

    def message_size(self, src: str, dst: str) -> Fraction:
        """Size of the message carried by communication ``src -> dst``.

        ``src = INPUT`` gives the unit-size initial data set; ``dst = OUTPUT``
        carries the sender's output to the outside world.  Sizes are
        platform-independent; :meth:`comm_time` is the transfer time.
        """
        if src == INPUT:
            return ONE
        size = self._outsize[src]
        if dst != OUTPUT and (src, dst) not in self.graph.edges:
            raise KeyError(f"({src!r}, {dst!r}) is not an edge of the execution graph")
        return size

    def comm_time(self, src: str, dst: str) -> Fraction:
        """Full-bandwidth transfer time of ``src -> dst``: size / ``b_{u,v}``.

        Equals :meth:`message_size` on the unit platform.  This is the
        duration of a one-port communication and the minimum duration of a
        multi-port one (ratio 1).  Under a shared (non-injective) mapping an
        edge between two services hosted by the *same* server crosses no
        link and costs zero time — the data never leaves the server.
        """
        size = self.message_size(src, dst)
        if (
            self._shared
            and src not in (INPUT, OUTPUT)
            and dst not in (INPUT, OUTPUT)
            and self.mapping.server(src) == self.mapping.server(dst)
        ):
            return Fraction(0)
        if not self._scaled:
            return size
        return size / self.link_bandwidth(src, dst)

    # -- the three Section-2.1 quantities -------------------------------------
    def cin(self, node: str) -> Fraction:
        """Total incoming communication time ``Cin(node)`` (lower bound)."""
        preds = self.graph.predecessors(node)
        if not preds:
            return self.comm_time(INPUT, node)
        if not self._scaled and not self._shared:
            return sum((self._outsize[p] for p in preds), Fraction(0))
        return sum((self.comm_time(p, node) for p in preds), Fraction(0))

    def ccomp(self, node: str) -> Fraction:
        """Computation time ``Ccomp(node) = P_k * c_k / s_u``."""
        work = self._anc_sel[node] * self.graph.application.cost(node)
        if not self._scaled:
            return work
        return work / self.server_speed(node)

    def cout(self, node: str) -> Fraction:
        """Total outgoing communication time ``Cout(node)`` (lower bound)."""
        succs = self.graph.successors(node)
        if not succs:
            return self.comm_time(node, OUTPUT)
        if not self._scaled and not self._shared:
            return len(succs) * self._outsize[node]
        return sum((self.comm_time(node, s) for s in succs), Fraction(0))

    def cexec(self, node: str, model: CommModel) -> Fraction:
        """Per-service execution time bound under *model* (Section 2.2)."""
        cin, ccomp, cout = self.cin(node), self.ccomp(node), self.cout(node)
        if model.overlaps_compute:
            return max(cin, ccomp, cout)
        return cin + ccomp + cout

    # -- per-server aggregation (shared mappings) ------------------------------
    def used_servers(self) -> Tuple[str, ...]:
        """Servers hosting at least one service of the graph (sorted).

        Without a mapping every service is its own server (the paper's
        regime), so the services themselves are returned.
        """
        if self.mapping is None:
            return tuple(sorted(self.graph.nodes))
        return tuple(
            sorted({self.mapping.server(n) for n in self.graph.nodes})
        )

    def server_services(self, server: str) -> Tuple[str, ...]:
        """The graph's services hosted by *server* (sorted)."""
        if self.mapping is None:
            return (server,) if server in self.graph.nodes else ()
        nodes = set(self.graph.nodes)
        return tuple(
            s for s in self.mapping.services_on(server) if s in nodes
        )

    def server_cin(self, server: str) -> Fraction:
        """Aggregated incoming communication time of *server* per data set.

        Sum of ``Cin`` over all co-located services; intra-server edges
        contribute zero (see :meth:`comm_time`), so only data actually
        crossing a link is counted.
        """
        return sum(
            (self.cin(n) for n in self.server_services(server)), Fraction(0)
        )

    def server_ccomp(self, server: str) -> Fraction:
        """Aggregated computation time of *server* per data set."""
        return sum(
            (self.ccomp(n) for n in self.server_services(server)), Fraction(0)
        )

    def server_cout(self, server: str) -> Fraction:
        """Aggregated outgoing communication time of *server* per data set."""
        return sum(
            (self.cout(n) for n in self.server_services(server)), Fraction(0)
        )

    def server_cexec(self, server: str, model: CommModel) -> Fraction:
        """Execution-time bound of *server* over all co-located services.

        Under OVERLAP the three aggregated quantities overlap each other
        (``max``); under the one-port models the server serialises
        everything (``sum``).  For an injective mapping this equals
        :meth:`cexec` of the single hosted service.
        """
        cin = self.server_cin(server)
        ccomp = self.server_ccomp(server)
        cout = self.server_cout(server)
        if model.overlaps_compute:
            return max(cin, ccomp, cout)
        return cin + ccomp + cout

    # -- global lower bounds ---------------------------------------------------
    def period_lower_bound(self, model: CommModel) -> Fraction:
        """``max_u Cexec(u)`` — a period lower bound valid for *model*.

        Achievable for OVERLAP (Theorem 1, which generalises verbatim to
        heterogeneous platforms — every quantity is already a time); not
        always achievable for the one-port models (Section 2.3's ``23/3``
        example).  Under a shared (non-injective) mapping the max runs over
        *servers* with their aggregated loads — the steady-state bound of
        the multi-application sequels; for injective mappings the two
        formulations coincide service by service.
        """
        if self._shared:
            return max(
                self.server_cexec(u, model) for u in self.used_servers()
            )
        return max(self.cexec(node, model) for node in self.graph.nodes)

    def communication_period_bound(self) -> Fraction:
        """``max_k max(Cin(k), Cout(k))`` — the communication-only bound.

        This is the quantity the paper calls "the maximum time needed for
        communications" in counter-example B.3.
        """
        return max(max(self.cin(n), self.cout(n)) for n in self.graph.nodes)

    def latency_lower_bound(self) -> Fraction:
        """Critical-path latency bound, valid for every model.

        Each service starts no earlier than every predecessor's finish time
        plus the corresponding (full-bandwidth) message time; exit nodes add
        their output message.  Port contention is ignored, hence a lower
        bound for one-port *and* multi-port schedules (a multi-port transfer
        at ratio ``r <= 1`` takes at least its full-bandwidth time).
        """
        graph = self.graph
        finish: Dict[str, Fraction] = {}
        for node in graph.topological_order:
            preds = graph.predecessors(node)
            if preds:
                start = max(finish[p] + self.comm_time(p, node) for p in preds)
            else:
                start = self.comm_time(INPUT, node)
            finish[node] = start + self.ccomp(node)
        return max(finish[x] + self.comm_time(x, OUTPUT) for x in graph.exit_nodes)

    # -- convenience -----------------------------------------------------------
    def comm_edges(self) -> List[CommEdge]:
        return comm_edges(self.graph)

    def total_work(self) -> Fraction:
        """Sum of all computation times (a utilisation statistic)."""
        return sum((self.ccomp(n) for n in self.graph.nodes), Fraction(0))

    def total_communication(self) -> Fraction:
        """Sum of all message sizes (input and output messages included)."""
        return sum(
            (self.message_size(a, b) for a, b in self.comm_edges()), Fraction(0)
        )

    def total_communication_time(self) -> Fraction:
        """Sum of all full-bandwidth transfer times on this platform."""
        return sum(
            (self.comm_time(a, b) for a, b in self.comm_edges()), Fraction(0)
        )


__all__ = ["CostModel", "CommEdge", "comm_edges", "effective_bandwidths"]

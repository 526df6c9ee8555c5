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
normalisation: a message's time is its size times the transfer
coefficient ``1/b`` of the link it crosses, and ``Ccomp`` divides by the
hosting server's speed.  With ``platform=None`` (or any *unit* platform
such as ``Platform.homogeneous(n)``) every value is bit-for-bit the
paper's.

A **shared** (non-injective) mapping — several services on one server, the
regime of the multi-application sequels — changes two things: an edge
between co-located services costs zero communication time (the data never
leaves the server), and the period bound aggregates ``Cin``/``Ccomp``/
``Cout`` per *server* over all co-located services
(:meth:`CostModel.server_cexec`, :meth:`CostModel.period_lower_bound`).
For injective mappings both rules degenerate to the paper's formulas
bit-for-bit.

:class:`CostAlgebra` writes this algebra once, on the flat arrays of
:class:`GraphArrays`, whose ``num`` hook picks the numeric tier:
:func:`exact_num` keeps exact ``Fraction`` values (:class:`CostModel`),
``float`` gives the fast tier (:class:`~repro.core.numeric.FloatCosts`).
Every fold runs in the order the batched kernels replay bit-for-bit.

.. note::
   Appendix A of the paper writes the message size on an edge
   ``(C_i, C_j)`` as ``prod_{k in Ancest_i} sigma_k`` (without ``sigma_i``),
   but every worked example (B.1, B.2, B.3) and the ``Cout`` formula require
   the message to be the *output* of the sender, i.e. including ``sigma_i``.
   We follow the examples; see DESIGN.md "Known paper slips".
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union,
)

from .constants import INPUT, OUTPUT
from .graph import ExecutionGraph
from .models import CommModel
from .platform import Mapping, Platform, link_flow_counts

CommEdge = Tuple[str, str]
#: A quantity in either numeric tier.
Num = Union[Fraction, float]
#: ``(Cin, Ccomp, Cout)`` of one service, or their sums over a server.
Terms = Sequence[Num]
#: Contended transfer coefficients of one assignment, by server pair.
Contended = Dict[Tuple[str, str], Num]
#: Per-service weights in one tier (``None`` for weight 1).
Weights = Optional[List[Optional[Num]]]

ONE = Fraction(1)
ZERO = Fraction(0)


def exact_num(value: Fraction) -> Fraction:
    """The exact tier's numeric hook: every quantity stays a ``Fraction``."""
    return value


def comm_edges(graph: ExecutionGraph) -> List[CommEdge]:
    """All communications of a plan built on *graph*, in a stable order.

    Includes one ``(INPUT, k)`` edge per entry node and one ``(k, OUTPUT)``
    edge per exit node, besides the graph's own edges.
    """
    edges: List[CommEdge] = [(INPUT, k) for k in graph.entry_nodes]
    edges.extend(sorted(graph.edges))
    edges.extend((k, OUTPUT) for k in graph.exit_nodes)
    return edges


def combine(terms: Terms, model: CommModel) -> Num:
    """``Cexec`` of ``(Cin, Ccomp, Cout)``: their max under OVERLAP, their
    sum under the one-port models (Section 2.2)."""
    if model.overlaps_compute:
        return max(terms)
    return terms[0] + terms[1] + terms[2]


class GraphArrays:
    """Mapping-independent flat arrays of one execution graph.

    Node order is the application's canonical name order; every array is
    indexed by that integer position.  *num* converts each selectivity and
    cost once — ``float`` (the fast tier) or :func:`exact_num` — and the
    ancestor products, output sizes and work volumes are folded once in
    that tier, for every evaluation of the graph to share.
    """

    __slots__ = (
        "graph", "names", "index", "n", "num", "one", "zero", "sigma",
        "cost", "preds", "succs", "topo", "anc", "outsize", "work",
    )

    def __init__(
        self, graph: ExecutionGraph, num: Callable[[Fraction], Num] = float
    ) -> None:
        self.graph = graph
        names = self.names = list(graph.nodes)
        index = self.index = {name: i for i, name in enumerate(names)}
        self.n = len(names)
        self.num = num
        one = self.one = num(ONE)
        self.zero = num(ZERO)
        app = graph.application
        sigma = self.sigma = [num(app.selectivity(name)) for name in names]
        cost = self.cost = [num(app.cost(name)) for name in names]
        self.preds = [[index[p] for p in graph.predecessors(x)] for x in names]
        self.succs = [[index[s] for s in graph.successors(x)] for x in names]
        self.topo = [index[name] for name in graph.topological_order]
        anc = self.anc = []
        for name in names:
            # Canonical name order, not set-iteration order: a deterministic
            # float expression the batched kernels replay bit-for-bit.
            # Products start at their first factor (``1 * x == x``).
            prod = one
            for j in sorted(index[other] for other in graph.ancestors(name)):
                prod = sigma[j] if prod is one else prod * sigma[j]
            anc.append(prod)
        self.outsize = [s if p is one else p * s for p, s in zip(anc, sigma)]
        self.work = [c if p is one else p * c for p, c in zip(anc, cost)]


class CostAlgebra:
    """The Section-2.1 algebra of one graph on one platform.

    Written once on *arrays*, in their tier, for any assignment ``server``
    (the server of each service by array index; the service names
    themselves without a platform): the transfer coefficient
    (:meth:`coef`), the per-service fold (:meth:`terms`), the weighted
    per-server sum (:meth:`server_sums`) and the critical-path latency
    bound (:meth:`latency`).  Unit coefficients and weights skip their
    multiply; converted platform quantities are shared through
    :meth:`Platform.tier_cache <repro.core.platform.Platform.tier_cache>`.
    """

    __slots__ = ("arrays", "platform", "scaled", "_memo", "_inv_bw", "_speed")

    def __init__(
        self, arrays: GraphArrays, platform: Optional[Platform] = None
    ) -> None:
        self.arrays = arrays
        self.platform = platform
        # Unit platforms keep the paper's normalised arithmetic (and a
        # contended platform is never unit).
        self.scaled = platform is not None and not platform.is_unit
        memo = {} if platform is None else platform.tier_cache(arrays.num)
        self._memo = memo
        self._inv_bw: Dict[Tuple[str, str], Num] = memo.setdefault(
            "inverse bandwidths", {}
        )
        self._speed: Dict[str, Num] = memo.setdefault("speeds", {})

    def weight_list(self, weights: Optional[Dict[str, Fraction]]) -> Weights:
        """Per-service *weights* in this tier, or ``None`` without any."""
        if not weights:
            return None
        return [
            None if w is None or w == 1 else self.arrays.num(w)
            for w in map(weights.get, self.arrays.names)
        ]

    def ccomp_of(self, i: int, server: Sequence[str]) -> Num:
        """``Ccomp`` of service *i*: its work volume over its host's speed."""
        if not self.scaled:
            return self.arrays.work[i]
        speed = self._speed.get(server[i])
        if speed is None:
            speed = self._speed[server[i]] = self.arrays.num(
                self.platform.speed(server[i])
            )
        return self.arrays.work[i] / speed

    def contention(
        self, server: Sequence[str], servers: Optional[FrozenSet[str]] = None
    ) -> Contended:
        """``max_l k_l / cap_l`` of each cross-server pair under *server*.

        Each graph edge crossing servers is one concurrent flow, and ``k``
        flows on a link of capacity ``c`` each see ``c / k``.  Only pairs
        touching *servers* when given; empty off contended topologies, and
        pairs with an empty route keep their platform bandwidth.
        """
        platform, a = self.platform, self.arrays
        if not self.scaled or not platform.has_contention:
            return {}
        flows = [
            (server[i], server[j])
            for i in range(a.n)
            for j in a.succs[i]
            if server[i] != server[j]
        ]
        counts = link_flow_counts(platform, flows)
        invcap = self._memo.get("inverse capacities")
        if invcap is None:
            invcap = self._memo["inverse capacities"] = [
                a.one / a.num(c) for c in platform.link_capacities()
            ]
        out: Contended = {}
        for pair in set(flows):
            if servers is None or pair[0] in servers or pair[1] in servers:
                route = platform.route(*pair)
                if route:
                    out[pair] = max(a.num(counts[l]) * invcap[l] for l in route)
        return out

    def coef(
        self, src: str, dst: str, contended: Optional[Contended] = None
    ) -> Num:
        """Transfer coefficient of a message from server *src* to *dst*
        (either may be INPUT/OUTPUT): ``0`` between co-located services,
        ``1`` on a unit platform, the :meth:`contention` bottleneck of a
        contended pair, ``1/b`` otherwise."""
        if src == dst:
            return self.arrays.zero
        if not self.scaled:
            return self.arrays.one
        found = contended.get((src, dst)) if contended else None
        if found is None:
            found = self._inv_bw.get((src, dst))
        if found is None:
            bandwidth = self.arrays.num(self.platform.bandwidth(src, dst))
            found = self._inv_bw[(src, dst)] = self.arrays.one / bandwidth
        return found

    def transfer(
        self,
        size: Num,
        src: str,
        dst: str,
        contended: Optional[Contended] = None,
    ) -> Optional[Num]:
        """Time of a message of *size* from *src* to *dst*; ``None`` if free."""
        c = self.coef(src, dst, contended)
        if c is self.arrays.zero:
            return None
        return size if c is self.arrays.one else size * c

    def terms(
        self, i: int, server: Sequence[str], contended: Optional[Contended] = None
    ) -> Terms:
        """``(Cin, Ccomp, Cout)`` of service *i* under *server*.

        ``Cin`` sums the messages in from the predecessors (one unit input
        message for an entry node) and ``Cout`` those out to the successors
        (the output message for an exit node), in stored edge order; free
        messages are skipped and each sum starts at its first term, which
        in floats is bit-for-bit the batched kernels' zero-started sum.
        """
        a, transfer, zero = self.arrays, self.transfer, self.arrays.zero
        here = server[i]
        if a.preds[i]:
            cin = zero
            for p in a.preds[i]:
                t = transfer(a.outsize[p], server[p], here, contended)
                if t is not None:
                    cin = t if cin is zero else cin + t
        else:
            cin = self.coef(INPUT, here)
        size = a.outsize[i]
        if a.succs[i]:
            cout = zero
            for s in a.succs[i]:
                t = transfer(size, here, server[s], contended)
                if t is not None:
                    cout = t if cout is zero else cout + t
        else:
            cout = transfer(size, here, OUTPUT)
        return cin, self.ccomp_of(i, server), cout

    @staticmethod
    def weighted(terms: Terms, w: Optional[Num]) -> Terms:
        """*terms* scaled by the weight *w* (``None`` = 1)."""
        if w is None:
            return terms
        return (w * terms[0], w * terms[1], w * terms[2])

    def server_sums(
        self,
        server: Sequence[str],
        terms: Iterable[Tuple[int, Terms]],
        weights: Weights = None,
    ) -> Dict[str, List[Num]]:
        """``[Cin, Ccomp, Cout]`` summed per server over ``(i, terms)``
        pairs in the order given, service ``i`` weighted by ``weights[i]``."""
        sums: Dict[str, List[Num]] = {}
        for i, t in terms:
            if weights is not None:
                t = self.weighted(t, weights[i])
            acc = sums.get(server[i])
            if acc is None:
                sums[server[i]] = list(t)
            else:
                acc[0] += t[0]
                acc[1] += t[1]
                acc[2] += t[2]
        return sums

    def server_loads(
        self,
        server: Sequence[str],
        terms: Iterable[Tuple[int, Terms]],
        model: CommModel,
        weights: Weights = None,
    ) -> Dict[str, Num]:
        """Each server's :meth:`server_sums` under :func:`combine`."""
        sums = self.server_sums(server, terms, weights)
        return {u: combine(acc, model) for u, acc in sums.items()}

    def assignment_sums(
        self,
        server: Sequence[str],
        weights: Weights = None,
        servers: Optional[FrozenSet[str]] = None,
    ) -> Dict[str, List[Num]]:
        """Weighted ``[Cin, Ccomp, Cout]`` of every server *server* uses,
        folded in full — only of those in *servers* when given."""
        contended = self.contention(server, servers)
        nodes: Iterable[int] = range(self.arrays.n)
        if servers is not None:
            nodes = [i for i in nodes if server[i] in servers]
        terms = ((i, self.terms(i, server, contended)) for i in nodes)
        return self.server_sums(server, terms, weights)

    def assignment_loads(
        self,
        server: Sequence[str],
        model: CommModel,
        weights: Weights = None,
        servers: Optional[FrozenSet[str]] = None,
    ) -> Dict[str, Num]:
        """Each server's :meth:`assignment_sums` under :func:`combine`."""
        sums = self.assignment_sums(server, weights, servers)
        return {u: combine(acc, model) for u, acc in sums.items()}

    def latency(
        self, server: Sequence[str], contended: Optional[Contended] = None
    ) -> Num:
        """Critical-path latency bound, valid for every model.

        A service starts once every predecessor has finished and sent it
        its message (an entry node after the input message) and finishes
        ``Ccomp`` later; exit nodes add their output message.  Port
        contention is ignored, hence a lower bound for one-port *and*
        multi-port schedules (a transfer at ratio ``r <= 1`` takes at least
        its full-bandwidth time).
        """
        a, transfer = self.arrays, self.transfer
        finish: List[Num] = [a.zero] * a.n
        for i in a.topo:
            start = None if a.preds[i] else self.coef(INPUT, server[i])
            for p in a.preds[i]:
                t = transfer(a.outsize[p], server[p], server[i], contended)
                t = finish[p] if t is None else finish[p] + t
                if start is None or t > start:
                    start = t
            finish[i] = start + self.ccomp_of(i, server)
        return max(
            finish[i] + transfer(a.outsize[i], server[i], OUTPUT)
            for i in range(a.n)
            if not a.succs[i]
        )


class MappedCosts(CostAlgebra):
    """The algebra bound to one ``(graph, platform, mapping)``.

    A mapping needs a platform, and a platform without one gets the
    positional :meth:`Mapping.default <repro.core.platform.Mapping.default>`.
    Every service's terms are folded once, on the first query that needs
    them.  :class:`CostModel` (exact) and
    :class:`~repro.core.numeric.FloatCosts` (float) are the two
    instantiations; *weights* (the concurrent planner's
    ``1 / period_target``) weigh the period's per-server sums.
    """

    __slots__ = (
        "graph", "mapping", "server", "shared", "weights", "contended", "_terms",
    )

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Optional[Platform],
        mapping: Optional[Mapping],
        arrays: GraphArrays,
        weights: Optional[Dict[str, Fraction]] = None,
    ) -> None:
        if platform is None:
            mapping = None
        elif mapping is None:
            mapping = Mapping.default(graph.nodes, platform)
        else:
            mapping.validate_on(graph.nodes, platform)
        super().__init__(arrays, platform)
        self.graph = graph
        self.mapping = mapping
        self.server = (
            list(arrays.names)
            if mapping is None
            else [mapping.server(name) for name in arrays.names]
        )
        # Weighted queries always aggregate per server: a shared-space
        # candidate that happens to be injective is still priced as the
        # weighted per-server load the concurrent searches certify against.
        self.shared = mapping is not None and (
            not mapping.is_injective or bool(weights)
        )
        self.weights = self.weight_list(weights)
        self.contended = self.contention(self.server)
        self._terms: Optional[List[Terms]] = None

    def all_terms(self) -> List[Terms]:
        """``(Cin, Ccomp, Cout)`` of every service, by array index."""
        if self._terms is None:
            self._terms = [
                self.terms(i, self.server, self.contended)
                for i in range(self.arrays.n)
            ]
        return self._terms

    def ancestor_selectivity(self, node: str) -> Num:
        """``prod_{j in Ancest(node)} sigma_j`` — input data-set size of *node*."""
        return self.arrays.anc[self.arrays.index[node]]

    def outsize(self, node: str) -> Num:
        """Size of the data emitted by *node* (its input size times ``sigma``)."""
        return self.arrays.outsize[self.arrays.index[node]]

    def cin(self, node: str) -> Num:
        """Total incoming communication time ``Cin(node)`` (lower bound)."""
        return self.all_terms()[self.arrays.index[node]][0]

    def ccomp(self, node: str) -> Num:
        """Computation time ``Ccomp(node) = P_k * c_k / s_u``."""
        return self.ccomp_of(self.arrays.index[node], self.server)

    def cout(self, node: str) -> Num:
        """Total outgoing communication time ``Cout(node)`` (lower bound)."""
        return self.all_terms()[self.arrays.index[node]][2]

    def cexec(self, node: str, model: CommModel) -> Num:
        """Per-service execution time bound under *model* (Section 2.2)."""
        return combine(self.all_terms()[self.arrays.index[node]], model)

    def used_servers(self) -> Tuple[str, ...]:
        """Servers hosting a service of the graph (sorted); without a
        mapping every service is its own server."""
        return tuple(sorted(set(self.server)))

    def loads(
        self,
        model: CommModel,
        nodes: Optional[Iterable[int]] = None,
        weights: Weights = None,
    ) -> Dict[str, Num]:
        """Combined load of each server over *nodes* (array indices,
        default all), weighted by *weights* when given."""
        terms = self.all_terms()
        items = (
            enumerate(terms) if nodes is None else ((i, terms[i]) for i in nodes)
        )
        return self.server_loads(self.server, items, model, weights)

    def _server_sum(self, server: str) -> Terms:
        zero = self.arrays.zero
        sums = self.server_sums(self.server, enumerate(self.all_terms()))
        return sums.get(server, (zero, zero, zero))

    def server_cin(self, server: str) -> Num:
        """Aggregated incoming communication time of *server* per data set
        (intra-server edges contribute zero)."""
        return self._server_sum(server)[0]

    def server_ccomp(self, server: str) -> Num:
        """Aggregated computation time of *server* per data set."""
        return self._server_sum(server)[1]

    def server_cout(self, server: str) -> Num:
        """Aggregated outgoing communication time of *server* per data set."""
        return self._server_sum(server)[2]

    def server_cexec(self, server: str, model: CommModel) -> Num:
        """Execution-time bound of *server* over its co-located services;
        for an injective mapping, :meth:`cexec` of the hosted service."""
        return combine(self._server_sum(server), model)

    def _period(self, model: CommModel) -> Num:
        if self.shared:
            return max(self.loads(model, weights=self.weights).values())
        return max(combine(t, model) for t in self.all_terms())


class CostModel(MappedCosts):
    """Exact evaluation of all Section-2.1 quantities for one graph.

    The exact (``Fraction``) instantiation of :class:`MappedCosts`, plus
    the per-message API the schedulers read.

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

    __slots__ = ()

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
    ) -> None:
        super().__init__(graph, platform, mapping, GraphArrays(graph, exact_num))

    def _endpoint(self, node: str) -> str:
        """The platform endpoint of a service (or INPUT/OUTPUT)."""
        if node in (INPUT, OUTPUT):
            return node
        return self.server[self.arrays.index[node]]

    def link_bandwidth(self, src: str, dst: str) -> Fraction:
        """``b_{u,v}`` of the link carrying the communication ``src -> dst``.

        On a contended topology this is the *effective* bandwidth of the
        pair under the current ``(graph, mapping)`` flow pattern — the
        route bottleneck with concurrent flows dividing each shared
        link's capacity.
        """
        if not self.scaled:
            return ONE
        a, b = self._endpoint(src), self._endpoint(dst)
        found = self.contended.get((a, b))
        if found is None:
            return self.platform.bandwidth(a, b)
        return ONE / found

    def message_size(self, src: str, dst: str) -> Fraction:
        """Size of the message carried by communication ``src -> dst``.

        ``src = INPUT`` gives the unit-size initial data set; ``dst = OUTPUT``
        carries the sender's output to the outside world.  Sizes are
        platform-independent; :meth:`comm_time` is the transfer time.
        """
        if src == INPUT:
            return ONE
        if dst != OUTPUT and (src, dst) not in self.graph.edges:
            raise KeyError(f"({src!r}, {dst!r}) is not an edge of the execution graph")
        return self.outsize(src)

    def comm_time(self, src: str, dst: str) -> Fraction:
        """Full-bandwidth transfer time of ``src -> dst``: size / ``b_{u,v}``.

        Equals :meth:`message_size` on the unit platform.  This is the
        duration of a one-port communication and the minimum duration of a
        multi-port one (ratio 1).  Under a shared (non-injective) mapping an
        edge between two services hosted by the *same* server crosses no
        link and costs zero time — the data never leaves the server.
        """
        time = self.transfer(
            self.message_size(src, dst),
            self._endpoint(src),
            self._endpoint(dst),
            self.contended,
        )
        return ZERO if time is None else time

    def server_services(self, server: str) -> Tuple[str, ...]:
        """The graph's services hosted by *server* (sorted)."""
        names = self.arrays.names
        return tuple(sorted(n for n, u in zip(names, self.server) if u == server))

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
        return self._period(model)

    def communication_period_bound(self) -> Fraction:
        """``max_k max(Cin(k), Cout(k))`` — the communication-only bound
        the paper calls "the maximum time needed for communications" in
        counter-example B.3."""
        return max(max(t[0], t[2]) for t in self.all_terms())

    def latency_lower_bound(self) -> Fraction:
        """Critical-path latency bound, valid for every model
        (:meth:`CostAlgebra.latency`)."""
        return self.latency(self.server, self.contended)

    def comm_edges(self) -> List[CommEdge]:
        return comm_edges(self.graph)

    def total_work(self) -> Fraction:
        """Sum of all computation times (a utilisation statistic)."""
        return sum((t[1] for t in self.all_terms()), ZERO)

    def total_communication(self) -> Fraction:
        """Sum of all message sizes (input and output messages included)."""
        return sum(
            (self.message_size(a, b) for a, b in self.comm_edges()), ZERO
        )


__all__ = [
    "CommEdge",
    "CostAlgebra",
    "CostModel",
    "GraphArrays",
    "MappedCosts",
    "combine",
    "comm_edges",
    "exact_num",
]

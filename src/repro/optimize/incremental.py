"""Delta evaluation for the searches' hot paths (exact-Fraction parity).

The reparenting local search and the placement local search both score
hundreds of near-identical candidates per pass, and the baseline path
rebuilds an :class:`~repro.core.ExecutionGraph` plus a full
:class:`~repro.core.CostModel` for every one of them.  The Section-2.1
algebra makes that unnecessary:

* **Reparenting** a service ``v`` (moving its subtree under a new parent)
  rescales the ancestor-selectivity product of every node in ``v``'s
  subtree by a single factor ``f = P_new(v) / P_old(v)`` — so the
  subtree's ``Cin``/``Ccomp``/``Cout`` all scale by ``f`` — and only the
  old and new parents' ``Cout`` (one message removed / added) plus ``v``'s
  own ``Cin`` need recomputation.  :class:`IncrementalForestPeriod`
  maintains exactly those quantities.
* **Reassigning or swapping servers** on a fixed graph leaves every data
  size untouched; only the moved services' ``Ccomp`` (new speed) and the
  communication times of their incident edges (new links) change.
  :class:`IncrementalMappingCosts` recomputes just the touched services.

Both evaluators compute the same value as a fresh
:meth:`CostModel.period_lower_bound` — bit-for-bit, in exact
:class:`~fractions.Fraction` arithmetic (property-tested against full
recomputation).  That bound *is* the period objective for OVERLAP
(Theorem 1, on any platform) and for ``Effort.BOUND`` under the one-port
models, which is when the searches engage the delta path; other
configurations keep the full evaluation.

**Two numeric tiers.**  The evaluators are numeric-generic: every input
quantity passes through the class's ``_num`` hook once at construction,
after which all arithmetic stays in that tier.  The base classes keep the
identity hook (exact ``Fraction``s); the ``Float*`` twins
(:class:`FloatForestPeriod`, :class:`FloatMappingCosts`,
:class:`FloatSharedCosts`) convert to native floats, turning every delta
into a handful of float multiplies — one to two orders of magnitude
faster.  The ``Certified*`` wrappers pair an exact evaluator with its
float twin: candidates are scored on the float tier and only the ones
within the :data:`~repro.core.CERT_EPS` band of the current value are
re-scored exactly, so the accept/reject decisions — and hence the whole
search trajectory — stay **bit-for-bit identical** to the exact tier.

    >>> from repro import CommModel, ExecutionGraph, make_application
    >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
    >>> inc = IncrementalForestPeriod(
    ...     ExecutionGraph.empty(app), model=CommModel.OVERLAP)
    >>> inc.value()
    Fraction(8, 1)
    >>> inc.score_reparent("B", "A")     # trial only — nothing committed
    Fraction(4, 1)
    >>> inc.apply_reparent("B", "A")
    >>> inc.value(), sorted(inc.graph().edges)
    (Fraction(4, 1), [('A', 'B')])
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core import (
    CERT_EPS,
    INPUT,
    OUTPUT,
    CommModel,
    CostModel,
    Exactness,
    ExecutionGraph,
    FloatCosts,
    GraphArrays,
    Mapping,
    MappingBatch,
    Platform,
    certified_threshold,
)
from ..core.costs import effective_bandwidths

ONE = Fraction(1)
ZERO = Fraction(0)

#: A quantity in either numeric tier.
Num = Union[Fraction, float]


def _require_supported(
    platform: Optional[Platform], mapping: Optional[Mapping]
) -> Tuple[Optional[Platform], Optional[Mapping]]:
    """Unit platforms collapse to the paper's normalised model."""
    if mapping is not None and not mapping.is_injective:
        raise ValueError(
            "incremental reparenting assumes an injective mapping; use "
            "IncrementalSharedCosts for shared-server (concurrent) mappings"
        )
    if platform is None or platform.is_unit:
        return None, None
    if platform.has_contention:
        raise ValueError(
            "incremental evaluation does not model link contention: one "
            "move changes the flow counts, hence every co-routed edge's "
            "effective bandwidth; use FullPlacementCosts / a full "
            "CostModel recompute on contended topologies"
        )
    if mapping is None:
        raise ValueError(
            "incremental evaluation on a non-unit platform needs a pinned "
            "mapping (a free mapping re-optimises the placement per graph)"
        )
    return platform, mapping


class IncrementalForestPeriod:
    """Mutable ``Cin``/``Ccomp``/``Cout`` state of a forest, with deltas.

    Parameters mirror :class:`~repro.core.CostModel`: the value maintained
    is ``max_k Cexec(k)`` where ``Cexec`` is ``max(Cin, Ccomp, Cout)``
    under OVERLAP and the sum under the one-port models — i.e. exactly
    ``CostModel(graph, platform, mapping).period_lower_bound(model)``.

    ``score_reparent`` prices a candidate move without committing (``None``
    when the move would create a cycle); ``apply_reparent`` commits one.
    """

    #: Numeric-tier hook: every selectivity, cost, speed and bandwidth is
    #: converted through this exactly once.  The base class keeps exact
    #: ``Fraction``s; :class:`FloatForestPeriod` swaps in ``float``.
    _num = staticmethod(lambda value: value)

    def __init__(
        self,
        graph: ExecutionGraph,
        *,
        model: CommModel = CommModel.OVERLAP,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
    ) -> None:
        if not graph.is_forest:
            raise ValueError("incremental reparenting requires a forest")
        self.app = graph.application
        if self.app.precedence:
            raise ValueError("incremental reparenting assumes no precedence")
        self.model = model
        self.platform, self.mapping = _require_supported(platform, mapping)
        num = self._num
        self._one: Num = num(ONE)
        self._zero: Num = num(Fraction(0))
        self._sigma: Dict[str, Num] = {
            n: num(self.app.selectivity(n)) for n in self.app.names
        }
        self._costv: Dict[str, Num] = {
            n: num(self.app.cost(n)) for n in self.app.names
        }
        self._bw_cache: Dict[Tuple[str, str], Num] = {}
        self._speed_cache: Dict[str, Num] = {}
        self.parents: Dict[str, Optional[str]] = {}
        self.children: Dict[str, Set[str]] = {n: set() for n in self.app.names}
        for node in graph.nodes:
            preds = graph.predecessors(node)
            parent = preds[0] if preds else None
            self.parents[node] = parent
            if parent is not None:
                self.children[parent].add(node)
        self._anc: Dict[str, Num] = {}
        self._cin: Dict[str, Num] = {}
        self._ccomp: Dict[str, Num] = {}
        self._cout: Dict[str, Num] = {}
        for node in graph.topological_order:
            self._recompute(node)

    # -- platform helpers --------------------------------------------------
    def _bw(self, src: str, dst: str) -> Num:
        if self.platform is None:
            return self._one
        found = self._bw_cache.get((src, dst))
        if found is not None:
            return found
        endpoints = []
        for end in (src, dst):
            if end in (INPUT, OUTPUT):
                endpoints.append(end)
            else:
                endpoints.append(self.mapping.server(end))  # type: ignore[union-attr]
        value = self._num(self.platform.bandwidth(endpoints[0], endpoints[1]))
        self._bw_cache[(src, dst)] = value
        return value

    def _speed(self, node: str) -> Num:
        if self.platform is None:
            return self._one
        found = self._speed_cache.get(node)
        if found is None:
            found = self._speed_cache[node] = self._num(
                self.platform.speed(self.mapping.server(node))  # type: ignore[union-attr]
            )
        return found

    # -- per-node quantities ----------------------------------------------
    def _outsize(self, node: str) -> Num:
        return self._anc[node] * self._sigma[node]

    def _cin_of(self, node: str, parent: Optional[str], anc: Num) -> Num:
        if parent is None:
            return self._one / self._bw(INPUT, node)
        return anc / self._bw(parent, node)

    def _cout_of(
        self, node: str, anc: Num, children: Iterable[str]
    ) -> Num:
        outsize = anc * self._sigma[node]
        kids = list(children)
        if not kids:
            return outsize / self._bw(node, OUTPUT)
        return sum(
            (outsize / self._bw(node, child) for child in kids), self._zero
        )

    def _recompute(self, node: str) -> None:
        parent = self.parents[node]
        anc = self._one if parent is None else self._outsize(parent)
        self._anc[node] = anc
        self._cin[node] = self._cin_of(node, parent, anc)
        self._ccomp[node] = anc * self._costv[node] / self._speed(node)
        self._cout[node] = self._cout_of(node, anc, self.children[node])

    def _cexec(self, cin: Num, ccomp: Num, cout: Num) -> Num:
        if self.model.overlaps_compute:
            return max(cin, ccomp, cout)
        return cin + ccomp + cout

    # -- public API --------------------------------------------------------
    def value(self) -> Num:
        """``max_k Cexec(k)`` of the current forest."""
        return max(
            self._cexec(self._cin[n], self._ccomp[n], self._cout[n])
            for n in self.app.names
        )

    def subtree(self, node: str) -> List[str]:
        """*node* plus all its descendants (the set a reparent rescales)."""
        out = [node]
        stack = [node]
        while stack:
            for child in self.children[stack.pop()]:
                out.append(child)
                stack.append(child)
        return out

    def _trial(
        self, node: str, new_parent: Optional[str]
    ) -> Optional[Dict[str, Tuple[Num, Num, Num]]]:
        """(cin, ccomp, cout) overrides for the move, or ``None`` on a cycle."""
        old_parent = self.parents[node]
        if new_parent == old_parent or new_parent == node:
            return None
        sub = self.subtree(node)
        if new_parent is not None and new_parent in sub:
            return None  # the new parent descends from node: cycle
        overrides: Dict[str, Tuple[Num, Num, Num]] = {}
        new_anc = self._one if new_parent is None else self._outsize(new_parent)
        factor = new_anc / self._anc[node]  # selectivities are > 0
        for m in sub:
            if m == node:
                cin = self._cin_of(node, new_parent, new_anc)
            else:
                cin = self._cin[m] * factor
            overrides[m] = (
                cin, self._ccomp[m] * factor, self._cout[m] * factor
            )
        if old_parent is not None:
            kids = self.children[old_parent] - {node}
            overrides[old_parent] = (
                self._cin[old_parent],
                self._ccomp[old_parent],
                self._cout_of(old_parent, self._anc[old_parent], kids),
            )
        if new_parent is not None:
            kids = self.children[new_parent] | {node}
            overrides[new_parent] = (
                self._cin[new_parent],
                self._ccomp[new_parent],
                self._cout_of(new_parent, self._anc[new_parent], kids),
            )
        return overrides

    def score_reparent(self, node: str, new_parent: Optional[str]) -> Optional[Num]:
        """The period bound after moving *node* under *new_parent*.

        ``None`` means the move is invalid (cycle or no-op).  Costs
        ``O(|subtree| + n)``; nothing is committed.
        """
        overrides = self._trial(node, new_parent)
        if overrides is None:
            return None
        best = None
        for m in self.app.names:
            cin, ccomp, cout = overrides.get(
                m, (self._cin[m], self._ccomp[m], self._cout[m])
            )
            cexec = self._cexec(cin, ccomp, cout)
            if best is None or cexec > best:
                best = cexec
        assert best is not None
        return best

    def apply_reparent(self, node: str, new_parent: Optional[str]) -> None:
        """Commit a reparent previously priced by :meth:`score_reparent`."""
        overrides = self._trial(node, new_parent)
        if overrides is None:
            raise ValueError(
                f"reparenting {node!r} under {new_parent!r} is not a valid move"
            )
        old_parent = self.parents[node]
        if old_parent is not None:
            self.children[old_parent].discard(node)
        if new_parent is not None:
            self.children[new_parent].add(node)
        self.parents[node] = new_parent
        factor_base = self._anc[node]
        new_anc = self._one if new_parent is None else self._outsize(new_parent)
        factor = new_anc / factor_base
        for m in self.subtree(node):
            self._anc[m] *= factor
        for m, (cin, ccomp, cout) in overrides.items():
            self._cin[m], self._ccomp[m], self._cout[m] = cin, ccomp, cout

    def graph(self) -> ExecutionGraph:
        """The current forest as an :class:`~repro.core.ExecutionGraph`."""
        return ExecutionGraph.from_parents(self.app, self.parents)

    def parent_row(self) -> Tuple[int, ...]:
        """The current forest as a parent-vector row: one index into
        ``app.names`` per service, ``-1`` marking a root — the encoding
        :class:`~repro.core.ForestBatch` rows and the branch-and-bound
        state keys share."""
        names = self.app.names
        index = {name: i for i, name in enumerate(names)}
        return tuple(
            -1 if self.parents[name] is None else index[self.parents[name]]
            for name in names
        )


class FloatForestPeriod(IncrementalForestPeriod):
    """Float twin of :class:`IncrementalForestPeriod` (the fast tier).

    Same moves, same API, native-float arithmetic throughout — values
    agree with the exact evaluator to ~1e-13 relative (property-tested at
    1e-9).  Pair it with the exact class through
    :class:`CertifiedForestPeriod` when the search result must stay
    bit-for-bit exact.

        >>> from repro import CommModel, ExecutionGraph, make_application
        >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        >>> fast = FloatForestPeriod(
        ...     ExecutionGraph.empty(app), model=CommModel.OVERLAP)
        >>> fast.value(), fast.score_reparent("B", "A")
        (8.0, 4.0)
    """

    _num = staticmethod(float)


class CertifiedForestPeriod:
    """Exact + float forest evaluators behind one certified interface.

    Candidate reparents are priced on the float tier; only candidates
    whose float value lands inside the :data:`~repro.core.CERT_EPS` band
    of the current value are re-priced exactly.  Because the float error
    is orders of magnitude below the band, every move the exact evaluator
    would accept gets an exact score here too — the search trajectory is
    bit-for-bit the exact one, at float cost for the (vast) majority of
    rejected candidates.  Drop-in wherever an
    :class:`IncrementalForestPeriod` is accepted.
    """

    __slots__ = ("exact", "fast", "eps", "_value", "_cut")

    def __init__(
        self,
        graph: ExecutionGraph,
        *,
        model: CommModel = CommModel.OVERLAP,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
        eps: float = CERT_EPS,
    ) -> None:
        self.exact = IncrementalForestPeriod(
            graph, model=model, platform=platform, mapping=mapping
        )
        self.fast = FloatForestPeriod(
            graph, model=model, platform=platform, mapping=mapping
        )
        self.eps = eps
        self._refresh()

    def _refresh(self) -> None:
        self._value = self.exact.value()
        self._cut = certified_threshold(float(self._value), self.eps)

    def value(self) -> Fraction:
        return self.exact.value()

    def score_reparent(self, node: str, new_parent: Optional[str]) -> Optional[Num]:
        trial = self.fast.score_reparent(node, new_parent)
        if trial is None:
            return None
        if trial <= self._cut:
            return self.exact.score_reparent(node, new_parent)
        # Provably worse than the current value: the float score is safe
        # to return (it exceeds the exact current value too).
        return trial

    def apply_reparent(self, node: str, new_parent: Optional[str]) -> None:
        self.exact.apply_reparent(node, new_parent)
        self.fast.apply_reparent(node, new_parent)
        self._refresh()

    @property
    def parents(self) -> Dict[str, Optional[str]]:
        return self.exact.parents

    def subtree(self, node: str) -> List[str]:
        return self.exact.subtree(node)

    def graph(self) -> ExecutionGraph:
        return self.exact.graph()

    def parent_row(self) -> Tuple[int, ...]:
        return self.exact.parent_row()


def period_delta(
    graph: ExecutionGraph,
    model: CommModel,
    effort,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    exactness: Exactness = Exactness.EXACT,
) -> Optional["IncrementalForestPeriod"]:
    """An incremental forest evaluator when it provably computes the
    period objective for this configuration, else ``None``.

    The maintained quantity is the Section-2.1 bound, which *is* the
    objective for OVERLAP (Theorem 1, any platform — at every effort) and
    for the bound effort under the one-port models.  A non-unit platform
    needs a pinned mapping (a free mapping re-runs the placement optimiser
    per graph, which a structural delta cannot reproduce).  This is the
    eligibility rule shared by the local-search solver and the
    branch-and-bound incumbent seeding.

    *exactness* picks the numeric tier: ``EXACT`` returns the classic
    :class:`IncrementalForestPeriod`, ``CERTIFIED`` the
    :class:`CertifiedForestPeriod` pair (bit-for-bit identical decisions,
    float-priced rejections), ``FAST`` the :class:`FloatForestPeriod`
    twin (float values throughout — re-score the final graph exactly).
    """
    from .evaluation import kernel_covers

    if not kernel_covers("period", model, effort):
        return None
    if platform is not None and platform.has_contention:
        # One reparent changes the flow pattern, hence the effective
        # bandwidth of every co-routed edge — the subtree-rescale delta
        # is invalid.  Callers fall back to full recomputation.
        return None
    if platform is not None and not platform.is_unit and mapping is None:
        return None
    if mapping is not None and not mapping.is_injective:
        return None
    if not graph.is_forest or graph.application.precedence:
        return None
    exactness = Exactness.coerce(exactness)
    try:
        if exactness is Exactness.FAST:
            return FloatForestPeriod(
                graph, model=model, platform=platform, mapping=mapping
            )
        if exactness is Exactness.CERTIFIED:
            return CertifiedForestPeriod(  # type: ignore[return-value]
                graph, model=model, platform=platform, mapping=mapping
            )
    except OverflowError:
        pass  # beyond float range: the exact tier below is always correct
    return IncrementalForestPeriod(
        graph, model=model, platform=platform, mapping=mapping
    )


class _SharedLoads:
    """Weighted per-server ``(Cin, Ccomp, Cout)`` loads of shared placements.

    The concurrent regime's cost terms, numeric-generic through the
    ``_num`` hook.  The graph-only quantities — each service's out-size
    and work volume, its ancestor product folded once — are computed at
    construction and reused for every assignment priced afterwards.
    :meth:`server_loads` folds the weighted per-server loads of any
    assignment: :func:`exact_placement_value` maximises them over every
    server, :class:`FullPlacementCosts`' bottleneck certificate reads
    them on the incumbent's bottleneck servers only, and
    :class:`IncrementalSharedCosts` maintains their sums under deltas.
    """

    #: Numeric-tier hook (see :class:`IncrementalForestPeriod`).
    _num = staticmethod(lambda value: value)

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Platform,
        *,
        model: CommModel = CommModel.OVERLAP,
        weights: Optional[Dict[str, Fraction]] = None,
    ) -> None:
        self.graph = graph
        self.platform = platform
        self.model = model
        num = self._num
        self._one: Num = num(ONE)
        self._zero: Num = num(Fraction(0))
        self.weights: Dict[str, Num] = (
            {k: num(v) for k, v in weights.items()} if weights else {}
        )
        self._bw_cache: Dict[Tuple[str, str], Num] = {}
        self._speed_cache: Dict[str, Num] = {}
        app = graph.application
        self._outsize: Dict[str, Num] = {}
        self._work: Dict[str, Num] = {}
        sigma = {n: num(app.selectivity(n)) for n in app.names}
        costv = {n: num(app.cost(n)) for n in app.names}
        for node in graph.topological_order:
            prod = self._one
            for j in graph.ancestors(node):
                prod *= sigma[j]
            self._outsize[node] = prod * sigma[node]
            self._work[node] = prod * costv[node]

    def _bw(self, src: str, dst: str) -> Num:
        found = self._bw_cache.get((src, dst))
        if found is None:
            found = self._bw_cache[(src, dst)] = self._num(
                self.platform.bandwidth(src, dst)
            )
        return found

    def _sp(self, server: str) -> Num:
        found = self._speed_cache.get(server)
        if found is None:
            found = self._speed_cache[server] = self._num(
                self.platform.speed(server)
            )
        return found

    def _node_triple(
        self,
        node: str,
        assignment: Dict[str, str],
        eff: Optional[Dict[Tuple[str, str], Num]] = None,
    ) -> Tuple[Num, Num, Num]:
        """Weighted (Cin, Ccomp, Cout) of *node* under *assignment*.

        *eff* overrides the bandwidth of contended server pairs (see
        :func:`~repro.core.costs.effective_bandwidths`); every other pair
        is priced at its platform bandwidth.
        """
        bw = self._bw
        if eff:
            static = bw

            def bw(src: str, dst: str) -> Num:
                found = eff.get((src, dst))
                return static(src, dst) if found is None else found

        graph = self.graph
        server = assignment[node]
        preds = graph.predecessors(node)
        if preds:
            cin = sum(
                (
                    self._outsize[p] / bw(assignment[p], server)
                    for p in preds
                    if assignment[p] != server
                ),
                self._zero,
            )
        else:
            cin = self._one / bw(INPUT, server)
        ccomp = self._work[node] / self._sp(server)
        succs = graph.successors(node)
        if succs:
            cout = sum(
                (
                    self._outsize[node] / bw(server, assignment[s])
                    for s in succs
                    if assignment[s] != server
                ),
                self._zero,
            )
        else:
            cout = self._outsize[node] / bw(server, OUTPUT)
        w = self.weights.get(node)
        if w is not None and w != 1:
            return (cin * w, ccomp * w, cout * w)
        return (cin, ccomp, cout)

    def _combine(self, sums: Sequence[Num]) -> Num:
        if self.model.overlaps_compute:
            return max(sums)
        return sums[0] + sums[1] + sums[2]

    def server_loads(
        self,
        assignment: Dict[str, str],
        servers: Optional[FrozenSet[str]] = None,
    ) -> Dict[str, Num]:
        """Combined weighted load of each server under *assignment*.

        Sums each server's weighted ``Cin``/``Ccomp``/``Cout`` and combines
        them like :meth:`CostModel.server_cexec
        <repro.core.CostModel.server_cexec>`.  Only the servers in
        *servers* when given; a server hosting no service has no entry.
        On contended topologies every cross-server edge is priced at the
        effective bandwidth of *assignment*'s own flows (exact tier).
        """
        eff = None
        if self.platform.has_contention:
            flows = _flows(self.graph.edges, assignment)
            pairs = None
            if servers is not None:
                pairs = {p for p in flows if p[0] in servers or p[1] in servers}
            eff = effective_bandwidths(self.platform, flows, pairs)
        zero = self._zero
        sums: Dict[str, List[Num]] = {}
        for node in self.graph.nodes:
            server = assignment[node]
            if servers is not None and server not in servers:
                continue
            cin, ccomp, cout = self._node_triple(node, assignment, eff)
            acc = sums.setdefault(server, [zero, zero, zero])
            acc[0] += cin
            acc[1] += ccomp
            acc[2] += cout
        return {u: self._combine(acc) for u, acc in sums.items()}


class IncrementalSharedCosts(_SharedLoads):
    """Delta evaluation of shared-server (non-injective) mappings.

    The concurrent-applications regime maps several services — possibly
    from different applications — onto one server.  The maintained value is
    the aggregated steady-state bound
    ``max_u Cexec(u)`` of :meth:`CostModel.server_cexec
    <repro.core.CostModel.server_cexec>`: per server, ``Cin``/``Ccomp``/
    ``Cout`` *sum* over co-located services (intra-server edges cost zero
    communication), combined by ``max`` under OVERLAP and by ``+`` under
    the one-port models — i.e. exactly ``CostModel(graph, platform,
    mapping).period_lower_bound(model)`` for the current shared mapping.

    Optional *weights* scale each service's three quantities (the
    concurrent planner passes ``1 / period_target`` of the owning
    application, turning the value into the max per-server *utilisation*).

    Moving one service touches only that service's triple, its graph
    neighbours' triples (their links to it change), and the per-server sums
    of the affected servers — so a reassign/swap is priced in
    ``O(degree)`` instead of a full recompute (exact-Fraction parity,
    property-tested).

        >>> from repro import ExecutionGraph, Mapping, Platform, make_application
        >>> from repro.core import CommModel
        >>> app = make_application([("A", 2, 1), ("B", 3, 1)])
        >>> inc = IncrementalSharedCosts(
        ...     ExecutionGraph.empty(app), Platform.homogeneous(2),
        ...     Mapping.shared({"A": "S1", "B": "S1"}))
        >>> inc.value(), inc.score_reassign("B", "S2")
        (Fraction(5, 1), Fraction(3, 1))
    """

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Platform,
        mapping: Mapping,
        *,
        model: CommModel = CommModel.OVERLAP,
        weights: Optional[Dict[str, Fraction]] = None,
    ) -> None:
        mapping.validate_on(graph.nodes, platform)
        if platform.has_contention:
            raise ValueError(
                "IncrementalSharedCosts assumes static link bandwidths; "
                "contended topologies need FullPlacementCosts (one move "
                "changes every co-routed edge's effective bandwidth)"
            )
        super().__init__(graph, platform, model=model, weights=weights)
        self.assignment: Dict[str, str] = {
            svc: mapping.server(svc) for svc in graph.nodes
        }
        self._triple: Dict[str, Tuple[Num, Num, Num]] = {}
        self._sums: Dict[str, List[Num]] = {}
        for node in graph.nodes:
            self._triple[node] = self._node_triple(node, self.assignment)
        self._rebuild_sums()

    # -- internals ---------------------------------------------------------
    def _rebuild_sums(self) -> None:
        sums: Dict[str, List[Num]] = {}
        for node, (cin, ccomp, cout) in self._triple.items():
            acc = sums.setdefault(
                self.assignment[node], [self._zero, self._zero, self._zero]
            )
            acc[0] += cin
            acc[1] += ccomp
            acc[2] += cout
        self._sums = sums

    def _affected(self, moved: Iterable[str]) -> Set[str]:
        out: Set[str] = set()
        for svc in moved:
            out.add(svc)
            out.update(self.graph.predecessors(svc))
            out.update(self.graph.successors(svc))
        return out

    def _trial_sums(
        self, trial: Dict[str, str], moved: Iterable[str]
    ) -> Dict[str, List[Num]]:
        """Per-server sums after the move (only affected servers copied)."""
        sums = dict(self._sums)
        affected = self._affected(moved)
        touched = {self.assignment[m] for m in affected}
        touched |= {trial[m] for m in affected}
        for server in touched:
            sums[server] = list(
                sums.get(server, (self._zero, self._zero, self._zero))
            )
        for m in affected:
            old = self._triple[m]
            acc = sums[self.assignment[m]]
            acc[0] -= old[0]
            acc[1] -= old[1]
            acc[2] -= old[2]
        for m in affected:
            new = self._node_triple(m, trial)
            acc = sums[trial[m]]
            acc[0] += new[0]
            acc[1] += new[1]
            acc[2] += new[2]
        return sums

    def _value_of(self, sums: Dict[str, List[Num]], trial: Dict[str, str]) -> Num:
        used = set(trial.values())
        return max(self._combine(sums[u]) for u in used)

    # -- public API --------------------------------------------------------
    def value(self) -> Num:
        """``max_u Cexec(u)`` (weighted) of the current shared mapping."""
        return max(self._combine(acc) for acc in self._sums.values())

    def mapping(self) -> Mapping:
        return Mapping.shared(self.assignment)

    def score_reassign(self, service: str, server: str) -> Num:
        """Price moving *service* onto *server* (shared — any server)."""
        trial = dict(self.assignment)
        trial[service] = server
        return self._value_of(self._trial_sums(trial, [service]), trial)

    def apply_reassign(self, service: str, server: str) -> None:
        trial = dict(self.assignment)
        trial[service] = server
        self._commit(trial, [service])

    def score_swap(self, a: str, b: str) -> Num:
        """Price exchanging the servers of services *a* and *b*."""
        trial = dict(self.assignment)
        trial[a], trial[b] = trial[b], trial[a]
        return self._value_of(self._trial_sums(trial, [a, b]), trial)

    def apply_swap(self, a: str, b: str) -> None:
        trial = dict(self.assignment)
        trial[a], trial[b] = trial[b], trial[a]
        self._commit(trial, [a, b])

    def _commit(self, trial: Dict[str, str], moved: Iterable[str]) -> None:
        affected = self._affected(moved)
        sums = self._trial_sums(trial, moved)
        for m in affected:
            self._triple[m] = self._node_triple(m, trial)
        self.assignment = trial
        # Drop emptied servers so value() never reads a stale zero row.
        used = set(trial.values())
        self._sums = {u: acc for u, acc in sums.items() if u in used}


class IncrementalMappingCosts(IncrementalSharedCosts):
    """Delta evaluation of server reassignments/swaps, injective mappings.

    The paper's one-service-per-server regime as a strict specialisation
    of :class:`IncrementalSharedCosts`: with an injective mapping every
    per-server sum is a single service's triple, intra-server zeroing
    never fires, and the maintained value is the paper's
    ``max_k Cexec(k)`` — i.e. ``CostModel(graph, platform,
    mapping).period_lower_bound(model)``.  The injective-only constructor
    keeps the placement local search honest (its reassign moves target
    idle servers, so the assignment stays one-to-one).

        >>> from repro import ExecutionGraph, Mapping, Platform, make_application
        >>> from repro.core import CommModel
        >>> app = make_application([("A", 1, 1), ("B", 9, 1)])
        >>> platform = Platform.of(speeds=[1, 1, 3])
        >>> inc = IncrementalMappingCosts(
        ...     ExecutionGraph.empty(app), platform,
        ...     Mapping({"A": "S1", "B": "S2"}), model=CommModel.OVERLAP)
        >>> inc.value(), inc.score_reassign("B", "S3")
        (Fraction(9, 1), Fraction(3, 1))
    """

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Platform,
        mapping: Mapping,
        *,
        model: CommModel = CommModel.OVERLAP,
    ) -> None:
        if not mapping.is_injective:
            raise ValueError(
                "IncrementalMappingCosts assumes an injective mapping; use "
                "IncrementalSharedCosts for shared-server mappings"
            )
        super().__init__(graph, platform, mapping, model=model)

    def mapping(self) -> Mapping:
        return Mapping(self.assignment)


class FloatSharedCosts(IncrementalSharedCosts):
    """Float twin of :class:`IncrementalSharedCosts` (the fast tier)."""

    _num = staticmethod(float)


class FloatMappingCosts(IncrementalMappingCosts):
    """Float twin of :class:`IncrementalMappingCosts` (the fast tier)."""

    _num = staticmethod(float)


class CertifiedPlacementCosts:
    """Exact + float placement evaluators behind one certified interface.

    Same protocol as :class:`CertifiedForestPeriod`, for the reassignment/
    swap moves of the placement searches: float-tier pricing, exact
    re-pricing inside the :data:`~repro.core.CERT_EPS` band, committed
    moves applied to both tiers.  Wraps the injective pair by default;
    pass ``shared=True`` for the shared-server (concurrent) pair.
    """

    __slots__ = ("exact", "fast", "eps", "_value", "_cut")

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Platform,
        mapping: Mapping,
        *,
        model: CommModel = CommModel.OVERLAP,
        weights: Optional[Dict[str, Fraction]] = None,
        shared: bool = False,
        eps: float = CERT_EPS,
    ) -> None:
        if shared:
            self.exact = IncrementalSharedCosts(
                graph, platform, mapping, model=model, weights=weights
            )
            self.fast: IncrementalSharedCosts = FloatSharedCosts(
                graph, platform, mapping, model=model, weights=weights
            )
        else:
            if weights:
                raise ValueError("weights only apply to shared placements")
            self.exact = IncrementalMappingCosts(
                graph, platform, mapping, model=model
            )
            self.fast = FloatMappingCosts(graph, platform, mapping, model=model)
        self.eps = eps
        self._refresh()

    def _refresh(self) -> None:
        self._value = self.exact.value()
        self._cut = certified_threshold(float(self._value), self.eps)

    @property
    def assignment(self) -> Dict[str, str]:
        return self.exact.assignment

    def value(self) -> Fraction:
        return self.exact.value()

    def mapping(self) -> Mapping:
        return self.exact.mapping()

    def score_reassign(self, service: str, server: str) -> Num:
        trial = self.fast.score_reassign(service, server)
        if trial <= self._cut:
            return self.exact.score_reassign(service, server)
        return trial

    def apply_reassign(self, service: str, server: str) -> None:
        self.exact.apply_reassign(service, server)
        self.fast.apply_reassign(service, server)
        self._refresh()

    def score_swap(self, a: str, b: str) -> Num:
        trial = self.fast.score_swap(a, b)
        if trial <= self._cut:
            return self.exact.score_swap(a, b)
        return trial

    def apply_swap(self, a: str, b: str) -> None:
        self.exact.apply_swap(a, b)
        self.fast.apply_swap(a, b)
        self._refresh()


def _flows(
    edges: Sequence[Tuple[str, str]], assignment: Dict[str, str]
) -> List[Tuple[str, str]]:
    """One ``(src_server, dst_server)`` flow per edge crossing servers."""
    return [
        (assignment[u], assignment[v])
        for u, v in edges
        if assignment[u] != assignment[v]
    ]


def exact_placement_value(
    graph: ExecutionGraph,
    platform: Platform,
    mapping: Mapping,
    *,
    model: CommModel = CommModel.OVERLAP,
    weights: Optional[Dict[str, Fraction]] = None,
    shared: bool = False,
) -> Fraction:
    """Exact (Fraction) placement objective of one concrete mapping.

    The value the incremental evaluators maintain, computed from scratch
    — with contended topologies priced correctly (effective bandwidths
    under the mapping's flow pattern).  ``shared``/*weights* switch to the
    max over servers of the weighted per-server loads
    (:meth:`_SharedLoads.server_loads`, the concurrent regime's
    objective); otherwise this is ``CostModel(...).period_lower_bound(model)``
    verbatim.
    """
    if not shared and not weights:
        return CostModel(graph, platform, mapping).period_lower_bound(model)
    loads = _SharedLoads(graph, platform, model=model, weights=weights)
    assignment = {node: mapping.server(node) for node in graph.nodes}
    return max(loads.server_loads(assignment).values())


class FullPlacementCosts:
    """Full-recompute placement evaluator for contended topologies.

    On a contended topology one reassign changes the flow counts on every
    link its edges share — and with them the effective bandwidth of every
    co-routed edge — so the ``O(degree)`` deltas of
    :class:`IncrementalSharedCosts` are invalid.  This evaluator speaks
    the same protocol (``value``/``score_*``/``apply_*``/``assignment``/
    ``mapping``) but prices each candidate mapping from scratch.  Exact
    values come from one :class:`_SharedLoads` per evaluator, so every
    trial reuses the graph-only exact quantities and re-derives only the
    effective bandwidths of its own flows.

    * :meth:`score_moves` prices a whole neighbourhood in one
      :class:`~repro.core.MappingBatch` call (rows bit-for-bit the
      per-candidate :class:`~repro.core.FloatCosts` doubles) and
      exact-prices only the moves the caller's selection could pick.
    * ``score_reassign``/``score_swap`` price one candidate: on the float
      tier first, exactly inside the :data:`~repro.core.CERT_EPS` band.
    * Both settle a near-tie with the **bottleneck certificate** before
      any full exact evaluation.  A shared mapping's value is a max over
      servers (an injective one's over services), so the trial's exact
      load on one of the incumbent's bottleneck servers is a lower bound
      on the trial's value: at or above the incumbent's value, the move
      cannot improve.

    A move that cannot improve may be answered with any value not below
    :meth:`value` (its float, or the certificate's bound); a move that
    can is answered exactly.  Accept/reject decisions — and the returned
    value — stay bit-for-bit the all-``Fraction`` ones.  ``EXACT`` skips
    the float tier and the certificate: every candidate is priced exactly.
    """

    __slots__ = (
        "graph", "platform", "model", "weights", "shared", "exactness",
        "eps", "assignment", "_arrays", "_allow_shared", "_value", "_cut",
        "_loads", "_batch", "_bottleneck",
    )

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Platform,
        mapping: Mapping,
        *,
        model: CommModel = CommModel.OVERLAP,
        weights: Optional[Dict[str, Fraction]] = None,
        shared: bool = False,
        exactness: Exactness = Exactness.CERTIFIED,
        eps: float = CERT_EPS,
    ) -> None:
        mapping.validate_on(graph.nodes, platform)
        self.graph = graph
        self.platform = platform
        self.model = model
        self.weights = dict(weights) if weights else None
        self.shared = shared or bool(weights)
        self._allow_shared = shared
        self.exactness = Exactness.coerce(exactness)
        self.eps = eps
        self._arrays = GraphArrays(graph)
        self._loads = _SharedLoads(graph, platform, model=model, weights=weights)
        self._batch = None
        self._bottleneck: FrozenSet[str] = frozenset()
        self.assignment: Dict[str, str] = {
            svc: mapping.server(svc) for svc in graph.nodes
        }
        self._refresh()

    # -- pricing -----------------------------------------------------------
    def _mapping_of(self, assignment: Dict[str, str]) -> Mapping:
        return Mapping(assignment, shared=self._allow_shared)

    def _trial(self, kind: str, move: Tuple[str, str]) -> Dict[str, str]:
        """The assignment after one ``reassign``/``swap`` *move*."""
        trial = dict(self.assignment)
        if kind == "reassign":
            trial[move[0]] = move[1]
        else:
            a, b = move
            trial[a], trial[b] = trial[b], trial[a]
        return trial

    def _float_value(self, mapping: Mapping) -> float:
        fast = FloatCosts(
            self.graph, self.platform, mapping,
            arrays=self._arrays, weights=self.weights,
        )
        return fast.period_lower_bound(self.model)

    def _exact_value(self, assignment: Dict[str, str]) -> Fraction:
        return max(self._loads.server_loads(assignment).values())

    def _bottleneck_bound(self, assignment: Dict[str, str]) -> Fraction:
        """Exact lower bound on *assignment*'s value: its largest load on
        one of the incumbent's bottleneck servers (0 if they host none)."""
        loads = self._loads.server_loads(assignment, self._bottleneck)
        return max(loads.values(), default=ZERO)

    def _settle(self, trial: Dict[str, str], *, ties: bool) -> Fraction:
        """Exact verdict on a near-tie: the certificate, else a full
        evaluation.  *ties* keeps moves that match the value (the caller
        accepts ``<=``), so only a bound strictly above it rejects."""
        bound = self._bottleneck_bound(trial)
        if bound > self._value or (bound == self._value and not ties):
            return bound
        return self._exact_value(trial)

    def _score(self, trial: Dict[str, str], *, ties: bool = False) -> Num:
        if self.exactness is Exactness.EXACT:
            return self._exact_value(trial)
        try:
            fast = self._float_value(self._mapping_of(trial))
        except OverflowError:
            return self._exact_value(trial)
        if self.exactness is Exactness.FAST or fast > self._cut:
            return fast
        return self._settle(trial, ties=ties)

    def _prices(self, kind: str, moves: Sequence[Tuple[str, str]]):
        """Float value of every move, one :class:`MappingBatch` call
        (``None`` beyond float range)."""
        import numpy as np

        if self._batch is None:
            try:
                self._batch = MappingBatch(
                    self.graph, self.platform, kind="period",
                    model=self.model, shared=self.shared,
                    weights=self.weights, arrays=self._arrays,
                )
            except OverflowError:
                return None
        batch = self._batch
        col = self._arrays.index
        index = batch.server_index
        base = np.array(
            [index[self.assignment[name]] for name in self._arrays.names]
        )
        rows = np.repeat(base[None, :], len(moves), axis=0)
        r = np.arange(len(moves))
        if kind == "reassign":
            rows[r, [col[svc] for svc, _ in moves]] = [
                index[server] for _, server in moves
            ]
        else:
            a = np.array([col[a] for a, _ in moves])
            b = np.array([col[b] for _, b in moves])
            rows[r, a], rows[r, b] = base[b], base[a]
        return batch.values(rows).tolist()

    def _refresh(self) -> None:
        if self.exactness is Exactness.FAST:
            try:
                self._value: Num = self._float_value(
                    self._mapping_of(self.assignment)
                )
            except OverflowError:
                self._value = self._exact_value(self.assignment)
        else:
            loads = self._loads.server_loads(self.assignment)
            self._value = max(loads.values())
            self._bottleneck = frozenset(
                u for u, load in loads.items() if load == self._value
            )
        try:
            self._cut = certified_threshold(float(self._value), self.eps)
        except OverflowError:
            self._cut = float("inf")  # arbitrate everything exactly

    # -- public API (the incremental evaluators' protocol) ------------------
    def value(self) -> Num:
        return self._value

    def mapping(self) -> Mapping:
        return self._mapping_of(self.assignment)

    def score_reassign(self, service: str, server: str) -> Num:
        return self._score(self._trial("reassign", (service, server)))

    def apply_reassign(self, service: str, server: str) -> None:
        self.assignment = self._trial("reassign", (service, server))
        self._refresh()

    def score_swap(self, a: str, b: str) -> Num:
        return self._score(self._trial("swap", (a, b)))

    def apply_swap(self, a: str, b: str) -> None:
        self.assignment = self._trial("swap", (a, b))
        self._refresh()

    def score_moves(
        self,
        kind: str,
        moves: Sequence[Tuple[str, str]],
        *,
        ties: bool = False,
    ) -> Iterator[Num]:
        """Scores of a neighbourhood of *kind* moves, in order.

        *kind* is ``"reassign"`` (payloads ``(service, server)``) or
        ``"swap"`` (payloads ``(a, b)``).  ``EXACT`` prices each move on
        its own.  ``FAST`` answers with the floats of one
        :class:`~repro.core.MappingBatch` call.  ``CERTIFIED`` exact-prices
        only the moves that the caller's selection could pick:

        * ``ties=False`` — the caller keeps the lexicographically best
          move strictly below :meth:`value`.  A move whose float exceeds
          the :data:`~repro.core.CERT_EPS` band of the neighbourhood's
          best float keeps that float: its exact value is above the best
          move's, so it cannot win.  Near-ties go to the certificate.
        * ``ties=True`` — the caller takes the first move at or below
          :meth:`value`, so there is no band rule, and the certificate
          rejects only a bound strictly above the value.

        Either way the selected move and its exact score are the ones
        all-``Fraction`` scoring selects.  Exact pricing is lazy: a caller
        that stops early never pays for the rest.
        """
        prices = None
        if moves and self.exactness is not Exactness.EXACT:
            prices = self._prices(kind, moves)
        if prices is None:  # the exact tier, or beyond float range
            for move in moves:
                yield self._score(self._trial(kind, move), ties=ties)
            return
        if self.exactness is Exactness.FAST:
            yield from prices
            return
        cut = self._cut
        if not ties:
            cut = min(cut, certified_threshold(min(prices), self.eps))
        for move, price in zip(moves, prices):
            if price > cut:
                yield price
            else:
                yield self._settle(self._trial(kind, move), ties=ties)


def placement_evaluator(
    graph: ExecutionGraph,
    platform: Platform,
    mapping: Mapping,
    *,
    model: CommModel = CommModel.OVERLAP,
    weights: Optional[Dict[str, Fraction]] = None,
    shared: bool = False,
    exactness: Exactness = Exactness.EXACT,
):
    """The placement delta evaluator matching one exactness tier.

    ``EXACT`` builds the classic Fraction evaluator, ``CERTIFIED`` the
    paired :class:`CertifiedPlacementCosts` (bit-for-bit identical search
    decisions), ``FAST`` the float twin (re-score the winner exactly).
    Contended topologies always dispatch to :class:`FullPlacementCosts`
    (same protocol, full recompute per candidate) — the incremental
    deltas are invalid there.
    """
    exactness = Exactness.coerce(exactness)
    if platform.has_contention:
        return FullPlacementCosts(
            graph, platform, mapping, model=model, weights=weights,
            shared=shared, exactness=exactness,
        )
    try:
        if exactness is Exactness.CERTIFIED:
            return CertifiedPlacementCosts(
                graph, platform, mapping, model=model, weights=weights,
                shared=shared,
            )
        if exactness is Exactness.FAST:
            if shared:
                return FloatSharedCosts(
                    graph, platform, mapping, model=model, weights=weights
                )
            return FloatMappingCosts(graph, platform, mapping, model=model)
    except OverflowError:
        pass  # beyond float range: the exact tier below is always correct
    if shared:
        return IncrementalSharedCosts(
            graph, platform, mapping, model=model, weights=weights
        )
    return IncrementalMappingCosts(graph, platform, mapping, model=model)


__all__ = [
    "CertifiedForestPeriod",
    "CertifiedPlacementCosts",
    "FloatForestPeriod",
    "FloatMappingCosts",
    "FloatSharedCosts",
    "FullPlacementCosts",
    "IncrementalForestPeriod",
    "IncrementalMappingCosts",
    "IncrementalSharedCosts",
    "exact_placement_value",
    "period_delta",
    "placement_evaluator",
]

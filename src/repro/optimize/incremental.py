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
  :class:`IncrementalSharedCosts` recomputes just the touched services,
  for shared-server mappings and (``shared=False``) the paper's
  one-service-per-server ones alike.

Both evaluators compute the same value as a fresh
:meth:`CostModel.period_lower_bound` — bit-for-bit, in exact
:class:`~fractions.Fraction` arithmetic (property-tested against full
recomputation).  That bound *is* the period objective for OVERLAP
(Theorem 1, on any platform) and for ``Effort.BOUND`` under the one-port
models, which is when the searches engage the delta path; other
configurations keep the full evaluation.

**Two numeric tiers.**  Each evaluator takes its tier as a ``num``
argument: every input quantity passes through it once at construction,
after which all arithmetic stays in that tier.  The default keeps exact
``Fraction``s; ``num=float`` turns every delta into a handful of float
multiplies — one to two orders of magnitude faster.  The ``Certified*``
evaluators pair the two tiers of one evaluator: candidates are scored on
the float tier and only the ones within the :data:`~repro.core.CERT_EPS`
band of the current value are re-scored exactly, so the accept/reject
decisions — and hence the whole search trajectory — stay **bit-for-bit
identical** to the exact tier.

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
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core import (
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
from ..core.costs import CostAlgebra, Num, combine, exact_num

ONE = Fraction(1)
ZERO = Fraction(0)


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

    *num* is the numeric tier: every selectivity, cost, speed and
    bandwidth is converted through it exactly once.  The default keeps
    exact ``Fraction``s; ``num=float`` is the fast tier, whose values agree
    with the exact ones to ~1e-13 relative (property-tested at 1e-9).

        >>> from repro import CommModel, ExecutionGraph, make_application
        >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        >>> fast = IncrementalForestPeriod(
        ...     ExecutionGraph.empty(app), model=CommModel.OVERLAP, num=float)
        >>> fast.value(), fast.score_reparent("B", "A")
        (8.0, 4.0)
    """

    def __init__(
        self,
        graph: ExecutionGraph,
        *,
        model: CommModel = CommModel.OVERLAP,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
        num: Callable[[Fraction], Num] = exact_num,
    ) -> None:
        if not graph.is_forest:
            raise ValueError("incremental reparenting requires a forest")
        self.app = graph.application
        if self.app.precedence:
            raise ValueError("incremental reparenting assumes no precedence")
        self.model = model
        self.platform, self.mapping = _require_supported(platform, mapping)
        self._num = num
        self._one: Num = num(ONE)
        self._zero: Num = num(ZERO)
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
        self._bottlenecks: Optional[FrozenSet[str]] = None

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

    def bottlenecks(self) -> FrozenSet[str]:
        """The nodes whose ``Cexec`` is :meth:`value`, in this tier.

        A move leaves every ``Cexec`` outside the moved subtree and its old
        and new parents as it is, so one that leaves a bottleneck node
        untouched cannot lower the max.
        """
        if self._bottlenecks is None:
            cexec = {
                n: self._cexec(self._cin[n], self._ccomp[n], self._cout[n])
                for n in self.app.names
            }
            top = max(cexec.values())
            self._bottlenecks = frozenset(n for n, c in cexec.items() if c == top)
        return self._bottlenecks

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
        self._bottlenecks = None

    def graph(self) -> ExecutionGraph:
        """The current forest as an :class:`~repro.core.ExecutionGraph`."""
        return ExecutionGraph.from_parents(self.app, self.parents)


class _CertifiedPair:
    """An exact and a float evaluator of one structure, behind the band rule.

    Both are built by the subclass's ``_single`` evaluator from the same
    arguments, the float one with ``num=float``.  A move is priced on the
    float tier and re-priced exactly only when its float lands inside the
    :data:`~repro.core.CERT_EPS` band of the current exact value: the
    float error is orders of magnitude below the band, so every move the
    exact evaluator would accept gets its exact score, and the search
    trajectory is bit-for-bit the exact one at float cost for the rejected
    majority.  A committed move is applied to both tiers.
    """

    __slots__ = ("exact", "fast", "_cut")
    _single: type

    def __init__(self, *args, **kwargs) -> None:
        self.exact = self._single(*args, **kwargs)
        self.fast = self._single(*args, num=float, **kwargs)
        self._refresh()

    def _refresh(self) -> None:
        self._cut = certified_threshold(float(self.exact.value()))

    def _score(self, move: str, *args):
        trial = getattr(self.fast, move)(*args)
        if trial is not None and trial <= self._cut:
            return getattr(self.exact, move)(*args)
        # ``None`` (no move), or provably worse than the current value:
        # the float score exceeds the exact current value too.
        return trial

    def _apply(self, move: str, *args) -> None:
        getattr(self.exact, move)(*args)
        getattr(self.fast, move)(*args)
        self._refresh()


def _in_tier(exactness: Exactness, pair: type, *args, **kwargs):
    """The evaluator of *exactness*: *pair*'s single evaluator in floats
    under ``FAST``, the certified *pair* under ``CERTIFIED``, and in exact
    ``Fraction``s under ``EXACT`` or when the instance overflows a float."""
    exactness = Exactness.coerce(exactness)
    try:
        if exactness is Exactness.FAST:
            return pair._single(*args, num=float, **kwargs)
        if exactness is Exactness.CERTIFIED:
            return pair(*args, **kwargs)
    except OverflowError:
        pass  # beyond float range: the exact tier below is always correct
    return pair._single(*args, **kwargs)


class CertifiedForestPeriod(_CertifiedPair):
    """Exact + float :class:`IncrementalForestPeriod` behind one certified
    interface (same arguments).  Drop-in wherever an
    :class:`IncrementalForestPeriod` is accepted."""

    __slots__ = ()
    _single = IncrementalForestPeriod

    def value(self) -> Fraction:
        return self.exact.value()

    def bottlenecks(self) -> FrozenSet[str]:
        # The exact side's: every accept/reject decision is the exact one.
        return self.exact.bottlenecks()

    def score_reparent(self, node: str, new_parent: Optional[str]) -> Optional[Num]:
        return self._score("score_reparent", node, new_parent)

    def apply_reparent(self, node: str, new_parent: Optional[str]) -> None:
        self._apply("apply_reparent", node, new_parent)


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
    per graph, which a structural delta cannot reproduce).
    :func:`~repro.optimize.local_search.local_search_forest` applies this
    rule to its objective's configuration.

    *exactness* picks the numeric tier: ``EXACT`` returns the exact
    :class:`IncrementalForestPeriod`, ``CERTIFIED`` the
    :class:`CertifiedForestPeriod` pair (bit-for-bit identical decisions,
    float-priced rejections), ``FAST`` the float-tier evaluator (float
    values throughout — re-score the final graph exactly).
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
    return _in_tier(
        exactness, CertifiedForestPeriod, graph, model=model,
        platform=platform, mapping=mapping,
    )


class IncrementalSharedCosts:
    """Delta evaluation of server reassignments and swaps.

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

    ``shared=False`` is the paper's one-service-per-server regime: the
    mapping must be injective (the placement local search's reassign moves
    target idle servers, so it stays so), every per-server sum is a single
    service's triple, and :meth:`mapping` returns a plain
    :class:`~repro.core.Mapping`.  Weights apply either way.

    Every service's terms come from the one
    :class:`~repro.core.costs.CostAlgebra`, in the tier *num* (exact
    ``Fraction``s by default, ``float`` for the fast tier), converted once
    at construction.  Moving one service touches only that service's terms,
    its graph neighbours' terms (their links to it change), and the
    per-server sums of the affected servers — so a reassign/swap is priced
    in ``O(degree)`` instead of a full recompute (exact-Fraction parity,
    property-tested).

        >>> from repro import ExecutionGraph, Mapping, Platform, make_application
        >>> from repro.core import CommModel
        >>> app = make_application([("A", 2, 1), ("B", 3, 1)])
        >>> inc = IncrementalSharedCosts(
        ...     ExecutionGraph.empty(app), Platform.homogeneous(2),
        ...     Mapping.shared({"A": "S1", "B": "S1"}))
        >>> inc.value(), inc.score_reassign("B", "S2")
        (Fraction(5, 1), Fraction(3, 1))
        >>> solo = IncrementalSharedCosts(
        ...     ExecutionGraph.empty(app), Platform.of(speeds=[1, 1, 3]),
        ...     Mapping({"A": "S1", "B": "S2"}), shared=False, num=float)
        >>> solo.value(), solo.score_reassign("B", "S3")
        (3.0, 2.0)
    """

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Platform,
        mapping: Mapping,
        *,
        model: CommModel = CommModel.OVERLAP,
        weights: Optional[Dict[str, Fraction]] = None,
        shared: bool = True,
        num: Callable[[Fraction], Num] = exact_num,
    ) -> None:
        mapping.validate_on(graph.nodes, platform)
        if not shared and not mapping.is_injective:
            raise ValueError(
                "shared=False assumes an injective mapping; pass shared=True "
                "for shared-server mappings"
            )
        if platform.has_contention:
            raise ValueError(
                "IncrementalSharedCosts assumes static link bandwidths; "
                "contended topologies need FullPlacementCosts (one move "
                "changes every co-routed edge's effective bandwidth)"
            )
        self.graph = graph
        self.platform = platform
        self.model = model
        self.shared = shared
        self._algebra = CostAlgebra(GraphArrays(graph, num), platform)
        self._weights = self._algebra.weight_list(weights)
        names = self._algebra.arrays.names
        self._server = [mapping.server(svc) for svc in names]
        self.assignment = dict(zip(names, self._server))
        self._terms = [self._load(i, self._server) for i in range(len(names))]
        self._sums = self._algebra.server_sums(self._server, enumerate(self._terms))

    def _load(self, i: int, server: Sequence[str]) -> Sequence[Num]:
        """Weighted ``(Cin, Ccomp, Cout)`` of service *i* under *server*."""
        w = None if self._weights is None else self._weights[i]
        return self._algebra.weighted(self._algebra.terms(i, server), w)

    def _trial(self, kind: str, move: Tuple[str, str]):
        """``(assignment, per-server sums, new terms)`` after one
        ``reassign``/``swap`` *move*: each affected service — a moved one
        or a graph neighbour — leaves its old server's sums and joins its
        new server's (only those servers' sums are copied)."""
        arrays = self._algebra.arrays
        trial = list(self._server)
        if kind == "reassign":
            moved = [arrays.index[move[0]]]
            trial[moved[0]] = move[1]
        else:
            moved = [arrays.index[move[0]], arrays.index[move[1]]]
            a, b = moved
            trial[a], trial[b] = trial[b], trial[a]
        affected = set(moved)
        for i in moved:
            affected.update(arrays.preds[i])
            affected.update(arrays.succs[i])
        zero = arrays.zero
        sums = dict(self._sums)
        for u in {self._server[m] for m in affected} | {trial[m] for m in affected}:
            sums[u] = list(sums.get(u, (zero, zero, zero)))
        terms = {}
        for m in affected:
            old, new = self._terms[m], self._load(m, trial)
            terms[m] = new
            out, into = sums[self._server[m]], sums[trial[m]]
            for k in range(3):
                out[k] -= old[k]
                into[k] += new[k]
        return trial, sums, terms

    def _score(self, kind: str, move: Tuple[str, str]) -> Num:
        trial, sums, _ = self._trial(kind, move)
        return max(combine(sums[u], self.model) for u in set(trial))

    def _commit(self, kind: str, move: Tuple[str, str]) -> None:
        trial, sums, terms = self._trial(kind, move)
        for m, t in terms.items():
            self._terms[m] = t
        self._server = trial
        self.assignment = dict(zip(self._algebra.arrays.names, trial))
        # Drop emptied servers so value() never reads a stale zero row.
        used = set(trial)
        self._sums = {u: acc for u, acc in sums.items() if u in used}

    # -- public API --------------------------------------------------------
    def value(self) -> Num:
        """``max_u Cexec(u)`` (weighted) of the current shared mapping."""
        return max(combine(acc, self.model) for acc in self._sums.values())

    def mapping(self) -> Mapping:
        return Mapping(self.assignment, shared=self.shared)

    def score_reassign(self, service: str, server: str) -> Num:
        """Price moving *service* onto *server*."""
        return self._score("reassign", (service, server))

    def apply_reassign(self, service: str, server: str) -> None:
        self._commit("reassign", (service, server))

    def score_swap(self, a: str, b: str) -> Num:
        """Price exchanging the servers of services *a* and *b*."""
        return self._score("swap", (a, b))

    def apply_swap(self, a: str, b: str) -> None:
        self._commit("swap", (a, b))


class CertifiedPlacementCosts(_CertifiedPair):
    """Exact + float :class:`IncrementalSharedCosts` behind one certified
    interface (same arguments), for the reassignment/swap
    moves of the placement searches."""

    __slots__ = ()
    _single = IncrementalSharedCosts

    @property
    def assignment(self) -> Dict[str, str]:
        return self.exact.assignment

    def value(self) -> Fraction:
        return self.exact.value()

    def mapping(self) -> Mapping:
        return self.exact.mapping()

    def score_reassign(self, service: str, server: str) -> Num:
        return self._score("score_reassign", service, server)

    def apply_reassign(self, service: str, server: str) -> None:
        self._apply("apply_reassign", service, server)

    def score_swap(self, a: str, b: str) -> Num:
        return self._score("score_swap", a, b)

    def apply_swap(self, a: str, b: str) -> None:
        self._apply("apply_swap", a, b)


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
    (:meth:`CostAlgebra.assignment_loads
    <repro.core.costs.CostAlgebra.assignment_loads>`, the concurrent
    regime's objective); otherwise this is
    ``CostModel(...).period_lower_bound(model)`` verbatim.
    """
    if not shared and not weights:
        return CostModel(graph, platform, mapping).period_lower_bound(model)
    algebra = CostAlgebra(GraphArrays(graph, exact_num), platform)
    server = [mapping.server(svc) for svc in algebra.arrays.names]
    loads = algebra.assignment_loads(server, model, algebra.weight_list(weights))
    return max(loads.values())


class FullPlacementCosts:
    """Full-recompute placement evaluator for contended topologies.

    On a contended topology one reassign changes the flow counts on every
    link its edges share — and with them the effective bandwidth of every
    co-routed edge — so the ``O(degree)`` deltas of
    :class:`IncrementalSharedCosts` are invalid.  This evaluator speaks
    the same protocol (``value``/``score_*``/``apply_*``/``assignment``/
    ``mapping``) but prices each candidate mapping from scratch.  Exact
    values come from one exact :class:`~repro.core.costs.CostAlgebra` per
    evaluator, so every trial reuses the graph-only exact quantities and
    the platform coefficients, and re-derives only the contended
    coefficients of its own flows.

    * :meth:`score_moves` prices a whole neighbourhood in one
      :class:`~repro.core.MappingBatch` call (rows bit-for-bit the
      per-candidate :class:`~repro.core.FloatCosts` doubles) and
      exact-prices only the moves the caller's selection could pick.
    * ``score_reassign``/``score_swap`` price one candidate: on the float
      tier first, exactly inside the :data:`~repro.core.CERT_EPS` band.
    * Both skip every move the **floor** already decides.  The floor
      servers are the bottleneck servers whose exact weighted ``Ccomp``
      sum alone equals :meth:`value` (every server's load is at least
      its ``Ccomp``: the max of three non-negative sums under OVERLAP,
      their sum under the one-port models).  A server's ``Ccomp`` changes
      only when a service moves onto or off it, so a move that leaves one
      floor server's services in place keeps a load at :meth:`value` and
      cannot improve: under ``CERTIFIED``, for callers that want a move
      strictly below the value, it is answered with :meth:`value` itself,
      neither float-priced nor settled.  (Under the one-port models every
      used server receives a message, so its load exceeds its ``Ccomp``
      and the floor stays empty: the gate serves OVERLAP.)
    * A near-tie that reaches exact settlement past a non-empty floor
      touches every floor server, so it is priced in full.  With an empty
      floor (a communication-bound bottleneck) the **bottleneck
      certificate** settles it first: a shared mapping's value is a max
      over servers (an injective one's over services), so the trial's
      exact load on one of the incumbent's bottleneck servers is a lower
      bound on the trial's value — at or above the incumbent's value, the
      move cannot improve.

    A move that cannot improve may be answered with any value not below
    :meth:`value` (its float, the floor, or the certificate's bound); a
    move that can is answered exactly.  Accept/reject decisions — and the
    returned value — stay bit-for-bit the all-``Fraction`` ones.
    ``EXACT`` skips the float tier, the floor and the certificate: every
    candidate is priced exactly.
    """

    __slots__ = (
        "graph", "platform", "model", "weights", "shared", "exactness",
        "assignment", "_arrays", "_allow_shared", "_value", "_cut",
        "_exact", "_weights", "_batch", "_bottleneck", "_floor",
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
    ) -> None:
        mapping.validate_on(graph.nodes, platform)
        self.graph = graph
        self.platform = platform
        self.model = model
        self.weights = dict(weights) if weights else None
        self.shared = shared or bool(weights)
        self._allow_shared = shared
        self.exactness = Exactness.coerce(exactness)
        self._arrays = GraphArrays(graph)
        self._exact = CostAlgebra(GraphArrays(graph, exact_num), platform)
        self._weights = self._exact.weight_list(weights)
        self._batch = None
        self._bottleneck: FrozenSet[str] = frozenset()
        self._floor: FrozenSet[str] = frozenset()
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

    def _exact_sums(
        self,
        assignment: Dict[str, str],
        servers: Optional[FrozenSet[str]] = None,
    ) -> Dict[str, List[Fraction]]:
        server = [assignment[svc] for svc in self._exact.arrays.names]
        return self._exact.assignment_sums(server, self._weights, servers)

    def _exact_loads(
        self,
        assignment: Dict[str, str],
        servers: Optional[FrozenSet[str]] = None,
    ) -> Dict[str, Fraction]:
        sums = self._exact_sums(assignment, servers)
        return {u: combine(acc, self.model) for u, acc in sums.items()}

    def _exact_value(self, assignment: Dict[str, str]) -> Fraction:
        return max(self._exact_loads(assignment).values())

    def _bottleneck_bound(self, assignment: Dict[str, str]) -> Fraction:
        """Exact lower bound on *assignment*'s value: its largest load on
        one of the incumbent's bottleneck servers (0 if they host none)."""
        loads = self._exact_loads(assignment, self._bottleneck)
        return max(loads.values(), default=ZERO)

    def _settle(self, trial: Dict[str, str], *, ties: bool) -> Fraction:
        """Exact verdict on a near-tie: the certificate, else a full
        evaluation.  *ties* keeps moves that match the value (the caller
        accepts ``<=``), so only a bound strictly above it rejects.  Past
        a non-empty floor (``ties=False``) the move touches every floor
        server, which the certificate seldom settles: price it in full."""
        if self._floor and not ties:
            return self._exact_value(trial)
        bound = self._bottleneck_bound(trial)
        if bound > self._value or (bound == self._value and not ties):
            return bound
        return self._exact_value(trial)

    def _floored(self, kind: str, move: Tuple[str, str]) -> bool:
        """Whether *move* leaves some floor server's services in place
        (so that server's load stays at least :meth:`value`)."""
        if kind == "reassign":
            touched = (self.assignment[move[0]], move[1])
        else:
            touched = (self.assignment[move[0]], self.assignment[move[1]])
        return any(u not in touched for u in self._floor)

    def _gated(self, ties: bool) -> bool:
        """Whether the floor answers this scan's untouched moves."""
        return (
            bool(self._floor)
            and not ties
            and self.exactness is Exactness.CERTIFIED
        )

    def _score(
        self, kind: str, move: Tuple[str, str], *, ties: bool = False
    ) -> Num:
        if self._gated(ties) and self._floored(kind, move):
            return self._value
        trial = self._trial(kind, move)
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
            sums = self._exact_sums(self.assignment)
            loads = {u: combine(acc, self.model) for u, acc in sums.items()}
            self._value = max(loads.values())
            self._bottleneck = frozenset(
                u for u, load in loads.items() if load == self._value
            )
            self._floor = frozenset(
                u for u in self._bottleneck if sums[u][1] == self._value
            )
        try:
            self._cut = certified_threshold(float(self._value))
        except OverflowError:
            self._cut = float("inf")  # arbitrate everything exactly

    # -- public API (the incremental evaluators' protocol) ------------------
    def value(self) -> Num:
        return self._value

    def mapping(self) -> Mapping:
        return self._mapping_of(self.assignment)

    def score_reassign(self, service: str, server: str) -> Num:
        return self._score("reassign", (service, server))

    def apply_reassign(self, service: str, server: str) -> None:
        self.assignment = self._trial("reassign", (service, server))
        self._refresh()

    def score_swap(self, a: str, b: str) -> Num:
        return self._score("swap", (a, b))

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
          move strictly below :meth:`value`.  A move that leaves a floor
          server untouched is answered with :meth:`value` and never
          priced; only the rest go to the batch.  A priced move whose
          float exceeds the :data:`~repro.core.CERT_EPS` band of the best
          priced float keeps that float: its exact value is above that
          move's, so it cannot win.  Near-ties are settled exactly.
        * ``ties=True`` — the caller takes the first move at or below
          :meth:`value`, so every move is priced, there is no band rule,
          and the certificate rejects only a bound strictly above the
          value.

        Either way the selected move and its exact score are the ones
        all-``Fraction`` scoring selects.  Exact pricing is lazy: a caller
        that stops early never pays for the rest.
        """
        floored = [False] * len(moves)
        if self._gated(ties):
            floored = [self._floored(kind, move) for move in moves]
        priced = [move for move, skip in zip(moves, floored) if not skip]
        prices = None
        if priced and self.exactness is not Exactness.EXACT:
            prices = self._prices(kind, priced)
        if prices is None:  # the exact tier, beyond float range, or floored
            for move in moves:
                yield self._score(kind, move, ties=ties)
            return
        if self.exactness is Exactness.FAST:
            yield from prices
            return
        cut = self._cut
        if not ties:
            cut = min(cut, certified_threshold(min(prices)))
        floats = iter(prices)
        for move, skip in zip(moves, floored):
            if skip:
                yield self._value
                continue
            price = next(floats)
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

    ``EXACT`` builds the Fraction :class:`IncrementalSharedCosts`,
    ``CERTIFIED`` the paired :class:`CertifiedPlacementCosts` (bit-for-bit
    identical search decisions), ``FAST`` the float-tier evaluator
    (re-score the winner exactly).  Contended topologies always dispatch
    to :class:`FullPlacementCosts` (same protocol, full recompute per
    candidate) — the incremental deltas are invalid there.  *weights*
    always weight the per-server loads; *shared* only allows co-location
    and picks the kind of :class:`~repro.core.Mapping` returned.
    """
    if platform.has_contention:
        return FullPlacementCosts(
            graph, platform, mapping, model=model, weights=weights,
            shared=shared, exactness=exactness,
        )
    return _in_tier(
        exactness, CertifiedPlacementCosts, graph, platform, mapping,
        model=model, weights=weights, shared=shared,
    )


__all__ = [
    "CertifiedForestPeriod",
    "CertifiedPlacementCosts",
    "FullPlacementCosts",
    "IncrementalForestPeriod",
    "IncrementalSharedCosts",
    "exact_placement_value",
    "period_delta",
    "placement_evaluator",
]

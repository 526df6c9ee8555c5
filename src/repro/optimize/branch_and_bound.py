"""Best-first branch-and-bound for exact MinPeriod / MinLatency.

The exhaustive enumerations of :mod:`repro.optimize.exhaustive` score every
candidate graph — ``(n+1)^(n-1)`` forests for MinPeriod, super-exponentially
many DAGs for MinLatency — which caps exact answers at tiny ``n``.  Both
problems admit strong *partial* lower bounds, because every Section-2.1
quantity is monotone under completion of a partial graph:

* growing a forest by attaching a new node under an already-placed parent
  never changes the ancestors (hence ``Cin``/``Ccomp``) of placed nodes and
  can only add outgoing messages (``Cout``);
* appending a node to a partial DAG with predecessors chosen among placed
  nodes leaves every placed node's critical-path finish time intact.

So the search explores *states* — partial forests (a parent vector over a
subset of services) for period, partial DAGs for latency — best-first by a
lower bound derived from the same ``Cin``/``Ccomp``/``Cout`` algebra as
:meth:`~repro.core.CostModel.period_lower_bound` and
:meth:`~repro.core.CostModel.latency_lower_bound`, seeded with a greedy
incumbent.  A state whose bound reaches the incumbent is pruned with its
whole subtree; the search is exact because the bound never exceeds the
true objective of any completion.  Best-first, it expands every state
whose bound is below the optimum whatever the incumbent, so the seed is
cheap: the period search prices greedy on its own per-node terms.

For MinPeriod the unplaced services are bounded together.  Placed nodes
never gain ancestors, so their out-sizes are final, and an unplaced
service ends up below a placed node or as a root, with only unplaced
services between: its ancestor product is at least ``m``, the least
out-size of a placed node capped at 1, times that of its unplaced
ancestors.  Without the growth of ``Cout`` with more children, what
remains is MinPeriod without communication on the unplaced set ``U``,
solved by the chain of its filters by increasing per-node ``k`` with the
expanders below them (Srivastava et al., PAPER.md [1]): ``m·chain(U)``
bounds every completion.  For MinLatency an unplaced service contributes
a static floor: service ``j`` processes data of size at least
``prod_{i != j, sigma_i < 1} sigma_i`` no matter where it ends up, which
bounds its ``Ccomp`` (and its one unavoidable outgoing message) from
below.  On heterogeneous platforms the per-node terms divide computation
by the hosting server's speed when the mapping is pinned and
communication by the fastest link.  A free mapping divides computation
by the fastest speed, and :class:`PlacementBound` adds what that divisor
forgets: each service gets its own server, so the ``k``-th largest work
runs on a server no faster than the ``k``-th fastest.  A period search
drops a popped state, and skips scoring a complete forest, once that
sorted-speed bound reaches the incumbent; greedy and local search skip the
placement search of a candidate the same way (:class:`PlacementGate`).
Every bound stays below the objective of every completion, so pruning is
valid whether the mapping is pinned or left to the placement optimiser.

Entry points: :func:`bb_minperiod` (forests — exact for MinPeriod by
Proposition 4), :func:`bb_minlatency` (DAGs — optimal latency plans need
not be forests, Proposition 13).  The planner registers them as the
``"branch-and-bound"`` solver, which is also the ``method="auto"`` exact
path (:data:`repro.planner.AUTO_EXHAUSTIVE_MAX`).

**Numeric tiers** (:class:`~repro.core.Exactness`): :func:`bb_minperiod`
prices every bound and heap key in exact ``Fraction``s on every tier, so
its certified search is the exact one; under ``FAST`` the objective
scores in floats, near-ties with the incumbent prune, and the result is
uncertified.  :func:`bb_minlatency` prices its bounds in floats under
``CERTIFIED`` and ``FAST``: a certified state is pruned only when its
float bound exceeds the incumbent by more than
:data:`~repro.core.CERT_EPS` relative, a bound inside that band is
settled exactly, and complete graphs are scored through the exact
objective, so its optimum is bit-for-bit the ``EXACT`` tier's.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core import (
    CERT_EPS,
    INPUT,
    OUTPUT,
    Application,
    CommModel,
    Exactness,
    ExecutionGraph,
    Mapping,
    Platform,
    certified_threshold,
)
from ..scheduling.latency import NodeLimitExceeded
from .evaluation import Objective, _normalise

ONE = Fraction(1)

#: DAG-space branch and bound refuses applications larger than this (the
#: state space still grows super-exponentially; use ``space='forests'`` or
#: a heuristic beyond it).
MAX_BB_LATENCY_SERVICES = 7


@dataclass
class BBStats:
    """Search counters reported in ``PlanResult.stats.extras``.

    ``evaluated`` is the growth of the objective's ``evaluations``
    counter over the search: every graph scored through it, incumbent
    seeding included, so it compares honestly against the enumeration
    baseline's graph count.  The MinPeriod seed is priced on per-node
    terms and scores only its final graph, so there ``evaluated`` is one
    plus the complete graphs the search reaches; the MinLatency seed also
    counts greedy's insertion candidates.  ``expanded`` is the number of
    partial states popped and branched; ``pruned`` the number of generated
    states discarded because their lower bound already reached the
    incumbent; ``duplicates`` the number of generated states the search
    had already generated along another insertion order.  ``limit_hit``
    records that the search stopped on *node_limit* rather than by
    exhausting/pruning the state space (the result is then an
    uncertified upper bound).  ``schedule_limit_hit``
    records that an exact schedule search stopped at its own node limit
    while scoring a complete graph, which then got the value of the best
    schedule found: achievable, so the result is again an uncertified
    upper bound.
    """

    expanded: int = 0
    pruned: int = 0
    evaluated: int = 0
    duplicates: int = 0
    incumbent_updates: int = 0
    limit_hit: bool = False
    schedule_limit_hit: bool = False

    def as_extras(self) -> Dict[str, int]:
        return {
            "expanded": self.expanded,
            "pruned": self.pruned,
            "evaluated": self.evaluated,
            "duplicates": self.duplicates,
            "incumbent_updates": self.incumbent_updates,
        }


class _Scaling:
    """Per-node lower-bound divisors for a (platform, mapping) pair.

    Unit platforms (and ``platform=None``) divide by nothing — the bounds
    are bit-for-bit the paper's.  A pinned mapping divides each node's
    computation by its actual server speed.  A free mapping divides every
    node's computation by the fastest speed, the best any one node could
    get; :class:`PlacementBound` tightens that for the whole forest, since
    only one service can run on each server.  Communication bounds
    always divide by the fastest bandwidth reachable anywhere on the
    platform, which stays below every concrete transfer time.
    """

    __slots__ = ("comm_div", "_speed", "_default_speed")

    def __init__(
        self,
        app: Application,
        platform: Optional[Platform],
        mapping: Optional[Mapping],
    ) -> None:
        if platform is None or platform.is_unit:
            self.comm_div = ONE
            self._speed: Dict[str, Fraction] = {}
            self._default_speed = ONE
            return
        # Uncontended pair bandwidths only: on a contended topology the
        # effective bandwidth of any pair under any flow pattern is at
        # most its uncontended value, so the max over these stays an
        # optimistic divisor and the bound remains admissible.  Skip
        # world-to-world pairs — no message crosses them (strict lookup).
        bandwidths = [platform.default_bandwidth]
        for u in list(platform.names) + [INPUT, OUTPUT]:
            for v in list(platform.names) + [INPUT, OUTPUT]:
                if u != v and not (u in (INPUT, OUTPUT) and v in (INPUT, OUTPUT)):
                    bandwidths.append(platform.bandwidth(u, v))
        self.comm_div = max(bandwidths)
        max_speed = max(s.speed for s in platform.servers)
        if mapping is not None:
            self._speed = {
                name: platform.speed(mapping.server(name)) for name in app.names
            }
        else:
            self._speed = {}
        self._default_speed = max_speed

    def speed(self, name: str) -> Fraction:
        return self._speed.get(name, self._default_speed)


def _cuts(value: Fraction, use_float: bool) -> Tuple:
    """``(cut, low_cut)`` pruning thresholds around an exact incumbent.

    The exact tier prunes at the incumbent itself.  The float tiers get
    the :data:`~repro.core.CERT_EPS` band around it; an incumbent too large
    for a float degenerates to ``(inf, -inf)`` — every bound then lands
    "in the band", so a certified search arbitrates everything exactly
    (slow but still exact) and a fast search returns its incumbent.
    """
    if not use_float:
        return value, value
    try:
        f = float(value)
    except OverflowError:
        return float("inf"), float("-inf")
    return certified_threshold(f), f * (1.0 - CERT_EPS)


def _min_products(app: Application) -> Dict[str, Fraction]:
    """``minprod[j]``: the smallest possible ancestor-selectivity product.

    Whatever the final graph, the ancestors of ``j`` are a subset of the
    other services, so the product of their selectivities is at least the
    product of every *filter* selectivity among them.
    """
    filters = [(s.name, s.selectivity) for s in app.services if s.selectivity < 1]
    total = ONE
    for _, sigma in filters:
        total *= sigma
    out: Dict[str, Fraction] = {}
    for s in app.services:
        prod = total
        if s.selectivity < 1:
            prod /= s.selectivity
        out[s.name] = prod
    return out


class ForestTerms:
    """Theorem-1 per-node terms of a partial forest, in exact arithmetic.

    A placed node ``i`` with ancestor product ``a`` and ``m`` children
    pays ``Cin = a·ci``, ``Ccomp = a·cc_i`` and ``Cout = max(m, 1)·a·co_i``
    (a root has ``a = 1``, so its input message is ``ci`` too), combined
    by max under OVERLAP and summed under the one-port models.  A partial
    forest's period bound is the max of its placed nodes' terms, and
    attaching a node changes only its own term and its parent's.

    ``ci = 1/b``, ``cc_i = c_i/s_i`` and ``co_i = σ_i/b`` take ``b`` and
    ``s`` from *scaling* (the unit platform without one), and ``k_i`` is
    their max (their sum under one-port): a new leaf under a parent of
    out-size ``A`` costs ``A·k_i``, one multiply.

    :meth:`chain` prices MinPeriod without communication on a set of
    services, which bounds every completion from below (the module
    docstring gives the argument): branch and bound bounds its states
    with it, and local search stops once its value reaches ``chain(all)``.
    """

    __slots__ = ("index", "ci", "sigma", "cc", "co", "k", "overlap",
                 "_order", "_chains")

    def __init__(
        self,
        app: Application,
        model: CommModel,
        scaling: Optional[_Scaling] = None,
    ) -> None:
        names = list(app.names)
        scaling = scaling or _Scaling(app, None, None)
        b = scaling.comm_div
        self.index = {name: i for i, name in enumerate(names)}
        self.ci = ONE / b
        self.sigma = [app.selectivity(x) for x in names]
        self.cc = [app.cost(x) / scaling.speed(x) for x in names]
        self.co = [sigma / b for sigma in self.sigma]
        self.overlap = model.overlaps_compute
        self.k = [
            max(self.ci, c, o) if self.overlap else self.ci + c + o
            for c, o in zip(self.cc, self.co)
        ]
        # The chain's order: the filters by increasing k, then the expanders.
        self._order = sorted(
            range(len(names)), key=lambda i: (self.sigma[i] >= 1, self.k[i])
        )
        self._chains: Dict[int, Fraction] = {}

    @classmethod
    def of(cls, app: Application, objective: Objective) -> "ForestTerms":
        """The terms of *objective*'s model, divided by its platform and
        mapping (:class:`_Scaling`)."""
        return cls(
            app, objective.model,
            _Scaling(app, objective.platform, objective.mapping),
        )

    def leaf(self, size: Fraction, i: int) -> Fraction:
        """Term of node *i* as a leaf whose parent emits *size*."""
        return size * self.k[i]

    def term(self, anc: Fraction, children: int, i: int) -> Fraction:
        """Term of node *i* with ancestor product *anc* and *children*."""
        if children <= 1:
            return anc * self.k[i]
        cin = anc * self.ci
        ccomp = anc * self.cc[i]
        cout = children * anc * self.co[i]
        if self.overlap:
            return max(cin, ccomp, cout)
        return cin + ccomp + cout

    def chain(self, placed: int = 0) -> Fraction:
        """``chain(U)`` over the services ``U`` outside the bitmask
        *placed*: the filters by increasing ``k``, then the expanders, each
        fed the product of the filters before it; the max of their terms.
        Memoised per bitmask; ``chain()`` covers every service."""
        value = self._chains.get(placed)
        if value is None:
            value, prod = Fraction(0), ONE
            for i in self._order:
                if not placed >> i & 1:
                    value = max(value, prod * self.k[i])
                    if self.sigma[i] < 1:
                        prod *= self.sigma[i]
            self._chains[placed] = value
        return value

    def forest(
        self, parents: Dict[str, Optional[str]]
    ) -> Tuple[Fraction, Dict[str, Fraction]]:
        """The forest *parents* (node to parent, ``None`` for a root): the
        max of its nodes' terms, and each node's ancestor product."""
        index = self.index
        anc: Dict[str, Fraction] = {}
        children = dict.fromkeys(parents, 0)
        for parent in parents.values():
            if parent is not None:
                children[parent] += 1
        for node in parents:
            path, top = [], node
            while top is not None and top not in anc:
                path.append(top)
                top = parents[top]
            prod = ONE if top is None else anc[top] * self.sigma[index[top]]
            for x in reversed(path):
                anc[x] = prod
                prod = prod * self.sigma[index[x]]
        term = max(self.term(anc[x], children[x], index[x]) for x in parents)
        return term, anc


def _insertion_order(app: Application) -> List[str]:
    filters = sorted(
        (s.name for s in app.services if s.selectivity < 1),
        key=lambda n: (app.cost(n), n),
    )
    expanders = sorted(
        (s.name for s in app.services if s.selectivity >= 1),
        key=lambda n: (-app.cost(n), n),
    )
    return filters + expanders


def _greedy_on_terms(
    app: Application, terms: ForestTerms
) -> Tuple[Fraction, ExecutionGraph]:
    """:func:`~repro.optimize.greedy.greedy_forest`'s forest, and its term
    value, with each insertion priced on exact *terms*.

    Putting ``u`` under placed ``p`` costs ``max(current, A_p·k_u, p's
    term with one more child)``, where ``A_p`` is ``p``'s out-size; as a
    root it costs ``max(current, k_u)``.  Same order, same tie-break.
    Every candidate costs at least the current value, and the first strict
    minimum wins, so a slot that costs exactly the current value ends the
    scan: the parent scan is skipped when the root slot does, and stops at
    the first attachment that does.
    """
    index = terms.index
    parents: Dict[str, Optional[str]] = {}
    anc: Dict[str, Fraction] = {}
    children: Dict[str, int] = {}
    # Per placed node: its out-size and its term with one more child.
    size: Dict[str, Fraction] = {}
    grown: Dict[str, Fraction] = {}
    value = Fraction(0)
    for name in _insertion_order(app):
        u = index[name]
        best_val = max(value, terms.k[u])
        best_parent: Optional[str] = None
        if best_val > value:
            for parent in parents:
                val = max(value, terms.leaf(size[parent], u), grown[parent])
                if val < best_val:
                    best_val, best_parent = val, parent
                    if val == value:
                        break  # free: no later slot is a strict minimum
        parents[name] = best_parent
        anc[name] = ONE if best_parent is None else size[best_parent]
        children[name] = 0
        size[name] = anc[name] * terms.sigma[u]
        grown[name] = terms.term(anc[name], 1, u)
        if best_parent is not None:
            children[best_parent] += 1
            p = index[best_parent]
            grown[best_parent] = terms.term(
                anc[best_parent], children[best_parent] + 1, p
            )
        value = best_val
    return value, ExecutionGraph.from_parents(app, parents)


class DagTerms:
    """Critical-path terms of a partial DAG, in one numeric tier.

    A placed node ``i`` whose ancestor set has selectivity product ``a_i``
    starts once every predecessor ``p`` has finished and sent it
    ``a_p·σ_p/b`` (an entry node after the unit input message ``1/b``),
    and finishes ``a_i·c_i/s_i`` later.  Its term adds its own output
    message ``a_i·σ_i/b``.  A partial DAG's latency bound is the max of its
    placed nodes' terms and the unplaced services' static floors; appending
    a node with predecessors among the placed ones changes no placed
    node's finish time, so only the new node's term joins the max.

    ``b`` and ``s`` come from *scaling*; every quantity is converted once
    by *num* (``float`` for the float tiers; ``None`` keeps them exact).
    """

    __slots__ = ("one", "sigma", "cost", "speed", "b")

    def __init__(self, app: Application, scaling: _Scaling, num=None) -> None:
        conv = num or (lambda value: value)
        names = list(app.names)
        self.one = conv(ONE)
        self.sigma = [conv(app.selectivity(x)) for x in names]
        self.cost = [conv(app.cost(x)) for x in names]
        self.speed = [conv(scaling.speed(x)) for x in names]
        self.b = conv(scaling.comm_div)

    def floor(self, i: int, least):
        """Term of node *i* fed its smallest possible data set *least*."""
        return (
            min(self.one, least) / self.b
            + least * self.cost[i] / self.speed[i]
            + least * self.sigma[i] / self.b
        )

    def _product(self, ancestors):
        prod = self.one
        for j in ancestors:
            prod *= self.sigma[j]
        return prod

    def _start(self, preds, anc, finish):
        if not preds:
            return self.one / self.b
        return max(finish[p] + anc[p] * self.sigma[p] / self.b for p in preds)

    def revive(self, topo, preds, ancestors):
        """``(anc, finish)``: ancestor products and finish times of the
        placed nodes, visited in the topological order *topo*."""
        anc: Dict[int, object] = {}
        finish: Dict[int, object] = {}
        for i in topo:
            anc[i] = prod = self._product(ancestors[i])
            finish[i] = (
                self._start(preds[i], anc, finish)
                + prod * self.cost[i] / self.speed[i]
            )
        return anc, finish

    def bound(self, root, anc, finish):
        """The state's bound: *root* (the static floors) or a placed
        node's term, whichever is largest."""
        return max(
            [root] + [finish[i] + anc[i] * self.sigma[i] / self.b for i in anc]
        )

    def term(self, u: int, ancestors, preds, anc, finish):
        """Term of *u* appended under *preds* (its ancestor set
        *ancestors*), given the placed nodes' :meth:`revive`."""
        prod = self._product(ancestors)
        return (
            self._start(preds, anc, finish)
            + prod * self.cost[u] / self.speed[u]
            + prod * self.sigma[u] / self.b
        )


class PlacementBound:
    """A forest's period bound over every injective placement.

    On a non-unit platform with a free mapping the objective places each
    service on a server of its own.  Sort the services' works ``A_u·c_u``
    and the servers' speeds in descending order: the ``k`` heaviest
    services occupy ``k`` distinct servers, one of which is no faster than
    the ``k``-th fastest, so ``max_k w_(k)/s_(k)`` bounds some ``Ccomp``,
    hence the period, of every placement (the bottleneck-assignment
    bound).  :meth:`sorted_speeds` prices it; in a partial forest an
    unplaced service contributes its static floor ``minprod_u·c_u``, which
    its final work can only exceed.  :meth:`forest` returns the larger of
    that bound and the forest's :class:`ForestTerms` at the fastest speed
    and bandwidth.
    """

    __slots__ = ("terms", "cost", "floor", "speeds")

    def __init__(
        self, app: Application, model: CommModel, platform: Platform
    ) -> None:
        names = list(app.names)
        minprod = _min_products(app)
        self.terms = ForestTerms(app, model, _Scaling(app, platform, None))
        self.cost = [app.cost(x) for x in names]
        self.floor = [minprod[x] * app.cost(x) for x in names]
        fastest = sorted((s.speed for s in platform.servers), reverse=True)
        self.speeds = fastest[: len(names)]

    def sorted_speeds(self, works: List[Fraction]) -> Fraction:
        """``max_k w_(k)/s_(k)`` of *works* against the fastest speeds."""
        return max(
            (w / s for w, s in zip(sorted(works, reverse=True), self.speeds)),
            default=Fraction(0),
        )

    def parts(
        self, parents: Dict[str, Optional[str]]
    ) -> Tuple[Fraction, List[Fraction]]:
        """The forest *parents* (node to parent, ``None`` for a root): the
        max of its :class:`ForestTerms`, and its nodes' works."""
        term, anc = self.terms.forest(parents)
        index = self.terms.index
        return term, [anc[x] * self.cost[index[x]] for x in parents]

    def forest(self, parents: Dict[str, Optional[str]]) -> Fraction:
        """The bound of the forest *parents* over its own nodes."""
        term, works = self.parts(parents)
        return max(term, self.sorted_speeds(works))


def _free_platform(objective: Objective) -> Optional[Platform]:
    """The platform a period *objective* places each graph on, or ``None``
    unless it is a non-unit platform with a free mapping."""
    if objective.kind != "period":
        return None
    platform, mapping = _normalise(objective.platform, objective.mapping)
    return platform if mapping is None else None


class PlacementGate:
    """:class:`PlacementBound` as a gate: :meth:`reaches` says whether a
    candidate's bound already reaches the value it must strictly beat, so
    its placement search can be skipped without changing any accept/reject
    decision.

    The bound is exact under every tier, so a ``CERTIFIED`` search skips
    exactly what an ``EXACT`` one does; under ``FAST`` the value compared
    is the float image the objective returned.  The sorted-speed test
    compares each work with ``value·s_(k)``, formed once per value, so it
    divides nothing.
    """

    __slots__ = ("bound", "_value", "_cuts")

    def __init__(
        self, app: Application, model: CommModel, platform: Platform
    ) -> None:
        self.bound = PlacementBound(app, model, platform)
        self._value: Optional[Fraction] = None
        self._cuts: List[Fraction] = []

    @classmethod
    def of(cls, app: Application, objective) -> Optional["PlacementGate"]:
        """The gate for a period :class:`Objective` that places each graph
        on a heterogeneous platform, else ``None``."""
        if not isinstance(objective, Objective):
            return None
        platform = _free_platform(objective)
        return None if platform is None else cls(app, objective.model, platform)

    def reaches(self, value: Fraction, bound_of) -> bool:
        """Does the candidate that *bound_of* prices on the
        :class:`PlacementBound`, as ``(term bound, works)``, have a bound
        of at least *value*?"""
        term, works = bound_of(self.bound)
        if term >= value:
            return True
        if value != self._value:
            self._value = value
            self._cuts = [value * s for s in self.bound.speeds]
        ranked = sorted(works, reverse=True)
        return any(w >= cut for w, cut in zip(ranked, self._cuts))

    def forest_reaches(
        self, parents: Dict[str, Optional[str]], value: Fraction
    ) -> bool:
        """:meth:`reaches` for the complete forest *parents*."""
        return self.reaches(value, lambda bound: bound.parts(parents))


# ---------------------------------------------------------------------------
# MinPeriod over forests
# ---------------------------------------------------------------------------

class _ForestState:
    """A partial forest, as a heap entry holds it.

    The parent of a placed service is ``ROOT`` or the index of a placed
    service.  The state's key is the int whose digit ``u`` in base
    ``n + 2`` is 0 while ``u`` is unplaced and ``parent + 2`` once it is
    placed: canonical, so two insertion orders reaching the same partial
    forest share it, and attaching ``u`` under ``p`` adds
    ``(p + 2)·(n + 2)**u``.  The entry carries ``m``, the least out-size
    of a placed node capped at 1, and a list with, per placed node,
    ``(parent, anc, size, children, grown)``: its ancestor product, its
    out-size ``anc·σ``, its child count and its grown term (its term with
    one more child); ``None`` per unplaced one.  A push copies the list
    and sets the new leaf's tuple and its parent's, with the products an
    ancestor walk would form, so a pop reprices nothing.
    """

    ROOT = -1


def bb_minperiod(
    app: Application,
    objective: Objective,
    *,
    incumbent: Optional[Tuple[Fraction, ExecutionGraph]] = None,
    node_limit: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Tuple[Fraction, ExecutionGraph, BBStats]:
    """Exact MinPeriod over forests by best-first branch and bound.

    *objective* (an :class:`~repro.optimize.evaluation.Objective`; pass
    the planner's memoized one to share its cache) scores complete
    forests, and the search reads its model, platform and mapping from
    it; the result optimises exactly the same quantity as
    ``exhaustive_minperiod`` / the ``"exhaustive"`` solver at the
    matching effort.  Proposition 4 guarantees the forest space suffices
    for MinPeriod without precedence constraints.

    Every bound is priced in exact arithmetic on the :class:`ForestTerms`
    of the partial forest, under every numeric tier: a child's bound is
    the max of its parent state's bound, its new leaf's term, its
    parent's grown term and ``m·chain(U)`` over its unplaced services
    ``U`` (the module docstring gives the argument), memoised per ``U``.
    A heap entry carries its state's ancestor products, child counts,
    grown terms and ``m`` (:class:`_ForestState`), so a pop reprices
    nothing and a duplicate child costs one int lookup.
    Without an *incumbent* the search seeds itself with the greedy forest
    priced on the same terms and scores that one forest through
    *objective* (any forest is a valid incumbent).  On a heterogeneous
    platform with a free mapping every complete forest costs a placement
    search, so a popped state is dropped, and a complete forest is not
    scored, once its :class:`PlacementBound` sorted-speed bound reaches
    the incumbent (:class:`PlacementGate`): no forest below it could have
    been a strict improvement, so the result is that of the ungated
    search.

    *node_limit* caps the number of expanded states; when hit, the current
    incumbent, at worst the scored seed, is returned (an achievable upper
    bound, no longer certified optimal — ``stats.limit_hit`` flags it).
    *deadline* (seconds of wall clock) stops the search the same way — the
    anytime contract: the incumbent is always a valid plan, and
    ``stats.limit_hit`` records whether optimality was proved.  Under
    ``CERTIFIED`` the search is the ``EXACT`` one; under ``FAST`` the
    objective scores on the float tier, a bound within
    :data:`~repro.core.CERT_EPS` below the incumbent prunes, and the
    incumbent is uncertified.

    Example::

        >>> from repro import CommModel, make_application
        >>> from repro.optimize import make_period_objective
        >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        >>> value, graph, stats = bb_minperiod(
        ...     app, make_period_objective(CommModel.OVERLAP))
        >>> value, sorted(graph.edges)
        (Fraction(4, 1), [('A', 'B')])
    """
    if app.precedence:
        raise ValueError("forest branch and bound assumes no precedence constraints")
    names = list(app.names)
    n = len(names)
    terms = ForestTerms.of(app, objective)
    sigma, k, chain = terms.sigma, terms.k, terms.chain
    free = _free_platform(objective)
    gate = None if free is None else PlacementGate(app, objective.model, free)
    ROOT = _ForestState.ROOT
    stats = BBStats()
    evaluations = objective.evaluations
    deadline_at = None if deadline is None else time.monotonic() + deadline

    def graph_of(parents: List[int]) -> ExecutionGraph:
        return ExecutionGraph.from_parents(app, {
            names[i]: names[p] if p >= 0 else None for i, p in enumerate(parents)
        })

    if incumbent is None:
        _, seed = _greedy_on_terms(app, terms)
        incumbent = objective(seed), seed
    best_value, best_graph = incumbent
    if not best_graph.is_forest:
        raise ValueError("the MinPeriod incumbent must be a forest")

    # Placed and unplaced indices of each placed-set bitmask.
    layouts: Dict[int, Tuple[List[int], List[int]]] = {}
    weight = [(n + 2) ** u for u in range(n)]  # key digit of node u
    heap: List[Tuple] = []
    counter = itertools.count()
    # An entry is (bound, rank, counter, key, placed bitmask, m, nodes).
    heapq.heappush(heap, (chain(0), 0, next(counter), 0, 0, ONE, [None] * n))
    seen = {0}

    # The search prunes at the incumbent.  Under FAST the incumbent is a
    # float image, which can round above the exact optimum: the states
    # tying that optimum would be expanded without ever beating it, so a
    # bound within CERT_EPS below the incumbent prunes too.
    slack = Fraction(1 - CERT_EPS) if objective.exactness is Exactness.FAST else ONE
    cut = best_value * slack
    pruned = duplicates = 0
    while heap:
        bound, _, _, key, mask, least, nodes = heapq.heappop(heap)
        if bound >= cut:
            break  # every remaining state is at least as bad — optimal
        if node_limit is not None and stats.expanded >= node_limit:
            stats.limit_hit = True
            break
        if deadline_at is not None and time.monotonic() >= deadline_at:
            stats.limit_hit = True
            break
        layout = layouts.get(mask)
        if layout is None:
            layout = layouts[mask] = (
                [i for i in range(n) if mask >> i & 1],
                [i for i in range(n) if not mask >> i & 1],
            )
        placed, unplaced = layout

        if gate is not None:
            def works(placement: PlacementBound, leaf=None) -> List[Fraction]:
                # The placed services' works plus the unplaced floors, or
                # plus *leaf* (p, u): u as a new child of p.
                out = [nodes[i][1] * placement.cost[i] for i in placed]
                if leaf is None:
                    return out + [placement.floor[j] for j in unplaced]
                p, u = leaf
                size = ONE if p == ROOT else nodes[p][2]
                return out + [size * placement.cost[u]]

            # The state's bound is below the incumbent; every completion
            # is still at least its sorted-speed bound.
            if gate.reaches(best_value, lambda placement: (bound, works(placement))):
                pruned += 1
                continue
        stats.expanded += 1

        # Each candidate parent's out-size (a new child's ancestor
        # product) and the floor its grown term puts under every such
        # child, max(bound, grown term).  A root slot has out-size 1 and
        # floor ``bound``.  A parent whose floor alone is no better than
        # the incumbent prunes its whole column (the incumbent only falls).
        slots = [(ROOT, ONE, bound)]
        for p in placed:
            _, _, size, _, grown = nodes[p]
            floor = grown if grown > bound else bound
            if floor >= cut:
                pruned += len(unplaced)
            else:
                slots.append((p, size, floor))
        rank = n - len(placed) - 1
        for u in unplaced:
            k_u, sigma_u, weight_u = k[u], sigma[u], weight[u]
            rest = chain(mask | 1 << u)
            for p, size, floor in slots:
                new_term = size * k_u
                child_bound = floor if new_term <= floor else new_term
                out = size * sigma_u  # the new leaf's out-size
                m = out if out < least else least
                if rest:
                    child_bound = max(child_bound, m * rest)
                if child_bound >= cut:
                    pruned += 1
                    continue
                child_key = key + (p + 2) * weight_u
                if child_key in seen:
                    duplicates += 1
                    continue
                seen.add(child_key)
                if rank:
                    # u is a leaf fed p's out-size, so its grown term is its
                    # leaf term; p, if any, gains a child.
                    child = nodes.copy()
                    child[u] = (p, size, out, 0, new_term)
                    if p != ROOT:
                        top, anc_p, size_p, children_p, _ = nodes[p]
                        child[p] = (top, anc_p, size_p, children_p + 1,
                                    terms.term(anc_p, children_p + 2, p))
                    heapq.heappush(heap, (
                        child_bound, rank, next(counter), child_key,
                        mask | 1 << u, m, child,
                    ))
                    continue
                # Complete forest: score it for real, unless its placement
                # search could not beat the incumbent.
                if gate is not None and gate.reaches(best_value, lambda placement: (
                    child_bound, works(placement, (p, u))
                )):
                    pruned += 1
                    continue
                # u, attached under p, is the last unplaced node.
                graph = graph_of([node[0] if node else p for node in nodes])
                value = objective(graph)
                if value < best_value:
                    best_value, best_graph = value, graph
                    cut = best_value * slack
                    stats.incumbent_updates += 1

    stats.pruned, stats.duplicates = pruned, duplicates
    stats.evaluated = objective.evaluations - evaluations
    return best_value, best_graph, stats


# ---------------------------------------------------------------------------
# MinLatency over DAGs
# ---------------------------------------------------------------------------

def bb_minlatency(
    app: Application,
    objective: Objective,
    *,
    incumbent: Optional[Tuple[Fraction, ExecutionGraph]] = None,
    node_limit: Optional[int] = None,
    deadline: Optional[float] = None,
    max_services: int = MAX_BB_LATENCY_SERVICES,
) -> Tuple[Fraction, ExecutionGraph, BBStats]:
    """Exact MinLatency over DAGs by best-first branch and bound.

    States append one service at a time with predecessors chosen among the
    already-placed services, so every placed node's critical-path finish
    time is final; the bound adds each node's unavoidable output message
    and the static floors of the unplaced services.  Optimal latency plans
    need not be forests (Proposition 13), hence the DAG space.

    *objective* is read as in :func:`bb_minperiod`: it scores complete
    DAGs, and its platform, mapping and ``exactness`` set the bound's
    divisors and numeric tier (see the module docstring); *deadline*
    (wall-clock seconds) stops the search like *node_limit*, leaving the
    incumbent as an anytime upper bound with ``stats.limit_hit`` set; the
    default seed is
    :func:`~repro.optimize.greedy.greedy_forest` on *objective*.  A
    complete DAG whose exact one-port schedule search stops at its node
    limit is scored by the best schedule it found, and
    ``stats.schedule_limit_hit`` is set.

    Example::

        >>> from repro import CommModel, make_application
        >>> from repro.optimize import make_latency_objective
        >>> app = make_application([("A", 1, "1/4"), ("B", 8, 1)])
        >>> value, graph, stats = bb_minlatency(
        ...     app, make_latency_objective(CommModel.OVERLAP))
        >>> value, sorted(graph.edges)
        (Fraction(9, 2), [('A', 'B')])
    """
    if app.precedence:
        raise ValueError("DAG branch and bound does not support precedence yet")
    names = list(app.names)
    n = len(names)
    if n > max_services:
        raise ValueError(
            f"DAG branch and bound is unreasonable for n={n} > {max_services}; "
            f"use the forest-restricted search or a heuristic"
        )
    exactness = objective.exactness
    scaling = _Scaling(app, objective.platform, objective.mapping)
    minprod = _min_products(app)
    # Exact terms price the static floors and the near-tie arbitration.
    terms_x = DagTerms(app, scaling)
    floors_x = [terms_x.floor(i, minprod[name]) for i, name in enumerate(names)]
    while True:
        use_float = exactness.uses_float
        try:
            if use_float:
                terms = DagTerms(app, scaling, float)
                floor_list = [float(f) for f in floors_x]
            else:
                terms, floor_list = terms_x, floors_x
            break
        except OverflowError:
            # Instance quantities beyond float range: the fast tier cannot
            # represent them — degrade to the (always-correct) exact tier.
            exactness = Exactness.EXACT
    stats = BBStats()
    evaluations = objective.evaluations
    deadline_at = None if deadline is None else time.monotonic() + deadline

    if incumbent is None:
        from .greedy import greedy_forest

        incumbent = greedy_forest(app, objective)
    best_value, best_graph = incumbent

    # Float-tier pruning thresholds around the incumbent: a state whose
    # float bound exceeds ``cut`` is provably no better than the incumbent
    # (the eps guard swallows the float error).  Under CERTIFIED a state
    # inside the ``[low_cut, cut]`` near-tie band is arbitrated in exact
    # arithmetic, so the prune set is the exact tier's; under FAST ties
    # prune at ``low_cut``.  Under EXACT ``low_cut == cut``, so one test
    # serves every tier.
    certified = exactness is Exactness.CERTIFIED
    cut, low_cut = _cuts(best_value, use_float)
    root_bound_x = max(floors_x, default=Fraction(0))
    root_bound = max(floor_list, default=terms.one * 0)

    # State: (frozenset of placed indices, frozenset of (pred, succ) edges).
    State = Tuple[frozenset, frozenset]
    start: State = (frozenset(), frozenset())
    heap: List[Tuple] = []
    counter = itertools.count()
    gen = 0  # incumbent generation: bumps on every incumbent improvement
    heapq.heappush(heap, (root_bound, n, next(counter), start, -1))
    seen = {start}

    while heap:
        bound, _, _, (placed, edges), state_gen = heapq.heappop(heap)
        if bound >= low_cut and (not certified or bound > cut):
            break
        if node_limit is not None and stats.expanded >= node_limit:
            stats.limit_hit = True
            break
        if deadline_at is not None and time.monotonic() >= deadline_at:
            stats.limit_hit = True
            break

        order = sorted(placed)
        preds: Dict[int, List[int]] = {i: [] for i in order}
        for a, b in edges:
            preds[b].append(a)
        # Ancestor sets, in a topological order: ancestors of placed nodes
        # are final, so the critical path revives in either tier.
        ancestors: Dict[int, frozenset] = {}
        topo: List[int] = []
        pending = list(order)
        while pending:
            i = pending.pop(0)
            if any(p not in ancestors for p in preds[i]):
                pending.append(i)
                continue
            ancestors[i] = frozenset().union(
                *[ancestors[p] | {p} for p in preds[i]]
            )
            topo.append(i)
        anc, finish = terms.revive(topo, preds, ancestors)
        # Exact revival, only for a near-tie arbitration of this state.
        revived_x: List[Tuple[Dict, Dict]] = []

        def exact_revival() -> Tuple[Dict, Dict]:
            if not revived_x:
                revived_x.append(terms_x.revive(topo, preds, ancestors))
            return revived_x[0]

        # A state pushed under the current incumbent was already exactly
        # arbitrated at generation time; only a since-improved incumbent
        # (or the root, pushed at generation -1) re-checks the band here.
        if (
            certified
            and state_gen != gen
            and bound >= low_cut
            and terms_x.bound(root_bound_x, *exact_revival()) >= best_value
        ):
            stats.pruned += 1
            continue
        stats.expanded += 1
        # The incumbent generation this state's bound was screened under;
        # children inherit it, so a mid-expansion incumbent improvement
        # forces their own pop-time re-arbitration.
        verified_gen = gen

        unplaced = [i for i in range(n) if i not in placed]
        k = len(order)
        for u in unplaced:
            for mask in range(1 << k):
                chosen = [order[j] for j in range(k) if mask >> j & 1]
                acc = frozenset().union(*[ancestors[p] | {p} for p in chosen])
                new_term = terms.term(u, acc, chosen, anc, finish)
                child_bound = bound if new_term <= bound else new_term
                if child_bound >= low_cut and (
                    not certified
                    or child_bound > cut
                    # Near-tie band: the expanded state's exact bound is
                    # below the incumbent, so only the appended node's
                    # exact term can reach it.
                    or terms_x.term(u, acc, chosen, *exact_revival())
                    >= best_value
                ):
                    stats.pruned += 1
                    continue
                child: State = (
                    placed | {u},
                    edges | {(p, u) for p in chosen},
                )
                if child in seen:
                    stats.duplicates += 1
                    continue
                seen.add(child)
                if len(placed) + 1 == n:
                    graph = ExecutionGraph(
                        app,
                        [(names[a], names[b]) for a, b in child[1]],
                        check_precedence=False,
                    )
                    try:
                        value = objective(graph)
                    except NodeLimitExceeded as exc:
                        value = exc.plan.latency  # achievable, not proved optimal
                        stats.schedule_limit_hit = True
                    if value < best_value:
                        best_value, best_graph = value, graph
                        gen += 1
                        cut, low_cut = _cuts(best_value, use_float)
                        stats.incumbent_updates += 1
                    continue
                heapq.heappush(
                    heap,
                    (child_bound, n - len(placed) - 1, next(counter), child,
                     verified_gen),
                )

    stats.evaluated = objective.evaluations - evaluations
    return best_value, best_graph, stats


__all__ = [
    "BBStats",
    "MAX_BB_LATENCY_SERVICES",
    "bb_minlatency",
    "bb_minperiod",
]

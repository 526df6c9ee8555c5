"""Objective evaluators shared by the optimisers.

The full minimisation problems need a per-graph objective.  Depending on
the model this is exact-and-cheap (OVERLAP period, forest latency), exact
but exponential (one-port orchestration), or an upper bound from a
heuristic scheduler.  The :class:`Effort` knob picks the trade-off so
exhaustive searches stay honest about what they optimise.

On a heterogeneous :class:`~repro.core.Platform` the objectives take two
extra knobs: a *mapping* pins services to servers and evaluates exactly
that placement; ``mapping=None`` additionally optimises the placement
(exhaustive for small instances, greedy + local search beyond — see
:mod:`repro.optimize.placement`), so graph searches transparently become
graph × server-assignment searches.

The :class:`~repro.core.Exactness` knob picks the numeric tier.  ``EXACT``
and ``CERTIFIED`` return bit-for-bit identical exact ``Fraction``s for a
single graph (certification only changes how *searches* use the float
kernel internally); ``FAST`` answers from the
:class:`~repro.core.FloatCosts` flat-array kernel wherever the Section-2.1
bound *is* the objective — OVERLAP period (Theorem 1), the ``BOUND``
effort, shared-server mappings — returning the exact binary image
``Fraction(float_value)``; configurations without a float kernel fall back
to the exact computation.

Callers that already hold a :class:`~repro.core.CostModel` for the same
``(graph, platform, mapping)`` can pass it as ``costs=`` and it is reused
instead of rebuilt — the schedulers accept the same keyword, so one model
now serves a whole evaluation instead of being constructed per layer.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Optional, Union

from ..core import (
    CommModel,
    CostModel,
    Exactness,
    ExecutionGraph,
    FloatCosts,
    ForestBatch,
    Mapping,
    Platform,
)
from ..scheduling.inorder import (
    exact_inorder_period,
    greedy_orders,
    inorder_period_for_orders,
    order_space_size,
)
from ..scheduling.latency import (
    exact_oneport_latency,
    oneport_latency_schedule,
    overlap_latency_layered,
    tree_latency,
)
from ..scheduling.outorder import outorder_schedule


class Effort(enum.Enum):
    """How hard evaluators work: a bound, a heuristic, or exact search."""

    BOUND = "bound"
    HEURISTIC = "heuristic"
    EXACT = "exact"


#: At the ``EXACT`` effort, a non-forest with at most this many services
#: gets the exact one-port latency (:func:`exact_oneport_latency`).
EXACT_LATENCY_MAX = 7


def _normalise(
    platform: Optional[Platform], mapping: Optional[Mapping]
) -> "tuple[Optional[Platform], Optional[Mapping]]":
    """Unit platforms evaluate exactly like ``platform=None`` — collapse them.

    This keeps the fast normalised code path (and shared cache entries) for
    ``Platform.homogeneous(n)``, the paper's platform.  A shared
    (non-injective) mapping is *never* collapsed: co-location zeroes
    intra-server communications and aggregates per-server loads even when
    every speed and bandwidth is 1.
    """
    if (
        platform is not None
        and platform.is_unit
        and (mapping is None or mapping.is_injective)
    ):
        return None, None
    return platform, mapping


def fast_period_value(
    graph: ExecutionGraph,
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Optional[float]:
    """Float-tier period value, or ``None`` when no float kernel applies.

    One-shot form of :func:`make_fast_period_objective`; coverage is
    :func:`kernel_covers`.
    """
    fast = make_fast_period_objective(model, effort, platform, mapping)
    return fast(graph) if fast is not None else None


def fast_latency_value(
    graph: ExecutionGraph,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Optional[float]:
    """Float-tier latency value, or ``None`` when no float kernel applies.

    One-shot form of :func:`make_fast_latency_objective`; coverage is
    :func:`kernel_covers`.
    """
    fast = make_fast_latency_objective(effort, platform, mapping)
    return fast(graph) if fast is not None else None


def period_objective(
    graph: ExecutionGraph,
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    *,
    costs: Optional[CostModel] = None,
    exactness: Union[str, Exactness] = Exactness.EXACT,
) -> Fraction:
    """Period of the best known operation list for *graph* under *model*.

    * OVERLAP: always exact (Theorem 1 — the bound is achievable, on any
      platform).
    * INORDER: ``BOUND`` returns ``max_k Cexec``; ``HEURISTIC`` uses greedy
      orders + MCR (achievable); ``EXACT`` enumerates orders when feasible.
    * OUTORDER: ``BOUND`` as above; otherwise the repair scheduler's value
      (achievable, certified when it meets the bound).

    With a non-unit *platform* and ``mapping=None`` the value is the best
    over server assignments (the placement optimiser of
    :mod:`repro.optimize.placement`).

    *costs* reuses a caller-built :class:`~repro.core.CostModel` for the
    same configuration; *exactness* picks the numeric tier (``FAST``
    answers from the float kernel where one exists — see the module
    docstring).

    The Section 2.3 instance shows the INORDER bound/exact gap::

        >>> from repro.core import CommModel
        >>> from repro.workloads import fig1_example
        >>> graph = fig1_example().graph
        >>> period_objective(graph, CommModel.INORDER, Effort.BOUND)
        Fraction(7, 1)
        >>> period_objective(graph, CommModel.INORDER, Effort.EXACT)
        Fraction(23, 3)

    The planner memoizes this function through
    :class:`repro.planner.EvaluationCache`.
    """
    exactness = Exactness.coerce(exactness)
    platform, mapping = _normalise(platform, mapping)
    if exactness is Exactness.FAST:
        fast = fast_period_value(graph, model, effort, platform, mapping)
        if fast is not None:
            return Fraction(fast)
    if platform is not None and mapping is None:
        from .placement import optimize_mapping

        value, _ = optimize_mapping(
            graph, "period", model, effort, platform, exactness=exactness
        )
        return value
    if costs is None:
        costs = CostModel(graph, platform, mapping)
    if model is CommModel.OVERLAP:
        return costs.period_lower_bound(model)
    if effort is Effort.BOUND:
        return costs.period_lower_bound(model)
    if mapping is not None and not mapping.is_injective:
        # Shared servers: the one-port orchestration schedulers assume one
        # service per server; the aggregated steady-state bound is the
        # analytic readout of the concurrent regime.
        return costs.period_lower_bound(model)
    if model is CommModel.INORDER:
        if effort is Effort.EXACT and order_space_size(graph) <= 50_000:
            lam, _ = exact_inorder_period(
                graph, max_configs=50_000, platform=platform, mapping=mapping
            )
            return lam
        return inorder_period_for_orders(
            graph,
            greedy_orders(graph, platform=platform, mapping=mapping, costs=costs),
            platform=platform,
            mapping=mapping,
        )
    # OUTORDER
    return outorder_schedule(
        graph, platform=platform, mapping=mapping, costs=costs
    ).period


def latency_objective(
    graph: ExecutionGraph,
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    *,
    costs: Optional[CostModel] = None,
    exactness: Union[str, Exactness] = Exactness.EXACT,
) -> Fraction:
    """Latency of the best known operation list for *graph* under *model*.

    Forests are exact for every effort level (Algorithm 1 / Prop 12, which
    generalises to platforms via the delivery-time exchange argument).
    General DAGs use the critical-path bound (``BOUND``), the greedy
    serialized scheduler plus — for OVERLAP — the layered bandwidth-sharing
    scheduler (``HEURISTIC``), or branch-and-bound (``EXACT``, one-port;
    an upper bound for OVERLAP where multi-port can be strictly better).

    With a non-unit *platform* and ``mapping=None`` the value is the best
    over server assignments.  *costs*/*exactness* as in
    :func:`period_objective`.

    Example (the Figure-1 graph; the paper's hand schedule achieves 21)::

        >>> from repro.core import CommModel
        >>> from repro.workloads import fig1_example
        >>> latency_objective(fig1_example().graph, CommModel.INORDER)
        Fraction(21, 1)
    """
    exactness = Exactness.coerce(exactness)
    platform, mapping = _normalise(platform, mapping)
    if exactness is Exactness.FAST:
        fast = fast_latency_value(graph, effort, platform, mapping)
        if fast is not None:
            return Fraction(fast)
    if platform is not None and mapping is None:
        from .placement import optimize_mapping

        value, _ = optimize_mapping(
            graph, "latency", model, effort, platform, exactness=exactness
        )
        return value
    if mapping is not None and not mapping.is_injective:
        # Shared servers: Algorithm 1 and the one-port schedulers assume
        # one service per server; the critical path with free intra-server
        # edges is the concurrent regime's analytic readout.
        if costs is None:
            costs = CostModel(graph, platform, mapping)
        return costs.latency_lower_bound()
    if graph.is_forest:
        return tree_latency(graph, platform=platform, mapping=mapping)
    if costs is None:
        costs = CostModel(graph, platform, mapping)
    if effort is Effort.BOUND:
        return costs.latency_lower_bound()
    if effort is Effort.EXACT and len(graph.nodes) <= EXACT_LATENCY_MAX:
        value = exact_oneport_latency(graph, platform=platform, mapping=mapping)
    else:
        value = oneport_latency_schedule(
            graph, platform=platform, mapping=mapping
        ).latency
    if model is CommModel.OVERLAP:
        layered = overlap_latency_layered(graph, platform=platform, mapping=mapping)
        if layered is not None and layered.latency < value:
            value = layered.latency
    return value


#: Objective kinds understood by the searches and the planner.
OBJECTIVES = ("period", "latency")


class Objective:
    """A period or latency objective bound to one search configuration.

    Called like a ``graph -> Fraction`` function, it returns
    :func:`period_objective` or :func:`latency_objective` (*kind*) of the
    graph under its ``model``, ``effort``, ``platform``, ``mapping`` and
    ``exactness``, and counts the call in ``evaluations``.  The searches
    read their configuration from these attributes: greedy prices its
    insertions on per-node terms and local search its moves on deltas
    where the objective is the Section-2.1 bound, and branch and bound
    takes its model, platform, mapping and numeric tier from them.  A
    plain ``graph -> Fraction`` callable carries no configuration, so the
    heuristics score every candidate graph through it.

    :class:`repro.planner.CachedObjective` is the memoizing subclass.
    """

    __slots__ = (
        "kind", "model", "effort", "platform", "mapping", "exactness",
        "evaluations",
    )

    def __init__(
        self,
        kind: str,
        model: CommModel,
        effort: Effort = Effort.HEURISTIC,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
        exactness: Union[str, Exactness] = Exactness.EXACT,
    ) -> None:
        if kind not in OBJECTIVES:
            raise ValueError(
                f"unknown objective {kind!r}; expected one of {OBJECTIVES}"
            )
        self.kind = kind
        self.model = model
        self.effort = effort
        self.platform = platform
        self.mapping = mapping
        self.exactness = Exactness.coerce(exactness)
        self.evaluations = 0

    def __call__(self, graph: ExecutionGraph) -> Fraction:
        self.evaluations += 1
        return self.compute(graph)

    def compute(self, graph: ExecutionGraph) -> Fraction:
        """The value of *graph*, without counting an evaluation."""
        evaluate = period_objective if self.kind == "period" else latency_objective
        return evaluate(
            graph, self.model, self.effort, self.platform, self.mapping,
            exactness=self.exactness,
        )


def make_period_objective(
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    exactness: Union[str, Exactness] = Exactness.EXACT,
) -> Objective:
    """The period :class:`Objective` for a fixed model/effort/platform.

    Example::

        >>> from repro.core import CommModel, ExecutionGraph, make_application
        >>> obj = make_period_objective(CommModel.OVERLAP)
        >>> app = make_application([("A", 4, 1), ("B", 4, 1)])
        >>> obj(ExecutionGraph.chain(app, ["A", "B"]))
        Fraction(4, 1)
        >>> obj.evaluations
        1

    For a memoized equivalent use
    ``repro.planner.EvaluationCache.objective("period", model, effort)``.
    """
    return Objective("period", model, effort, platform, mapping, exactness)


def make_latency_objective(
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    exactness: Union[str, Exactness] = Exactness.EXACT,
) -> Objective:
    """The latency :class:`Objective` for a fixed model/effort/platform.

    Example::

        >>> from repro.core import CommModel, ExecutionGraph, make_application
        >>> obj = make_latency_objective(CommModel.OVERLAP)
        >>> app = make_application([("A", 4, 1), ("B", 4, 1)])
        >>> obj(ExecutionGraph.chain(app, ["A", "B"]))   # 1+4+1+4+1
        Fraction(11, 1)
    """
    return Objective("latency", model, effort, platform, mapping, exactness)


def kernel_covers(
    kind: str,
    model: Optional[CommModel],
    effort: Effort,
    *,
    shared: bool = False,
    forest: bool = False,
) -> bool:
    """Is the Section-2.1 bound the *kind* objective here?

    The coverage rule of every float kernel (scalar, batched and the
    incremental deltas), which price that bound.  The period is covered
    under OVERLAP (Theorem 1), at the ``BOUND`` effort, or on a *shared*
    mapping; the latency at the ``BOUND`` effort on a non-*forest* (a
    forest's latency is Algorithm 1), or on a *shared* mapping.

        >>> kernel_covers("period", CommModel.INORDER, Effort.HEURISTIC)
        False
    """
    if shared:
        return True
    if kind == "period":
        return model is CommModel.OVERLAP or effort is Effort.BOUND
    return effort is Effort.BOUND and not forest


def _kernel_config(
    kind: str,
    model: Optional[CommModel],
    effort: Effort,
    platform: Optional[Platform],
    mapping: Optional[Mapping],
) -> Optional["tuple[Optional[Platform], Optional[Mapping], bool]"]:
    """The normalised ``(platform, mapping, shared)`` a *kind* kernel
    prices, or ``None`` when no graph can be covered — in particular on
    a non-unit platform with a free mapping, whose objective runs the
    placement optimiser (which has its own gate)."""
    plat, mapp = _normalise(platform, mapping)
    if plat is not None and mapp is None:
        return None
    shared = mapp is not None and not mapp.is_injective
    if not kernel_covers(kind, model, effort, shared=shared):
        return None
    return plat, mapp, shared


def make_fast_period_objective(
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Optional[Callable[[ExecutionGraph], Optional[float]]]:
    """A ``graph -> float | None`` period evaluator on the float tier.

    ``None`` where no kernel applies (see :func:`_kernel_config`); the
    returned callable answers ``None`` for a graph whose quantities
    overflow a float — the caller must score exactly.
    """
    config = _kernel_config("period", model, effort, platform, mapping)
    if config is None:
        return None
    plat, mapp, _shared = config

    def evaluate(graph: ExecutionGraph) -> Optional[float]:
        try:
            return FloatCosts(graph, plat, mapp).period_lower_bound(model)
        except OverflowError:
            return None  # beyond float range: exact tier only

    return evaluate


def make_forest_period_batch(
    app,
    model: CommModel,
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Optional[ForestBatch]:
    """The forest enumerations' gate: a :class:`~repro.core.ForestBatch`
    for this configuration, or ``None`` where no kernel applies or the
    instance overflows float range.  Its rows are bit-for-bit the scalar
    kernel's floats.
    """
    config = _kernel_config("period", model, effort, platform, mapping)
    if config is None:
        return None
    plat, mapp, _shared = config
    try:
        return ForestBatch(app, model, plat, mapp)
    except OverflowError:
        return None  # beyond float range: exact tier only


def make_fast_latency_objective(
    effort: Effort = Effort.HEURISTIC,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
) -> Optional[Callable[[ExecutionGraph], Optional[float]]]:
    """A ``graph -> float | None`` latency evaluator on the float tier.

    ``None`` where no kernel applies (see :func:`_kernel_config`); the
    returned callable answers ``None`` for a graph outside
    :func:`kernel_covers` (an injective forest) or beyond float range.
    """
    config = _kernel_config("latency", None, effort, platform, mapping)
    if config is None:
        return None
    plat, mapp, shared = config

    def evaluate(graph: ExecutionGraph) -> Optional[float]:
        if not kernel_covers(
            "latency", None, effort, shared=shared, forest=graph.is_forest
        ):
            return None  # Algorithm 1 territory: no float shortcut
        try:
            return FloatCosts(graph, plat, mapp).latency_lower_bound()
        except OverflowError:
            return None  # beyond float range: exact tier only
    return evaluate


__all__ = [
    "EXACT_LATENCY_MAX",
    "Effort",
    "OBJECTIVES",
    "Objective",
    "fast_latency_value",
    "fast_period_value",
    "kernel_covers",
    "latency_objective",
    "make_fast_latency_objective",
    "make_fast_period_objective",
    "make_forest_period_batch",
    "make_latency_objective",
    "make_period_objective",
    "period_objective",
]

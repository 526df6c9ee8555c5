"""Pluggable solver registry backing :func:`repro.planner.solve`.

A *solver* turns an :class:`~repro.core.Application` into an execution
graph optimised for a period or latency objective.  The built-in solvers
wrap the strategies of :mod:`repro.optimize`:

========================  =====================================================
``exhaustive``            Enumerate forests (MinPeriod, Proposition 4) or DAGs
                          (MinLatency) and keep the best — exact, exponential.
``greedy``                Incremental forest construction (cost-ordered
                          insertion, best attachment point).
``local-search``          Greedy seed + first-improvement reparenting search.
``hierarchical``          Structure on the unit abstraction, then
                          topology-partitioned placement, then
                          pinned-placement refinement.
``chain``                 Optimal *chain* plan in closed form (Propositions 8
                          and 16) — polynomial, restricted structure.
``nocomm``                The communication-free optimum of Srivastava et al.,
                          re-evaluated with communication costs (baseline).
========================  =====================================================

Registering a custom solver::

    >>> from repro.planner import SolverRegistry, registry
    >>> from repro.core import ExecutionGraph
    >>> def star_solver(app, *, objective, model, effort, objective_fn):
    ...     hub = min(app.names, key=app.cost)
    ...     graph = ExecutionGraph(app, [(hub, n) for n in app.names if n != hub])
    ...     return objective_fn(graph), graph, {"hub": hub}
    >>> reg = SolverRegistry()
    >>> spec = reg.register("star", star_solver,
    ...                     description="cheapest service feeds all")
    >>> "star" in reg
    True

A solver callable receives the application plus keyword arguments
``objective`` (``"period"``/``"latency"``), ``model``
(:class:`~repro.core.CommModel`), ``effort``
(:class:`~repro.optimize.Effort`) and ``objective_fn`` (a memoized
``graph -> Fraction`` evaluator; route all scoring through it to benefit
from the shared cache).  It returns ``(value, graph, extras)`` where
*extras* is a dict merged into :attr:`PlanResult.stats.extras`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..core import Application, CommModel, Exactness, ExecutionGraph
from ..optimize.branch_and_bound import bb_minlatency, bb_minperiod
from ..optimize.chains import minlatency_chain, minperiod_chain
from ..optimize.evaluation import (
    Effort,
    make_fast_latency_objective,
    make_fast_period_objective,
    make_forest_period_batch,
    make_latency_objective,
    make_period_objective,
)
from ..optimize.exhaustive import (
    FOREST_CHUNK,
    MAX_DAG_SERVICES,
    iter_dags,
    iter_forests,
    scan_best,
    scan_best_forests_batched,
)
from ..optimize.greedy import greedy_forest
from ..optimize.incremental import period_delta
from ..optimize.local_search import local_search_forest
from ..optimize.nocomm import (
    nocomm_optimal_latency_chain,
    nocomm_optimal_period_plan,
)

SolverOutcome = Tuple[Fraction, ExecutionGraph, Dict[str, Any]]
SolverFn = Callable[..., SolverOutcome]


@dataclass(frozen=True)
class SolverSpec:
    """A registered solver plus the metadata ``auto`` selection needs."""

    name: str
    run: SolverFn
    description: str = ""
    objectives: Tuple[str, ...] = ("period", "latency")
    supports_precedence: bool = False
    #: ``None`` means unbounded; otherwise the solver refuses larger apps.
    max_services: Optional[int] = None

    def supports(
        self, app: Application, objective: str
    ) -> bool:
        """Can this solver handle *app* for *objective*?"""
        if objective not in self.objectives:
            return False
        if app.precedence and not self.supports_precedence:
            return False
        if self.max_services is not None and len(app) > self.max_services:
            return False
        return True


class SolverRegistry:
    """Name -> :class:`SolverSpec` mapping with registration helpers."""

    def __init__(self) -> None:
        self._solvers: Dict[str, SolverSpec] = {}

    def register(
        self,
        name: str,
        run: SolverFn,
        *,
        description: str = "",
        objectives: Tuple[str, ...] = ("period", "latency"),
        supports_precedence: bool = False,
        max_services: Optional[int] = None,
        replace: bool = False,
    ) -> SolverSpec:
        """Register *run* under *name*; returns the stored spec.

        Raises :class:`ValueError` on duplicate names unless ``replace``.
        """
        if name in self._solvers and not replace:
            raise ValueError(f"solver {name!r} is already registered")
        spec = SolverSpec(
            name=name,
            run=run,
            description=description,
            objectives=tuple(objectives),
            supports_precedence=supports_precedence,
            max_services=max_services,
        )
        self._solvers[name] = spec
        return spec

    def unregister(self, name: str) -> None:
        del self._solvers[name]

    def get(self, name: str) -> SolverSpec:
        try:
            return self._solvers[name]
        except KeyError:
            known = ", ".join(sorted(self._solvers))
            raise ValueError(
                f"unknown solver {name!r}; registered: {known}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._solvers

    def __iter__(self) -> Iterator[SolverSpec]:
        return iter(self._solvers.values())

    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._solvers))


# ---------------------------------------------------------------------------
# Built-in solvers
# ---------------------------------------------------------------------------

def _solve_exhaustive(
    app: Application,
    *,
    objective: str,
    model: CommModel,
    effort: Effort,
    objective_fn,
    space: Optional[str] = None,
) -> SolverOutcome:
    """Exact enumeration: forests for period (Prop 4), DAGs for latency.

    MinLatency optima need not be forests (the Prop-13 fork-join gadget),
    so latency requires DAG enumeration, which is only feasible for
    ``n <= 5``; larger latency instances are refused rather than silently
    restricted.  *space* (a solver option: ``solve(app, method="exhaustive",
    space="forests")``) forces ``"forests"`` (the Prop-17 restricted
    problem) or ``"dags"`` explicitly.  Precedence-constrained
    applications need DAG enumeration (forests cannot express multiple
    predecessors' transitive requirements in general).

    On the float tiers each candidate shape has one gate: forest periods
    are priced in bulk on a :class:`~repro.core.ForestBatch`, DAGs one at
    a time on the scalar kernel; the survivors are scored through the
    (memoized, exact) objective.  Without a kernel the scan is plain.
    """
    if space not in (None, "forests", "dags"):
        raise ValueError(f"space must be 'forests' or 'dags', got {space!r}")
    if space is None:
        if objective == "period" and not app.precedence:
            space = "forests"
        elif len(app) <= MAX_DAG_SERVICES:
            space = "dags"
        elif app.precedence:
            raise ValueError(
                f"exhaustive search with precedence constraints requires "
                f"n <= {MAX_DAG_SERVICES} services (DAG enumeration), got {len(app)}"
            )
        else:
            raise ValueError(
                f"exhaustive MinLatency needs n <= {MAX_DAG_SERVICES} for DAG "
                f"enumeration (got n={len(app)}; optimal latency plans need "
                f"not be forests — Prop 13); pass space='forests' for the "
                f"forest-restricted problem or use method='local-search'"
            )
    exactness = getattr(objective_fn, "exactness", Exactness.EXACT)
    platform = getattr(objective_fn, "platform", None)
    mapping = getattr(objective_fn, "mapping", None)
    if space == "forests":
        fb = None
        if exactness.uses_float and objective == "period":
            fb = make_forest_period_batch(app, model, effort, platform, mapping)
        if fb is not None:
            value, graph, count = scan_best_forests_batched(
                app, objective_fn, fb
            )
            return value, graph, {
                "space": space, "graphs_considered": count,
                "batched": True, "chunk": FOREST_CHUNK,
            }
        value, graph, count = scan_best(iter_forests(app), objective_fn)
        return value, graph, {"space": space, "graphs_considered": count}
    fast_objective = None
    if exactness.uses_float:
        if objective == "period":
            fast_objective = make_fast_period_objective(
                model, effort, platform, mapping
            )
        else:
            fast_objective = make_fast_latency_objective(
                effort, platform, mapping
            )
    value, graph, count = scan_best(
        iter_dags(app), objective_fn, fast_objective=fast_objective
    )
    return value, graph, {"space": space, "graphs_considered": count}


def _solve_greedy(
    app: Application,
    *,
    objective: str,
    model: CommModel,
    effort: Effort,
    objective_fn,
) -> SolverOutcome:
    value, graph = greedy_forest(app, objective_fn)
    return value, graph, {}


def _solve_local_search(
    app: Application,
    *,
    objective: str,
    model: CommModel,
    effort: Effort,
    objective_fn,
    max_moves: int = 200,
) -> SolverOutcome:
    """Greedy seed plus reparenting local search.

    Where the objective equals the Section-2.1 bound (period under
    OVERLAP, or the bound effort) candidate moves are priced by
    :class:`~repro.optimize.incremental.IncrementalForestPeriod` deltas
    instead of full objective evaluations.
    """
    seed_value, seed_graph = greedy_forest(app, objective_fn)
    delta = None
    if objective == "period":
        delta = period_delta(
            seed_graph, model, effort,
            getattr(objective_fn, "platform", None),
            getattr(objective_fn, "mapping", None),
            exactness=getattr(objective_fn, "exactness", Exactness.EXACT),
        )
    batch = None
    if delta is None and objective == "period":
        exactness = getattr(objective_fn, "exactness", Exactness.EXACT)
        if exactness.uses_float:
            # No delta evaluator: bulk-gate each node's reparent column on
            # the batched kernel instead (identical move sequence).
            batch = make_forest_period_batch(
                app, model, effort,
                getattr(objective_fn, "platform", None),
                getattr(objective_fn, "mapping", None),
            )
    value, graph = local_search_forest(
        seed_graph, objective_fn, max_moves=max_moves, delta=delta, batch=batch
    )
    if delta is not None:
        # One real evaluation pins the memoized value for the winner (and
        # double-checks the delta arithmetic against the cached objective).
        value = objective_fn(graph)
    return value, graph, {
        "seed_value": seed_value,
        "incremental": delta is not None,
        "batched": batch is not None,
    }


def _solve_hierarchical(
    app: Application,
    *,
    objective: str,
    model: CommModel,
    effort: Effort,
    objective_fn,
    max_moves: int = 200,
    strategy: str = "hierarchical",
) -> SolverOutcome:
    """Structure-then-place pipeline for topology-aware platforms.

    Decomposes the joint structure x placement search the way hierarchical
    process mapping does: (1) optimise the execution graph on the
    normalised unit abstraction (structure is platform-independent to
    first order), (2) place that structure with the topology-partitioned
    seed + local search of :func:`~repro.optimize.placement.optimize_mapping`
    (``strategy="hierarchical"``), (3) refine the structure once more at
    the pinned placement, (4) re-score the winner through *objective_fn*
    so the reported value shares the planner's memo (and, with a free
    mapping, remains the best-over-assignments semantics).  On a flat,
    unit, or pinned-mapping configuration there is nothing to decompose
    and the plain local-search solver runs instead
    (``extras["hierarchical"]`` is ``False``).
    """
    platform = getattr(objective_fn, "platform", None)
    mapping = getattr(objective_fn, "mapping", None)
    exactness = getattr(objective_fn, "exactness", Exactness.EXACT)
    structured = (
        platform is not None
        and mapping is None
        and len(platform.topology.groups()) > 1
    )
    if not structured:
        value, graph, extras = _solve_local_search(
            app, objective=objective, model=model, effort=effort,
            objective_fn=objective_fn, max_moves=max_moves,
        )
        extras["hierarchical"] = False
        return value, graph, extras

    # Phase 1: structure on the unit abstraction.
    if objective == "period":
        unit_fn = make_period_objective(model, effort, exactness=exactness)
    else:
        unit_fn = make_latency_objective(model, effort, exactness=exactness)
    _seed_value, seed_graph = greedy_forest(app, unit_fn)
    _unit_value, struct_graph = local_search_forest(
        seed_graph, unit_fn, max_moves=max_moves
    )

    # Phase 2: topology-aware placement of that structure.
    from ..optimize.placement import optimize_mapping

    placed_value, placed = optimize_mapping(
        struct_graph, objective, model, effort, platform,
        max_moves=max_moves, exactness=exactness, strategy=strategy,
    )

    # Phase 3: refine the structure at the pinned placement.
    if objective == "period":
        pinned_fn = make_period_objective(
            model, effort, platform, placed, exactness=exactness
        )
    else:
        pinned_fn = make_latency_objective(
            model, effort, platform, placed, exactness=exactness
        )
    delta = None
    if objective == "period":
        delta = period_delta(
            struct_graph, model, effort, platform, placed,
            exactness=exactness,
        )
    _pinned_value, graph = local_search_forest(
        struct_graph, pinned_fn, max_moves=max_moves, delta=delta
    )

    # Phase 4: report through the planner's shared (memoized) objective.
    value = objective_fn(graph)
    return value, graph, {
        "hierarchical": True,
        "placement_value": placed_value,
        "placement": {s: placed.server(s) for s in sorted(graph.nodes)},
    }


def _solve_branch_and_bound(
    app: Application,
    *,
    objective: str,
    model: CommModel,
    effort: Effort,
    objective_fn,
    node_limit: Optional[int] = None,
    deadline: Optional[float] = None,
    leaf_batch: bool = False,
) -> SolverOutcome:
    """Exact best-first branch and bound (see
    :mod:`repro.optimize.branch_and_bound`).

    Optimises the same quantity as ``exhaustive`` at the matching effort —
    forests for period (Proposition 4), DAGs for latency — but prunes with
    incrementally maintained ``Cin``/``Ccomp``/``Cout`` lower bounds and a
    greedy + local-search incumbent, reaching instance sizes where plain
    enumeration is infeasible.  *node_limit* (a solver option) caps the
    expanded states; when hit, the incumbent is returned as an upper bound
    and ``extras["certified"]`` is ``False``.  *deadline* (seconds) stops
    the search the same way on wall clock — the anytime knob the portfolio
    solver leans on.  ``leaf_batch=True`` routes the certified search's
    complete-forest layer through one batched float pricing per expansion
    (same optimum bit-for-bit; ``evaluated``/``pruned`` counters may
    shrink, hence opt-in).
    """
    platform = getattr(objective_fn, "platform", None)
    mapping = getattr(objective_fn, "mapping", None)
    exactness = getattr(objective_fn, "exactness", Exactness.EXACT)
    if objective == "period":
        fb = None
        if leaf_batch and exactness is Exactness.CERTIFIED:
            fb = make_forest_period_batch(app, model, effort, platform, mapping)
        value, graph, stats = bb_minperiod(
            app, objective_fn, model=model, platform=platform, mapping=mapping,
            node_limit=node_limit, deadline=deadline, leaf_batch=fb,
            exactness=exactness,
        )
    else:
        value, graph, stats = bb_minlatency(
            app, objective_fn, model=model, platform=platform, mapping=mapping,
            node_limit=node_limit, deadline=deadline, exactness=exactness,
        )
    return value, graph, {
        "space": "forests" if objective == "period" else "dags",
        "graphs_considered": stats.evaluated,
        # A FAST search prunes and scores on float images: the incumbent
        # it returns is honest but its optimality is no longer certified.
        "certified": not stats.limit_hit and exactness is not Exactness.FAST,
        **stats.as_extras(),
    }


def _solve_portfolio(
    app: Application,
    *,
    objective: str,
    model: CommModel,
    effort: Effort,
    objective_fn,
    deadline: Optional[float] = None,
    primary: str = "auto",
    seeds: int = 2,
    seed_base: int = 17,
    max_moves: int = 200,
    node_limit: Optional[int] = None,
    workers: int = 0,
) -> SolverOutcome:
    """Anytime portfolio: race greedy / local search / B&B under *deadline*.

    See :mod:`repro.optimize.portfolio` for the roster, the deterministic
    winner rule and the process mode (``workers > 0``).  Always returns a
    valid plan — greedy runs unconditionally even at ``deadline=0``.
    """
    from ..optimize.portfolio import portfolio_search

    outcome = portfolio_search(
        app, objective_fn, objective=objective, model=model, effort=effort,
        deadline=deadline, primary=primary, seeds=seeds, seed_base=seed_base,
        max_moves=max_moves, node_limit=node_limit, workers=workers,
    )
    return outcome.value, outcome.graph, {
        "trajectory": outcome.trajectory,
        "budget_exhausted": outcome.budget_exhausted,
        "racers": outcome.racers,
    }


def _solve_chain(
    app: Application,
    *,
    objective: str,
    model: CommModel,
    effort: Effort,
    objective_fn,
) -> SolverOutcome:
    if objective == "period":
        value, graph = minperiod_chain(app, model)
    else:
        value, graph = minlatency_chain(app)
    platform = getattr(objective_fn, "platform", None)
    if platform is not None and not platform.is_unit:
        # The closed forms assume the normalised unit platform; on a real
        # platform the chain structure is kept as a heuristic but its value
        # must be re-scored at its (best or pinned) placement.
        return objective_fn(graph), graph, {"unit_chain_value": value}
    return value, graph, {}


def _solve_nocomm(
    app: Application,
    *,
    objective: str,
    model: CommModel,
    effort: Effort,
    objective_fn,
) -> SolverOutcome:
    if objective == "period":
        free_value, graph = nocomm_optimal_period_plan(app)
    else:
        free_value, graph = nocomm_optimal_latency_chain(app)
    return objective_fn(graph), graph, {"nocomm_value": free_value}


def _make_default_registry() -> SolverRegistry:
    reg = SolverRegistry()
    reg.register(
        "exhaustive",
        _solve_exhaustive,
        description="exact enumeration (forests for period, DAGs for latency)",
        supports_precedence=True,
    )
    reg.register(
        "greedy",
        _solve_greedy,
        description="incremental greedy forest construction",
    )
    reg.register(
        "local-search",
        _solve_local_search,
        description="greedy seed + first-improvement reparenting local search",
    )
    reg.register(
        "hierarchical",
        _solve_hierarchical,
        description="structure on the unit abstraction, then topology-"
        "partitioned placement, then pinned-placement refinement",
    )
    reg.register(
        "branch-and-bound",
        _solve_branch_and_bound,
        description="best-first exact search with Cin/Ccomp/Cout pruning",
    )
    reg.register(
        "portfolio",
        _solve_portfolio,
        description="anytime racer portfolio (greedy / local search / B&B)",
    )
    reg.register(
        "chain",
        _solve_chain,
        description="optimal linear chain (Propositions 8 / 16)",
    )
    reg.register(
        "nocomm",
        _solve_nocomm,
        description="communication-free baseline structure, re-evaluated",
    )
    return reg


#: The default registry consulted by :func:`repro.planner.solve`.
registry: SolverRegistry = _make_default_registry()


def register_solver(name: str, run: SolverFn, **kwargs: Any) -> SolverSpec:
    """Register *run* in the default registry (see :class:`SolverRegistry`)."""
    return registry.register(name, run, **kwargs)


__all__ = [
    "MAX_DAG_SERVICES",
    "SolverFn",
    "SolverOutcome",
    "SolverRegistry",
    "SolverSpec",
    "register_solver",
    "registry",
]

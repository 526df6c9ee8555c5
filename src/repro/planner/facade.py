"""`solve` / `compare`: the single front door to mapping and orchestration.

Every consumer of the reproduction — examples, benchmarks, the CLI —
states *what* it wants optimised (objective, communication model) and
optionally *how* (method, effort); the facade picks a solver, routes all
objective evaluations through the shared memo cache, schedules a concrete
operation list for the winning graph, and returns a :class:`PlanResult`.

Two problem shapes are accepted:

* an :class:`~repro.core.Application` — the **mapping** problem: search
  the space of execution graphs (NP-hard in general; Theorems 2 and 4);
* an :class:`~repro.core.ExecutionGraph` — the **orchestration** problem:
  the graph is fixed, find the best operation list for it (the setting of
  the paper's Section 2.3 worked example).

Quickstart::

    >>> from repro import make_application
    >>> from repro.planner import solve
    >>> app = make_application([("A", 1, "1/2"), ("B", 4, "1/2"), ("C", 16, 1)])
    >>> result = solve(app, objective="period", model="overlap")
    >>> result.value
    Fraction(4, 1)
    >>> result.method
    'branch-and-bound'
    >>> result.plan.is_valid()
    True
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, List, Optional, Sequence, Union

from ..core import (
    ALL_MODELS,
    Application,
    CommModel,
    Exactness,
    ExecutionGraph,
    Mapping,
    Plan,
    Platform,
    platform_fingerprint,
)
from ..optimize.evaluation import EXACT_LATENCY_MAX, Effort
from ..scheduling.inorder import inorder_schedule
from ..scheduling.latency import (
    NodeLimitExceeded,
    best_latency_schedule,
    exact_oneport_schedule,
    oneport_latency_schedule,
    overlap_latency_layered,
    tree_latency_schedule,
)
from ..scheduling.outorder import outorder_schedule
from ..scheduling.overlap import schedule_period_overlap
from .cache import EvaluationCache, default_cache, graph_key
from .catalog import load_platform
from .registry import MAX_DAG_SERVICES, SolverRegistry, registry as default_registry
from .result import PlanResult, SolverStats

Problem = Union[Application, ExecutionGraph]

#: ``method="auto"`` answers exactly up to these sizes (forests for
#: period, DAGs for latency), heuristic search beyond them.  Branch and
#: bound prunes with Cin/Ccomp/Cout lower bounds, so the exact range
#: reaches well past the plain-enumeration caps (which were 5 and 4); the
#: no-communication chain bound over the unplaced services closes most
#: period searches at n=10 at the root, in a few milliseconds.
AUTO_EXHAUSTIVE_MAX = {"period": 10, "latency": MAX_DAG_SERVICES}

#: Orchestration methods (fixed graph) and the evaluation effort they map to.
_GRAPH_EFFORT = {
    "exhaustive": Effort.EXACT,
    "heuristic": Effort.HEURISTIC,
    "bound": Effort.BOUND,
}


def _coerce_model(model: Union[str, CommModel]) -> CommModel:
    if isinstance(model, CommModel):
        return model
    try:
        return CommModel(str(model).lower())
    except ValueError:
        names = ", ".join(m.value for m in ALL_MODELS)
        raise ValueError(f"unknown model {model!r}; expected one of: {names}") from None


def _coerce_objective(objective: str) -> str:
    obj = str(objective).lower()
    if obj not in ("period", "latency"):
        raise ValueError(
            f"unknown objective {objective!r}; expected 'period' or 'latency'"
        )
    return obj


def _coerce_effort(effort: Union[str, Effort, None], fallback: Effort) -> Effort:
    if effort is None:
        return fallback
    if isinstance(effort, Effort):
        return effort
    try:
        return Effort(str(effort).lower())
    except ValueError:
        names = ", ".join(e.value for e in Effort)
        raise ValueError(f"unknown effort {effort!r}; expected one of: {names}") from None


def _coerce_exactness(exactness: Union[str, Exactness, None]) -> Exactness:
    """``None`` means the default tier: certified (bit-for-bit exact values,
    float-tier speed inside the searches)."""
    return Exactness.coerce(exactness)


def _coerce_robust(robust):
    """Accept a :class:`~repro.robust.RobustSpec`, a spec string, or ``None``.

    Imported lazily: ``repro.robust`` itself calls back into this module,
    and a top-level import would trip over the partially-initialised
    planner package.
    """
    if robust is None:
        return None
    from ..robust.spec import RobustSpec

    return RobustSpec.coerce(robust)


def _coerce_platform(platform: Union[str, Platform, None]) -> Optional[Platform]:
    """Accept a :class:`Platform`, a catalog spec string, or ``None``."""
    if platform is None or isinstance(platform, Platform):
        return platform
    if isinstance(platform, str):
        return load_platform(platform)
    raise TypeError(
        f"platform must be a Platform, a spec string, or None, "
        f"got {type(platform).__name__}"
    )


def _coerce_mapping(
    mapping, platform: Optional[Platform]
) -> Optional[Mapping]:
    """Accept a :class:`Mapping`, a plain service->server dict, or ``None``."""
    if mapping is None:
        return None
    if platform is None:
        raise ValueError("a mapping requires a platform")
    if not isinstance(mapping, Mapping):
        mapping = Mapping(dict(mapping))
    if not mapping.is_injective:
        raise ValueError(
            "solve() schedules one service per server; use "
            "repro.planner.solve_concurrent for shared-server mappings"
        )
    return mapping


def _resolve_mapping(
    graph: ExecutionGraph,
    objective: str,
    model: CommModel,
    effort: Effort,
    platform: Optional[Platform],
    mapping: Optional[Mapping],
    exactness: Exactness = Exactness.EXACT,
) -> Optional[Mapping]:
    """The mapping a concrete schedule should use.

    A pinned mapping wins; unit platforms keep the positional default
    (every assignment is equivalent there); non-unit platforms run the
    placement optimiser for the chosen graph (on the numeric tier the
    exactness knob picks — usually a placement-memo lookup by then).
    """
    if platform is None or mapping is not None or platform.is_unit:
        return mapping
    from ..optimize.placement import optimize_mapping

    _, best = optimize_mapping(
        graph, objective, model, effort, platform, exactness=exactness
    )
    return best


def build_schedule(
    graph: ExecutionGraph,
    objective: str,
    model: CommModel,
    platform: Optional[Platform] = None,
    mapping: Optional[Mapping] = None,
    effort: Effort = Effort.HEURISTIC,
) -> Plan:
    """A concrete operation list for *graph* optimised towards *objective*.

    Period: Theorem-1 construction (OVERLAP), exact/greedy MCR
    orchestration (INORDER), repair scheduler (OUTORDER).  Latency:
    Algorithm 1 on forests, otherwise the greedy serialized one-port
    schedule, improved by the layered bandwidth-sharing schedule under
    OVERLAP.  At the ``EXACT`` *effort* a non-forest of at most
    :data:`~repro.optimize.evaluation.EXACT_LATENCY_MAX` services gets the
    schedule the exact latency objective scored instead
    (:func:`~repro.scheduling.latency.exact_oneport_schedule`, or the best
    one it found within its node limit), so the plan achieves the value.
    *platform*/*mapping* scale every duration (``None`` is the paper's
    unit platform).
    """
    if objective == "period":
        if model is CommModel.OVERLAP:
            return schedule_period_overlap(graph, platform=platform, mapping=mapping)
        if model is CommModel.INORDER:
            return inorder_schedule(graph, platform=platform, mapping=mapping)
        return outorder_schedule(graph, platform=platform, mapping=mapping)
    if graph.is_forest:
        plan = tree_latency_schedule(graph, platform=platform, mapping=mapping)
        return Plan(
            plan.graph, plan.operation_list, model,
            platform=plan.platform, mapping=plan.mapping,
        )
    if effort is Effort.EXACT and len(graph.nodes) <= EXACT_LATENCY_MAX:
        try:
            plan = exact_oneport_schedule(
                graph, model, platform=platform, mapping=mapping
            )
        except NodeLimitExceeded as exc:
            plan = exc.plan
        if model is CommModel.OVERLAP:
            # As latency_objective: the layered schedule where it is shorter.
            layered = overlap_latency_layered(
                graph, platform=platform, mapping=mapping
            )
            if layered is not None and layered.latency < plan.latency:
                return layered
        return plan
    if model is CommModel.OVERLAP:
        return best_latency_schedule(graph, platform=platform, mapping=mapping)
    return oneport_latency_schedule(graph, model, platform=platform, mapping=mapping)


def _auto_method(app: Application, objective: str) -> str:
    """Method selection for ``method="auto"`` on the mapping problem.

    Small instances (``n <= AUTO_EXHAUSTIVE_MAX[objective]``) are solved
    exactly by pruned branch and bound; larger ones fall back to greedy
    construction plus reparenting local search.  Precedence-constrained
    applications must fit the exact DAG enumeration (branch and bound and
    the forest heuristics assume independent services).
    """
    n = len(app)
    if app.precedence:
        if n <= MAX_DAG_SERVICES:
            return "exhaustive"
        raise NotImplementedError(
            f"no registered heuristic handles precedence constraints with "
            f"n={n} > {MAX_DAG_SERVICES} services"
        )
    if n <= AUTO_EXHAUSTIVE_MAX[objective]:
        return "branch-and-bound"
    return "local-search"


def solve_key(
    problem: Problem,
    *,
    objective: str = "period",
    model: Union[str, CommModel] = CommModel.OVERLAP,
    method: str = "auto",
    effort: Union[str, Effort, None] = None,
    schedule: bool = True,
    platform: Union[str, Platform, None] = None,
    mapping=None,
    exactness: Union[str, Exactness, None] = None,
    deadline: Optional[float] = None,
    robust=None,
) -> Hashable:
    """The canonical fingerprint of one :func:`solve` request.

    Two calls with equal keys are guaranteed to ask for interchangeable
    results — same objective/model/method/effort, same numeric tier, same
    platform and mapping (by :func:`~repro.core.platform_fingerprint`,
    so a spec string and the :class:`~repro.core.Platform` it loads to
    agree), same deadline, and the same problem *content* (frozen
    application / graph-edge equality, not object identity).  The serve
    daemon keys both its in-flight request coalescing and its result
    cache on this: N identical concurrent requests collapse to one
    underlying solve, while requests differing in **any** discriminating
    input — a different platform, a different exactness tier — never
    share a slot.

    Inputs run through the same coercions as :func:`solve`, so
    ``model="overlap"`` and ``model=CommModel.OVERLAP`` fingerprint
    identically.  The three exactness tiers are all kept distinct here
    (unlike the evaluation-cache key, which collapses certified into
    exact): a certified and an exact solve return the same values but
    different solver statistics, and a coalesced response reports the
    statistics of the solve that actually ran.

    A robust solve appends ``("robust", spec.key())`` as a tenth element;
    ``robust=None`` keys are bit-for-bit what they were before robust
    planning existed, so nothing previously cached is invalidated.
    """
    obj = _coerce_objective(objective)
    mdl = _coerce_model(model)
    plat = _coerce_platform(platform)
    mapp = _coerce_mapping(mapping, plat)
    exact = _coerce_exactness(exactness)
    spec = _coerce_robust(robust)
    eff = None if effort is None else _coerce_effort(effort, Effort.HEURISTIC)
    if isinstance(problem, ExecutionGraph):
        content: Hashable = ("graph", graph_key(problem))
    elif isinstance(problem, Application):
        content = ("application", problem)
    else:
        raise TypeError(
            f"problem must be an Application or ExecutionGraph, "
            f"got {type(problem).__name__}"
        )
    base = (
        obj,
        mdl.value,
        str(method),
        None if eff is None else eff.value,
        exact.value,
        platform_fingerprint(plat, mapp),
        deadline,
        bool(schedule),
        content,
    )
    if spec is None:
        return base
    return base + (("robust", spec.key()),)


def solve(
    problem: Problem,
    *,
    objective: str = "period",
    model: Union[str, CommModel] = CommModel.OVERLAP,
    method: str = "auto",
    effort: Union[str, Effort, None] = None,
    schedule: bool = True,
    cache: Optional[EvaluationCache] = None,
    registry: Optional[SolverRegistry] = None,
    platform: Union[str, Platform, None] = None,
    mapping=None,
    exactness: Union[str, Exactness, None] = None,
    deadline: Optional[float] = None,
    robust=None,
    **solver_options,
) -> PlanResult:
    """Solve a mapping or orchestration problem; returns :class:`PlanResult`.

    Parameters
    ----------
    problem:
        An :class:`~repro.core.Application` (search over execution graphs)
        or an :class:`~repro.core.ExecutionGraph` (graph fixed; evaluate
        and schedule it).
    objective:
        ``"period"`` (throughput) or ``"latency"`` (response time).
    model:
        Communication model — a :class:`~repro.core.CommModel` or one of
        ``"overlap"``, ``"inorder"``, ``"outorder"``.
    method:
        For applications: a registered solver name (``"exhaustive"``,
        ``"greedy"``, ``"local-search"``, ``"chain"``, ``"nocomm"``, or a
        custom registration), or ``"auto"`` to pick by instance size.  For
        graphs: ``"auto"`` (model scheduler), ``"exhaustive"``,
        ``"heuristic"`` or ``"bound"`` (evaluation efforts).
    effort:
        Evaluation effort for graph scoring inside mapping solvers
        (default: ``EXACT`` for ``exhaustive``, ``HEURISTIC`` otherwise).
    schedule:
        Also build a concrete scheduled :class:`~repro.core.Plan` for the
        chosen graph (on by default).
    cache:
        An :class:`EvaluationCache`; defaults to the process-wide shared
        cache.
    registry:
        Solver registry; defaults to :data:`repro.planner.registry`.
    platform:
        Server speeds and link bandwidths — a
        :class:`~repro.core.Platform`, a catalog spec string (``"het4"``,
        ``"hom:n=8"``, ``"het:n=6,seed=1"``), or ``None`` for the paper's
        normalised unit platform.  On a non-unit platform the solvers
        search over graph x server-assignment.
    mapping:
        Pin services to servers (a :class:`~repro.core.Mapping` or a plain
        ``{service: server}`` dict).  Default: the placement optimiser
        chooses the assignment per candidate graph.
    exactness:
        Numeric tier of the solve (:class:`~repro.core.Exactness` or its
        string value).  The default ``"certified"`` runs searches on the
        float fast path with the eps-guarded certification protocol —
        returned values are **bit-for-bit identical** to ``"exact"``, at
        a fraction of the wall time.  Both branch-and-bound searches
        bound in exact arithmetic on every tier, so there ``"certified"``
        is the ``"exact"`` search.  ``"exact"`` forces Fraction
        arithmetic everywhere; ``"fast"`` stays on the float tier and
        returns uncertified float-image values.  The evaluation-cache and
        placement-memo keys include the tier, so a fast value is never
        served to a certified or exact caller.
    deadline:
        Wall-clock budget in seconds — the anytime knob.  On an
        :class:`~repro.core.Application` the solve is routed through the
        ``portfolio`` solver (greedy / local search / branch and bound
        racing a shared incumbent; the requested *method* becomes the
        portfolio's primary racer) and **always returns a valid plan**:
        the best certified incumbent when the budget runs out, the same
        result as the unbudgeted solve when it suffices.
        :attr:`PlanResult.budget_exhausted` and
        :attr:`PlanResult.trajectory` report what happened.  Fixed-graph
        orchestration is direct evaluation, so there the deadline is
        recorded but does not alter the solve.
    robust:
        Plan under parameter uncertainty instead of trusting the nominal
        numbers — a :class:`~repro.robust.RobustSpec`, a spec string such
        as ``"worst_case:eps=1/10,k=12"`` or ``"quantile:q=9/10,eps=5/100"``,
        or ``None`` (default, the plain nominal solve — behaviour,
        values, and cache keys are bit-for-bit unchanged).  With a spec,
        candidate plans are gathered from the nominal and per-scenario
        solves, ranked by their robust score across the seeded scenario
        set, and the winner — certified in exact arithmetic, never worse
        than the nominal plan under the spec's own score — is scheduled
        on the nominal parameters.  ``result.value`` is the exact robust
        score; ``result.stats.extras["robust"]`` holds the evidence.
    solver_options:
        Extra keyword arguments forwarded to the solver (e.g.
        ``max_moves=500`` for ``local-search``).

    Examples
    --------
    The Section 2.3 instance, orchestrated under INORDER (the "surprising"
    fractional optimum)::

        >>> from repro.planner import solve
        >>> from repro.workloads import fig1_example
        >>> solve(fig1_example().graph, objective="period", model="inorder",
        ...       method="exhaustive").value
        Fraction(23, 3)
    """
    started = time.perf_counter()
    obj = _coerce_objective(objective)
    mdl = _coerce_model(model)
    plat = _coerce_platform(platform)
    mapp = _coerce_mapping(mapping, plat)
    exact = _coerce_exactness(exactness)
    cache = cache if cache is not None else default_cache()
    spec = _coerce_robust(robust)
    app = problem.application if isinstance(problem, ExecutionGraph) else problem
    if isinstance(app, Application) and not len(app):
        raise ValueError("the application has no services: nothing to plan")

    if spec is not None:
        from ..robust.scoring import solve_robust

        result = solve_robust(
            problem,
            robust=spec,
            objective=obj,
            model=mdl,
            method=method,
            effort=effort,
            schedule=schedule,
            cache=cache,
            registry=registry,
            platform=plat,
            mapping=mapp,
            exactness=exact,
            deadline=deadline,
            solver_options=solver_options,
        )
        result.stats.wall_time = time.perf_counter() - started
        return result

    if plat is not None:
        plat.require_capacity(
            len(problem.nodes if isinstance(problem, ExecutionGraph) else problem)
        )

    if isinstance(problem, ExecutionGraph):
        if solver_options:
            raise TypeError(
                f"unexpected keyword arguments for a fixed-graph problem: "
                f"{sorted(solver_options)} (solver options only apply when "
                f"solving an Application)"
            )
        result = _solve_graph(
            problem, obj, mdl, method, effort, schedule, cache, plat, mapp,
            exact,
        )
        result.deadline = deadline
    elif isinstance(problem, Application):
        result = _solve_application(
            problem, obj, mdl, method, effort, schedule, cache,
            registry if registry is not None else default_registry,
            plat, mapp, exact, deadline, solver_options,
        )
    else:
        raise TypeError(
            f"problem must be an Application or ExecutionGraph, "
            f"got {type(problem).__name__}"
        )
    result.stats.wall_time = time.perf_counter() - started
    return result


def _solve_application(
    app: Application,
    objective: str,
    model: CommModel,
    method: str,
    effort: Union[str, Effort, None],
    schedule: bool,
    cache: EvaluationCache,
    registry: SolverRegistry,
    platform: Optional[Platform],
    mapping: Optional[Mapping],
    exactness: Exactness,
    deadline: Optional[float],
    solver_options,
) -> PlanResult:
    requested = method
    if deadline is not None and not app.precedence:
        # The anytime path: whatever method was asked for becomes the
        # portfolio's primary racer, so the unbudgeted result is still
        # reachable when the budget suffices.  (Precedence-constrained
        # applications have no anytime roster — greedy and the forest
        # searches assume independent services — so the deadline is
        # recorded but the requested solver runs as-is.)
        if method != "portfolio":
            solver_options = dict(solver_options)
            solver_options.setdefault("primary", method)
        method = "portfolio"
        solver_options = {**solver_options, "deadline": deadline}
    if method == "auto":
        method = _auto_method(app, objective)
    spec = registry.get(method)
    if not spec.supports(app, objective):
        raise ValueError(
            f"solver {method!r} does not support this instance "
            f"(objective={objective}, n={len(app)}, "
            f"precedence={bool(app.precedence)})"
        )
    eff = _coerce_effort(
        effort,
        Effort.EXACT
        if method in ("exhaustive", "branch-and-bound")
        else Effort.HEURISTIC,
    )
    objective_fn = cache.objective(
        objective, model, eff, platform, mapping, exactness
    )
    value, graph, extras = spec.run(
        app,
        objective=objective,
        model=model,
        effort=eff,
        objective_fn=objective_fn,
        **solver_options,
    )
    trajectory = extras.pop("trajectory", None)
    budget_exhausted = extras.pop("budget_exhausted", None)
    stats = SolverStats(
        evaluations=objective_fn.misses,
        cache_hits=objective_fn.hits,
        graphs_considered=extras.pop("graphs_considered", objective_fn.evaluations),
        extras={"effort": eff.value, "exactness": exactness.value, **extras},
    )
    resolved = _resolve_mapping(
        graph, objective, model, eff, platform, mapping, exactness
    )
    plan = (
        build_schedule(graph, objective, model, platform, resolved, eff)
        if schedule
        else None
    )
    return PlanResult(
        objective=objective,
        model=model,
        method=method,
        value=value,
        graph=graph,
        plan=plan,
        stats=stats,
        requested_method=requested,
        platform=platform,
        mapping=resolved,
        deadline=deadline,
        budget_exhausted=budget_exhausted,
        trajectory=trajectory,
    )


def _solve_graph(
    graph: ExecutionGraph,
    objective: str,
    model: CommModel,
    method: str,
    effort: Union[str, Effort, None],
    schedule: bool,
    cache: EvaluationCache,
    platform: Optional[Platform],
    mapping: Optional[Mapping],
    exactness: Exactness = Exactness.EXACT,
) -> PlanResult:
    requested = method
    plan: Optional[Plan] = None
    resolved = mapping
    if method == "auto" and effort is not None:
        # An explicit effort on a fixed graph means "evaluate at this
        # effort", not "run the scheduler" — don't silently ignore it.
        eff = _coerce_effort(effort, Effort.HEURISTIC)
        method = {v: k for k, v in _GRAPH_EFFORT.items()}[eff]
    if method == "auto":
        if schedule:
            # The model's scheduler is authoritative: its value is achieved
            # by a concrete validated operation list.
            resolved = _resolve_mapping(
                graph, objective, model, Effort.HEURISTIC, platform, mapping,
                exactness,
            )
            plan = build_schedule(graph, objective, model, platform, resolved)
            value = plan.period if objective == "period" else plan.latency
            stats = SolverStats(graphs_considered=1)
        else:
            # No operation list requested: the memoized heuristic objective
            # is the same scheduler family's value, so nothing is built and
            # discarded.  On a non-unit platform the objective already ran
            # the placement search, so resolving the winning mapping below
            # is a placement-memo lookup, not a second search.
            objective_fn = cache.objective(
                objective, model, Effort.HEURISTIC, platform, mapping, exactness
            )
            value = objective_fn(graph)
            resolved = _resolve_mapping(
                graph, objective, model, Effort.HEURISTIC, platform, mapping,
                exactness,
            )
            stats = SolverStats(
                evaluations=objective_fn.misses,
                cache_hits=objective_fn.hits,
                graphs_considered=1,
            )
        method = "schedule"
    elif method in _GRAPH_EFFORT:
        eff = _coerce_effort(effort, _GRAPH_EFFORT[method])
        objective_fn = cache.objective(
            objective, model, eff, platform, mapping, exactness
        )
        value = objective_fn(graph)
        stats = SolverStats(
            evaluations=objective_fn.misses,
            cache_hits=objective_fn.hits,
            graphs_considered=1,
            extras={"effort": eff.value, "exactness": exactness.value},
        )
        resolved = _resolve_mapping(
            graph, objective, model, eff, platform, mapping, exactness
        )
        if schedule:
            plan = build_schedule(
                graph, objective, model, platform, resolved, eff
            )
    else:
        known = ", ".join(["auto", *_GRAPH_EFFORT])
        raise ValueError(
            f"unknown orchestration method {method!r} for a fixed execution "
            f"graph; expected one of: {known}"
        )
    return PlanResult(
        objective=objective,
        model=model,
        method=method,
        value=value,
        graph=graph,
        plan=plan,
        stats=stats,
        requested_method=requested,
        platform=platform,
        mapping=resolved,
    )


def compare(
    problem: Problem,
    *,
    objectives: Sequence[str] = ("period",),
    models: Iterable[Union[str, CommModel]] = ALL_MODELS,
    methods: Sequence[str] = ("auto",),
    **kwargs,
) -> List[PlanResult]:
    """Solve *problem* over a grid of objectives × models × methods.

    Returns the flat list of :class:`PlanResult` in grid order (objective
    outermost, method innermost).  All solves share one evaluation cache,
    so methods re-scoring the same graphs hit the memo table.

    Example::

        >>> from repro.planner import compare
        >>> from repro.workloads import fig1_example
        >>> results = compare(fig1_example().graph, objectives=["period"])
        >>> [(str(r.model), str(r.value)) for r in results]
        [('OVERLAP', '4'), ('INORDER', '23/3'), ('OUTORDER', '7')]
    """
    results: List[PlanResult] = []
    for objective in objectives:
        for model in models:
            for method in methods:
                results.append(
                    solve(
                        problem,
                        objective=objective,
                        model=model,
                        method=method,
                        **kwargs,
                    )
                )
    return results


__all__ = [
    "AUTO_EXHAUSTIVE_MAX",
    "Problem",
    "build_schedule",
    "compare",
    "solve",
    "solve_key",
]

"""The robust solver: rank candidates across scenarios, certify the winner.

``solve(robust=RobustSpec(...))`` lands here.  The algorithm:

1. **Candidates.**  Solve the nominal problem, then each sampled
   scenario (same method/effort/exactness, shared evaluation cache —
   scenarios are content-keyed, so repeats hit the memo).  Every
   distinct winning graph is a candidate; the nominal optimum is always
   among them, which is what makes the robust choice *never worse* than
   the nominal plan under the spec's own score.
2. **Ranking.**  Score every candidate on every scenario.  Where the
   batched kernel applies (period/OVERLAP forests —
   :func:`repro.optimize.scenarios.scenario_period_matrix`) the R×K
   matrix prices in one vectorised sweep and picks the contenders; an
   eps band around the float minimum (the PR-5 certification protocol,
   :data:`~repro.core.CERT_EPS`) guards against double rounding.
3. **Certification.**  Contenders — always including the nominal
   optimum — are re-scored in exact Fractions on every scenario; the
   winner is the exact argmin (ties broken on the smaller edge set, so
   reruns are deterministic).  The returned ``value`` is the winner's
   exact robust score; the plan is scheduled on *nominal* parameters.

:func:`degradation_report` replays the same scenarios against the
per-scenario optima to quantify what nominal planning costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import (
    Application,
    CERT_EPS,
    CommModel,
    ExecutionGraph,
    quantile,
)
from .spec import RobustSpec, Scenario, sample_scenarios

ZERO = Fraction(0)


def robust_value(values: Sequence[Fraction], spec: RobustSpec) -> Fraction:
    """Collapse per-scenario objective values into the spec's score."""
    values = list(values)
    if not values:
        raise ValueError("robust_value needs at least one scenario value")
    if spec.mode == "worst_case":
        return max(values)
    if spec.mode == "expected":
        return sum(values, ZERO) / len(values)
    return quantile(values, spec.q)  # mode == "quantile"


def _float_score(row: Sequence[float], spec: RobustSpec) -> float:
    values = sorted(float(v) for v in row)
    if spec.mode == "worst_case":
        return values[-1]
    if spec.mode == "expected":
        return sum(values) / len(values)
    import math

    rank = math.ceil(float(spec.q) * len(values)) - 1
    return values[max(0, min(rank, len(values) - 1))]


def _edge_key(graph: ExecutionGraph):
    return tuple(sorted(graph.edges))


def solve_robust(
    problem,
    *,
    robust: RobustSpec,
    objective: str,
    model: CommModel,
    method: str,
    effort,
    schedule: bool,
    cache,
    registry,
    platform,
    mapping,
    exactness,
    deadline,
    solver_options: Dict,
):
    """The engine behind ``solve(robust=...)`` — see the module docstring.

    All parameters arrive pre-coerced from the facade; returns a
    :class:`~repro.planner.PlanResult` whose ``value`` is the winner's
    exact robust score and whose ``stats.extras["robust"]`` records the
    scenario-level evidence.
    """
    from ..optimize.evaluation import Effort
    from ..planner.facade import _coerce_effort, _resolve_mapping, build_schedule, solve
    from ..planner.result import PlanResult, SolverStats
    from ..optimize.scenarios import scenario_period_matrix

    fixed_graph = isinstance(problem, ExecutionGraph)
    app: Application = problem.application if fixed_graph else problem
    scenarios = sample_scenarios(robust, app, platform)

    inner = dict(
        objective=objective, model=model, method=method, effort=effort,
        schedule=False, cache=cache, registry=registry, platform=platform,
        mapping=mapping, exactness=exactness, deadline=deadline,
    )
    nominal = solve(problem, **inner, **solver_options)
    candidates: Dict[Tuple, ExecutionGraph] = {
        _edge_key(nominal.graph): nominal.graph
    }
    scenario_solves = 0
    if not fixed_graph:
        for scenario in scenarios:
            result = solve(
                scenario.application,
                **{**inner, "platform": scenario.platform},
                **solver_options,
            )
            scenario_solves += 1
            key = _edge_key(result.graph)
            if key not in candidates:
                candidates[key] = ExecutionGraph(app, result.graph.edges)
    candidate_list = list(candidates.values())
    nominal_key = _edge_key(nominal.graph)

    # The effort tier candidate scoring runs at mirrors what the nominal
    # solver scored its own search with.
    eff = _coerce_effort(
        effort,
        Effort.EXACT
        if nominal.method in ("exhaustive", "branch-and-bound")
        else Effort.HEURISTIC,
    )
    scenario_fns = [
        cache.objective(
            objective, model, eff, scenario.platform, mapping, exactness
        )
        for scenario in scenarios
    ]

    def exact_row(graph: ExecutionGraph) -> List[Fraction]:
        return [
            fn(ExecutionGraph(scenario.application, graph.edges))
            for scenario, fn in zip(scenarios, scenario_fns)
        ]

    # -- rank on the float tier, certify contenders exactly -------------------
    contenders = candidate_list
    matrix = None
    if len(candidate_list) > 1 and objective == "period":
        matrix = scenario_period_matrix(candidate_list, scenarios, model, mapping)
    if matrix is not None:
        scores = [_float_score(matrix[i], robust) for i in range(len(candidate_list))]
        best = min(scores)
        band = best * (1 + 8 * CERT_EPS) + 1e-12
        contenders = [
            graph
            for graph, score in zip(candidate_list, scores)
            if score <= band
        ]
    exact_scores: Dict[Tuple, Fraction] = {}
    rows: Dict[Tuple, List[Fraction]] = {}
    for graph in contenders:
        key = _edge_key(graph)
        rows[key] = exact_row(graph)
        exact_scores[key] = robust_value(rows[key], robust)
    if nominal_key not in exact_scores:
        rows[nominal_key] = exact_row(nominal.graph)
        exact_scores[nominal_key] = robust_value(rows[nominal_key], robust)
    # Ties fall back to the nominal graph first (no reason to swap plans
    # for an equal score), then the smaller edge set for determinism.
    winner_key = min(
        exact_scores, key=lambda k: (exact_scores[k], k != nominal_key, k)
    )
    winner = candidates[winner_key]
    value = exact_scores[winner_key]

    resolved = _resolve_mapping(
        winner, objective, model, eff, platform, mapping, exactness
    )
    plan = (
        build_schedule(winner, objective, model, platform, resolved, eff)
        if schedule
        else None
    )
    evaluations = sum(fn.misses for fn in scenario_fns)
    hits = sum(fn.hits for fn in scenario_fns)
    stats = SolverStats(
        evaluations=nominal.stats.evaluations + evaluations,
        cache_hits=nominal.stats.cache_hits + hits,
        graphs_considered=nominal.stats.graphs_considered + len(candidate_list),
        extras={
            "effort": eff.value,
            "exactness": exactness.value,
            "robust": {
                "spec": robust.label(),
                "mode": robust.mode,
                "scenarios": len(scenarios),
                "scenario_solves": scenario_solves,
                "candidates": len(candidate_list),
                "certified": len(exact_scores),
                "batched_ranking": matrix is not None,
                "winner_is_nominal": winner_key == nominal_key,
                "nominal_value": str(nominal.value),
                "nominal_plan_score": str(exact_scores[nominal_key]),
                "scenario_values": [str(v) for v in rows[winner_key]],
            },
        },
    )
    return PlanResult(
        objective=objective,
        model=model,
        method=f"robust({nominal.method})",
        value=value,
        graph=winner,
        plan=plan,
        stats=stats,
        requested_method=method,
        platform=platform,
        mapping=resolved,
        deadline=deadline,
    )


@dataclass
class DegradationReport:
    """Nominal-optimal vs robust-optimal under the sampled perturbations.

    One row per scenario: the scenario's own optimum and both plans'
    values/ratios there.  ``ratio = value / optimum >= 1`` measures how
    far a fixed plan falls behind a clairvoyant re-solve; the aggregate
    ``*_score`` fields collapse the raw values with the spec's robust
    mode — by construction ``robust_score <= nominal_score``.
    """

    spec: str
    mode: str
    nominal_edges: Tuple
    robust_edges: Tuple
    rows: List[Dict] = field(default_factory=list)
    nominal_score: Fraction = ZERO
    robust_score: Fraction = ZERO
    nominal_worst_ratio: Fraction = ZERO
    robust_worst_ratio: Fraction = ZERO
    nominal_mean_ratio: Fraction = ZERO
    robust_mean_ratio: Fraction = ZERO

    @property
    def plans_differ(self) -> bool:
        return self.nominal_edges != self.robust_edges

    @property
    def improvement(self) -> Fraction:
        """Relative robust-score gain of planning robustly (0 when the
        nominal plan already is the robust choice)."""
        if self.nominal_score == 0:
            return ZERO
        return (self.nominal_score - self.robust_score) / self.nominal_score

    def as_dict(self) -> Dict:
        return {
            "spec": self.spec,
            "mode": self.mode,
            "plans_differ": self.plans_differ,
            "nominal_score": str(self.nominal_score),
            "robust_score": str(self.robust_score),
            "improvement": float(self.improvement),
            "nominal_worst_ratio": float(self.nominal_worst_ratio),
            "robust_worst_ratio": float(self.robust_worst_ratio),
            "nominal_mean_ratio": float(self.nominal_mean_ratio),
            "robust_mean_ratio": float(self.robust_mean_ratio),
            "scenarios": self.rows,
        }

    def summary_table(self) -> str:
        lines = [
            f"degradation under {self.spec}",
            f"plans differ: {'yes' if self.plans_differ else 'no'}   "
            f"robust-score improvement: {float(self.improvement):.3%}",
            "",
            f"{'scenario':>8} {'optimum':>10} {'nominal':>10} {'robust':>10} "
            f"{'nom/opt':>8} {'rob/opt':>8}",
        ]
        for row in self.rows:
            lines.append(
                f"{row['scenario']:>8} {float(Fraction(row['optimum'])):>10.5g} "
                f"{float(Fraction(row['nominal_value'])):>10.5g} "
                f"{float(Fraction(row['robust_value'])):>10.5g} "
                f"{float(Fraction(row['nominal_ratio'])):>8.4f} "
                f"{float(Fraction(row['robust_ratio'])):>8.4f}"
            )
        lines.append("")
        lines.append(
            f"{'score':>8} {'':>10} {float(self.nominal_score):>10.5g} "
            f"{float(self.robust_score):>10.5g} "
            f"{float(self.nominal_worst_ratio):>8.4f} "
            f"{float(self.robust_worst_ratio):>8.4f}"
        )
        return "\n".join(lines)


def degradation_report(
    problem,
    robust,
    *,
    objective: str = "period",
    model="overlap",
    method: str = "auto",
    effort=None,
    platform=None,
    mapping=None,
    exactness=None,
    cache=None,
    registry=None,
    **solver_options,
) -> DegradationReport:
    """Quantify how nominal-optimal and robust-optimal plans degrade.

    Solves *problem* both ways, then for every sampled scenario compares
    each plan's exact value against the scenario's own re-solved
    optimum.  Deterministic for a given spec (same seed → same
    scenarios as the robust solve itself).
    """
    from ..optimize.evaluation import Effort
    from ..planner.cache import default_cache
    from ..planner.facade import (
        _coerce_effort,
        _coerce_exactness,
        _coerce_mapping,
        _coerce_model,
        _coerce_objective,
        _coerce_platform,
        solve,
    )

    spec = RobustSpec.coerce(robust)
    if spec is None:
        raise ValueError("degradation_report needs a RobustSpec")
    obj = _coerce_objective(objective)
    mdl = _coerce_model(model)
    plat = _coerce_platform(platform)
    mapp = _coerce_mapping(mapping, plat)
    exact = _coerce_exactness(exactness)
    cache = cache if cache is not None else default_cache()

    common = dict(
        objective=obj, model=mdl, method=method, effort=effort,
        schedule=False, cache=cache, registry=registry, mapping=mapp,
        exactness=exact,
    )
    nominal = solve(problem, platform=plat, **common, **solver_options)
    chosen = solve(
        problem, platform=plat, robust=spec, **common, **solver_options
    )

    fixed_graph = isinstance(problem, ExecutionGraph)
    app = problem.application if fixed_graph else problem
    scenarios = sample_scenarios(spec, app, plat)
    eff = _coerce_effort(
        effort,
        Effort.EXACT
        if nominal.method in ("exhaustive", "branch-and-bound")
        else Effort.HEURISTIC,
    )

    rows: List[Dict] = []
    nominal_values: List[Fraction] = []
    robust_values: List[Fraction] = []
    nominal_ratios: List[Fraction] = []
    robust_ratios: List[Fraction] = []
    for scenario in scenarios:
        fn = cache.objective(obj, mdl, eff, scenario.platform, mapp, exact)
        if fixed_graph:
            optimum = fn(ExecutionGraph(scenario.application, problem.edges))
        else:
            optimum = solve(
                scenario.application, platform=scenario.platform,
                **common, **solver_options,
            ).value
        v_nom = fn(ExecutionGraph(scenario.application, nominal.graph.edges))
        v_rob = fn(ExecutionGraph(scenario.application, chosen.graph.edges))
        nominal_values.append(v_nom)
        robust_values.append(v_rob)
        r_nom = v_nom / optimum if optimum else Fraction(1)
        r_rob = v_rob / optimum if optimum else Fraction(1)
        nominal_ratios.append(r_nom)
        robust_ratios.append(r_rob)
        rows.append({
            "scenario": scenario.index,
            "optimum": str(optimum),
            "nominal_value": str(v_nom),
            "robust_value": str(v_rob),
            "nominal_ratio": str(r_nom),
            "robust_ratio": str(r_rob),
        })
    k = len(scenarios)
    return DegradationReport(
        spec=spec.label(),
        mode=spec.mode,
        nominal_edges=_edge_key(nominal.graph),
        robust_edges=_edge_key(chosen.graph),
        rows=rows,
        nominal_score=robust_value(nominal_values, spec),
        robust_score=robust_value(robust_values, spec),
        nominal_worst_ratio=max(nominal_ratios),
        robust_worst_ratio=max(robust_ratios),
        nominal_mean_ratio=sum(nominal_ratios, ZERO) / k,
        robust_mean_ratio=sum(robust_ratios, ZERO) / k,
    )


__all__ = [
    "DegradationReport",
    "degradation_report",
    "robust_value",
    "solve_robust",
]

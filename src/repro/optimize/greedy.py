"""Greedy forest construction heuristics for MinPeriod / MinLatency.

Services are inserted one at a time (filters by increasing cost first,
then expanders); each one attaches to the existing node — or becomes a new
root — that minimises the objective of the partial forest.  This is the
natural incremental generalisation of the paper's chain greedy (Prop 8) to
forest-shaped plans, which Proposition 4 shows are sufficient for
MinPeriod.

Where the period objective is the Section-2.1 bound on a unit platform
(Theorem 1 under OVERLAP, or the bound effort), a partial forest's value
is the max of its placed nodes' per-node terms
(:class:`~repro.optimize.branch_and_bound.ForestTerms`), and an insertion
changes only the new node's term and its parent's.  There every candidate
is priced from those terms in exact ``Fraction`` arithmetic, without
building a graph or calling the objective.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core import Application, CommModel, ExecutionGraph
from .branch_and_bound import (
    ForestTerms,
    PlacementGate,
    _greedy_on_terms,
    _insertion_order,
)
from .evaluation import (
    Effort,
    Objective,
    _normalise,
    kernel_covers,
    make_latency_objective,
    make_period_objective,
)


def _term_priced(objective) -> bool:
    """Are the unit-platform :class:`ForestTerms` of *objective*'s model
    its exact values?

    They are for an :class:`~repro.optimize.evaluation.Objective` for the
    period where the float kernels' coverage rule holds, on a
    configuration that normalises to the unit platform.
    """
    if not isinstance(objective, Objective) or objective.kind != "period":
        return False
    if not kernel_covers("period", objective.model, objective.effort):
        return False
    platform, mapping = _normalise(objective.platform, objective.mapping)
    return platform is None and mapping is None


def greedy_forest(
    app: Application,
    objective,
) -> Tuple[Fraction, ExecutionGraph]:
    """Incrementally build a forest minimising *objective* at each insertion.

    *objective* is any ``ExecutionGraph -> Fraction`` callable — e.g. an
    :class:`~repro.optimize.evaluation.Objective`, or a memoized one from
    :meth:`repro.planner.EvaluationCache.objective`.  Services are
    inserted in the :func:`_insertion_order`; each attaches wherever the
    partial forest's objective is smallest (the first strict minimum over
    ``[None] + placed``).  Returns ``(value, graph)``.

    An ``Objective`` for the period under OVERLAP, or at the bound
    effort, on a unit platform is priced on the per-node terms instead
    (see the module docstring): the result is the same, and *objective* is
    never called.  The terms are exact on every tier, so under ``FAST``
    the forest and value are the exact greedy's, not those of greedy on
    the float images.  Heterogeneous and placement objectives, other
    one-port efforts, latency and plain callables score each candidate
    graph through *objective*.  A period objective that runs a placement
    search per graph (a heterogeneous platform with a free mapping) skips
    every candidate whose
    :class:`~repro.optimize.branch_and_bound.PlacementBound` already
    reaches the value it must strictly beat, so the forest is the same.

    Example::

        >>> from repro import CommModel, make_application
        >>> from repro.optimize import greedy_forest, make_period_objective
        >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        >>> value, graph = greedy_forest(app, make_period_objective(CommModel.OVERLAP))
        >>> value
        Fraction(4, 1)
        >>> sorted(graph.edges)
        [('A', 'B')]
    """
    if app.precedence:
        raise ValueError("greedy forest construction assumes no precedence")
    if _term_priced(objective):
        return _greedy_on_terms(app, ForestTerms(app, objective.model))
    gate = PlacementGate.of(app, objective)
    order = _insertion_order(app)
    parents: Dict[str, Optional[str]] = {}
    placed: List[str] = []
    for name in order:
        best_val: Optional[Fraction] = None
        best_parent: Optional[str] = None
        candidates: List[Optional[str]] = [None] + placed
        for parent in candidates:
            trial = dict(parents)
            trial[name] = parent
            if (
                best_val is not None
                and gate is not None
                and gate.forest_reaches(trial, best_val)
            ):
                continue
            sub = app.restricted_to(placed + [name])
            graph = ExecutionGraph.from_parents(sub, trial)
            val = objective(graph)
            if best_val is None or val < best_val:
                best_val, best_parent = val, parent
        parents[name] = best_parent
        placed.append(name)
    graph = ExecutionGraph.from_parents(app, parents)
    return objective(graph), graph


def greedy_minperiod(
    app: Application,
    model: CommModel,
    *,
    effort: Effort = Effort.HEURISTIC,
) -> Tuple[Fraction, ExecutionGraph]:
    """Greedy forest heuristic for MinPeriod.

    Example (facade equivalent: ``solve(app, method="greedy")``)::

        >>> from repro import CommModel, make_application
        >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        >>> greedy_minperiod(app, CommModel.OVERLAP)[0]
        Fraction(4, 1)
    """
    return greedy_forest(app, make_period_objective(model, effort))


def greedy_minlatency(
    app: Application,
    model: CommModel,
    *,
    effort: Effort = Effort.HEURISTIC,
) -> Tuple[Fraction, ExecutionGraph]:
    """Greedy forest heuristic for MinLatency.

    Example::

        >>> from repro import CommModel, make_application
        >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        >>> greedy_minlatency(app, CommModel.OVERLAP)[0]
        Fraction(7, 1)
    """
    return greedy_forest(app, make_latency_objective(model, effort))


__all__ = ["greedy_forest", "greedy_minlatency", "greedy_minperiod"]

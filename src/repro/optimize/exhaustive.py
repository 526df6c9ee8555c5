"""Exhaustive search over execution graphs (exact references, small n).

Both MinPeriod and MinLatency are NP-hard in the full generality of the
paper (Theorems 2 and 4); these enumerations are the exact references the
heuristics and reductions are tested against.

* :func:`iter_forests` — all forests, via parent maps (``(n+1)^n`` with
  cycle filtering).  Proposition 4 guarantees some optimal MinPeriod plan
  is a forest when there are no precedence constraints.
* :func:`iter_dags` — all DAGs (deduplicated), for very small ``n``; used
  to verify Proposition 4 empirically and for latency where optimal plans
  need not be forests.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from ..core import (
    Application,
    CommModel,
    ExecutionGraph,
    certified_threshold,
    iter_forest_rows,
)
from .evaluation import Effort, latency_objective, period_objective

#: :func:`iter_dags` refuses applications larger than this (the DAG space
#: explodes combinatorially); auto-selection thresholds derive from it.
MAX_DAG_SERVICES = 5


def iter_forests(app: Application) -> Iterator[ExecutionGraph]:
    """All forest execution graphs of *app* (no precedence constraints).

    Example (two services: both independent, A->B, B->A)::

        >>> from repro import make_application
        >>> app = make_application([("A", 1, 1), ("B", 1, 1)])
        >>> sum(1 for _ in iter_forests(app))
        3
    """
    if app.precedence:
        raise ValueError("forest enumeration assumes no precedence constraints")
    names = list(app.names)
    n = len(names)
    choices = [[None] + [p for p in names if p != child] for child in names]
    for combo in itertools.product(*choices):
        parents: Dict[str, Optional[str]] = dict(zip(names, combo))
        # reject parent cycles (follow pointers with a step bound)
        ok = True
        for start in names:
            node, steps = start, 0
            while node is not None:
                node = parents[node]
                steps += 1
                if steps > n:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            yield ExecutionGraph.from_parents(app, parents)


def iter_dags(app: Application) -> Iterator[ExecutionGraph]:
    """All DAG execution graphs of *app*, deduplicated (tiny n only).

    Example (the 3 labelled 2-node DAGs: empty, A->B, B->A)::

        >>> from repro import make_application
        >>> app = make_application([("A", 1, 1), ("B", 1, 1)])
        >>> sum(1 for _ in iter_dags(app))
        3
    """
    names = list(app.names)
    n = len(names)
    if n > MAX_DAG_SERVICES:
        raise ValueError(
            f"DAG enumeration is unreasonable for n={n} > {MAX_DAG_SERVICES}"
        )
    seen = set()
    for perm in itertools.permutations(names):
        # predecessors of perm[j] are any subset of perm[:j]
        subset_lists = []
        for j in range(n):
            preds = perm[:j]
            subset_lists.append(
                list(
                    itertools.chain.from_iterable(
                        itertools.combinations(preds, k) for k in range(j + 1)
                    )
                )
            )
        for combo in itertools.product(*subset_lists):
            edges = frozenset(
                (p, perm[j]) for j in range(n) for p in combo[j]
            )
            if edges in seen:
                continue
            seen.add(edges)
            graph = ExecutionGraph(app, edges, check_precedence=False)
            if app.precedence:
                try:
                    graph._check_precedence()
                except Exception:
                    continue
            yield graph


#: Parent-vector rows :func:`scan_best_forests_batched` prices per numpy call.
FOREST_CHUNK = 512


class RunningBest:
    """The survivor rule of every certified enumeration, written once.

    Candidates are offered in enumeration order.  The float gate
    (:meth:`skips`) drops a candidate whose float exceeds
    :func:`~repro.core.certified_threshold` of the running best: it is
    provably no better.  :meth:`offer` takes each survivor's exact value
    and keeps the first strict minimum.  While the best overflows a float
    there is no gate.  Value, winner and tie-break are therefore
    bit-for-bit the ungated scan's.
    """

    __slots__ = ("value", "item", "cut")

    def __init__(self) -> None:
        self.value: Optional[Fraction] = None
        self.item: Any = None
        #: ``certified_threshold`` of the best; ``None`` means no gate.
        self.cut: Optional[float] = None

    def skips(self, fast: Optional[float]) -> bool:
        """Is a candidate whose float value is *fast* provably no better?"""
        return self.cut is not None and fast is not None and fast > self.cut

    def offer(self, item: Any, value: Fraction) -> None:
        """Keep *item* when its exact *value* is a strict new minimum."""
        if self.value is None or value < self.value:
            self.value, self.item = value, item
            try:
                self.cut = certified_threshold(float(value))
            except OverflowError:
                self.cut = None  # beyond float range: exact scoring only

    def result(self) -> Tuple[Fraction, Any]:
        if self.item is None or self.value is None:
            raise ValueError("no candidate execution graph")
        return self.value, self.item


def scan_best(
    candidates: Iterable[Any],
    objective,
    *,
    fast_objective: Optional[Callable[[Any], Optional[float]]] = None,
) -> Tuple[Fraction, Any, int]:
    """Scan *candidates*, returning ``(best value, best candidate, count)``.

    Candidates are execution graphs or mappings; ties keep the first in
    enumeration order.  *fast_objective* (the scalar float kernel, e.g.
    :func:`~repro.optimize.evaluation.make_fast_latency_objective`) gates
    the scan with :class:`RunningBest`, so the result is bit-for-bit the
    plain scan's while most candidates never allocate a Fraction; a
    per-candidate ``None`` means "score exactly".  Only DAG enumerations
    take this gate: forests and placements gate on the batched kernel
    (:func:`scan_best_forests_batched`,
    :func:`repro.optimize.placement.optimize_mapping`).
    """
    best = RunningBest()
    count = 0
    for item in candidates:
        count += 1
        # Price lazily: there is no gate before the first exact score.
        if fast_objective is not None and best.cut is not None:
            if best.skips(fast_objective(item)):
                continue
        best.offer(item, objective(item))
    value, item = best.result()
    return value, item, count


def scan_best_forests_batched(
    app: Application,
    objective,
    batch,
) -> Tuple[Fraction, ExecutionGraph, int]:
    """The certified forest scan, gated in bulk on a ``ForestBatch``.

    *batch* is a :class:`~repro.core.ForestBatch` for the configuration
    being searched (see
    :func:`~repro.optimize.evaluation.make_forest_period_batch`).  Parent
    vectors are enumerated in :func:`iter_forests` order,
    :data:`FOREST_CHUNK` rows at a time, and priced in one numpy call per
    chunk; :class:`RunningBest` then decides which rows are materialised
    as graphs and scored through *objective*.  The returned
    ``(value, graph, count)``, tie-breaks included, is
    ``scan_best(iter_forests(app), objective)``'s.
    """
    if app.precedence:
        raise ValueError("forest enumeration assumes no precedence constraints")
    best = RunningBest()
    count = 0
    for rows, _base in iter_forest_rows(len(app.names), FOREST_CHUNK):
        valid, fast = batch.periods(rows)
        count += int(valid.sum())
        if best.cut is not None:
            # Pre-filter with the gate as of the chunk start: the gate only
            # tightens, so this keeps every row the rule below examines.
            valid = valid & ~(fast > best.cut)
        for r in np.nonzero(valid)[0]:
            if not best.skips(fast[r]):
                graph = batch.decode(rows[r])
                best.offer(graph, objective(graph))
    value, graph = best.result()
    return value, graph, count


def exhaustive_minperiod(
    app: Application,
    model: CommModel,
    *,
    forests_only: bool = True,
    effort: Effort = Effort.EXACT,
) -> Tuple[Fraction, ExecutionGraph]:
    """Exact MinPeriod by enumeration (forests by default — Prop 4).

    Example (a filter in front of an expensive service halves its load;
    the facade equivalent is ``solve(app, method="exhaustive")``)::

        >>> from repro import CommModel, make_application
        >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
        >>> value, graph = exhaustive_minperiod(app, CommModel.OVERLAP)
        >>> value, sorted(graph.edges)
        (Fraction(4, 1), [('A', 'B')])
    """
    graphs = iter_forests(app) if forests_only else iter_dags(app)
    value, graph, _ = scan_best(
        graphs, lambda g: period_objective(g, model, effort)
    )
    return value, graph


def exhaustive_minlatency(
    app: Application,
    model: CommModel,
    *,
    forests_only: bool = False,
    effort: Effort = Effort.EXACT,
) -> Tuple[Fraction, ExecutionGraph]:
    """Exact MinLatency by enumeration.

    Optimal latency plans are *not* always forests (the Prop-13 gadget is a
    fork-join), so the default enumerates DAGs; ``forests_only=True`` gives
    the Proposition-17 restricted problem.

    Example (serial beats parallel here: filtering pays for the extra hop)::

        >>> from repro import CommModel, make_application
        >>> app = make_application([("A", 1, "1/4"), ("B", 8, 1)])
        >>> value, graph = exhaustive_minlatency(app, CommModel.OVERLAP)
        >>> value, sorted(graph.edges)
        (Fraction(9, 2), [('A', 'B')])
    """
    graphs = iter_forests(app) if forests_only else iter_dags(app)
    value, graph, _ = scan_best(
        graphs, lambda g: latency_objective(g, model, effort)
    )
    return value, graph


__all__ = [
    "FOREST_CHUNK",
    "MAX_DAG_SERVICES",
    "RunningBest",
    "exhaustive_minlatency",
    "exhaustive_minperiod",
    "iter_dags",
    "iter_forests",
    "scan_best",
    "scan_best_forests_batched",
]

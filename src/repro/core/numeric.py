"""Float fast-path cost kernel with exact certification (two-tier numerics).

Every quantity of :mod:`repro.core.costs` is an exact
:class:`~fractions.Fraction`, which keeps the reproduction bit-for-bit
faithful to the paper — and makes the search hot paths (branch-and-bound
node scoring, reparenting and placement local search, exhaustive scans) one
to two orders of magnitude slower than native floats.  This module is the
**fast tier** of a two-tier numeric engine:

* :class:`FloatCosts` is the float instantiation of the one Section-2.1
  algebra (:class:`~repro.core.costs.CostAlgebra`, on float
  :class:`GraphArrays`) whose exact instantiation is
  :class:`~repro.core.CostModel`;
* :class:`Exactness` names the certification contract a caller picks, and
  :data:`CERT_EPS` is the conservative relative slack every *certified*
  float comparison must leave.

The **certification protocol**: searches rank, prune and accept/reject
candidates on the float tier, but a certified search may discard a
candidate only when its float lower bound exceeds the incumbent by more
than ``CERT_EPS`` *relative* — ``float_lb > incumbent * (1 + eps)`` — and
must re-score every surviving incumbent in exact ``Fraction``s.  Float
evaluation of the Section-2.1 algebra over ``n`` services accumulates at
most a few hundred ulps of relative error (``~1e-13``), so a slack of
``1e-9`` can never hide a true improvement: any candidate whose exact
value beats the exact incumbent also beats the float threshold, hence is
re-scored exactly and the returned optimum stays bit-for-bit the paper's.
See ``docs/performance.md`` for the full argument and measurements.

    >>> from repro import CommModel, ExecutionGraph, make_application
    >>> from repro.core import CostModel
    >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
    >>> graph = ExecutionGraph.chain(app, ["A", "B"])
    >>> fast = FloatCosts(graph)
    >>> fast.period_lower_bound(CommModel.OVERLAP)
    4.0
    >>> float(CostModel(graph).period_lower_bound(CommModel.OVERLAP))
    4.0
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Union

from .costs import GraphArrays, MappedCosts
from .graph import ExecutionGraph
from .models import CommModel
from .platform import Mapping, Platform

#: Relative slack of every certified float comparison.  Float evaluation
#: of the cost algebra keeps ~1e-13 relative accuracy (a few hundred ulps
#: over the longest product chains we form), so 1e-9 leaves four orders of
#: magnitude of margin while still pruning everything that is not a
#: near-tie.  Near-ties inside the band fall back to exact arithmetic.
CERT_EPS = 1e-9


class Exactness(enum.Enum):
    """How much exactness a solve guarantees — the two-tier engine's knob.

    * ``EXACT`` — every comparison and every value in exact ``Fraction``
      arithmetic; the pre-fast-path behaviour, bit-for-bit.
    * ``CERTIFIED`` — rank/prune/scan on the float tier with the
      :data:`CERT_EPS` guard, re-score candidates that survive in exact
      ``Fraction``s.  Returned values are **bit-for-bit identical** to
      ``EXACT``; only the wall time changes.  The default everywhere.
    * ``FAST`` — float tier throughout; returned values are float images
      (exact binary ``Fraction(float)``) and optimality is *not*
      certified.  For scans and sweeps where speed beats the last ulp.
    """

    EXACT = "exact"
    CERTIFIED = "certified"
    FAST = "fast"

    @classmethod
    def coerce(cls, value: Union[str, "Exactness", None]) -> "Exactness":
        """Accept an :class:`Exactness`, its string value, or ``None``."""
        if value is None:
            return cls.CERTIFIED
        if isinstance(value, Exactness):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(e.value for e in cls)
            raise ValueError(
                f"unknown exactness {value!r}; expected one of: {names}"
            ) from None

    @property
    def uses_float(self) -> bool:
        """Does this mode run the float tier inside searches?"""
        return self is not Exactness.EXACT

    @property
    def memo_tier(self) -> str:
        """The cache/memo slot this tier's *values* belong to.

        ``CERTIFIED`` results are bit-for-bit the ``EXACT`` ones (the
        float tier only gates which candidates get exact scoring), so the
        two share the ``"exact"`` slot; ``FAST`` values are float images
        and must never be served to an exact or certified caller — they
        get their own slot.  The single source of truth for both the
        evaluation cache and the placement memo.
        """
        return "fast" if self is Exactness.FAST else "exact"


class FloatCosts(MappedCosts):
    """Float instantiation of the Section-2.1 algebra (the fast tier).

    Same configurations and queries as the exact
    :class:`~repro.core.CostModel`, answered in native floats (agreement
    property-tested to 1e-9).  Pass *arrays* (float :class:`GraphArrays`
    of the same graph) to share them across many mappings; *weights* as
    in :class:`~repro.core.costs.MappedCosts`.
    """

    __slots__ = ()

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
        *,
        arrays: Optional[GraphArrays] = None,
        weights: Optional[Dict[str, object]] = None,
    ) -> None:
        super().__init__(
            graph, platform, mapping,
            arrays if arrays is not None else GraphArrays(graph),
            weights,
        )

    def period_lower_bound(self, model: CommModel) -> float:
        """Float ``max_u Cexec(u)`` — per server when the mapping shares."""
        return self._period(model)

    def latency_lower_bound(self) -> float:
        """Float critical-path latency bound (mirrors the exact model)."""
        return self.latency(self.server, self.contended)


def certified_threshold(incumbent: float, eps: float = CERT_EPS) -> float:
    """The float cut above which a certified search may prune outright.

    A candidate whose float lower bound exceeds this can not have an exact
    value below the exact incumbent (the float error is orders of
    magnitude below *eps*); anything at or under it must be re-scored
    exactly before being discarded.
    """
    return incumbent * (1.0 + eps)


__all__ = [
    "CERT_EPS",
    "Exactness",
    "FloatCosts",
    "GraphArrays",
    "certified_threshold",
]

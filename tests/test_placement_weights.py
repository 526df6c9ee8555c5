"""One weights rule for every placement evaluator.

Weights always mean the weighted per-server load (the concurrent
planner's utilisation objective), whatever the tier and whether the
mapping is shared: ``shared`` only decides whether co-location is allowed
and which kind of mapping ``mapping()`` returns.  The reference is
:func:`~repro.optimize.incremental.exact_placement_value`.
"""

from fractions import Fraction

import pytest

from repro import make_application
from repro.core import Exactness, ExecutionGraph, Mapping, Platform
from repro.optimize.incremental import exact_placement_value, placement_evaluator
from repro.planner.catalog import load_platform

APP = make_application([("A", 2, 1), ("B", 3, 1)])
WEIGHTS = {"A": Fraction(1, 4), "B": Fraction(1, 2)}
CASES = {
    "het": (Platform.of(speeds=[1, 2, 1]), {"A": "S1", "B": "S2"}, Fraction(3, 4)),
    "tree": (
        load_platform("tree:racks=2,servers=2"),
        {"A": "R0N0", "B": "R1N0"},
        Fraction(3, 2),
    ),
}


@pytest.mark.parametrize("exactness", list(Exactness), ids=lambda e: e.value)
@pytest.mark.parametrize("case", list(CASES))
def test_weighted_value_matches_reference(case, exactness):
    platform, assignment, expected = CASES[case]
    graph = ExecutionGraph.empty(APP)
    mapping = Mapping(assignment)
    reference = exact_placement_value(graph, platform, mapping, weights=WEIGHTS)
    assert reference == expected
    evaluator = placement_evaluator(
        graph, platform, mapping, weights=WEIGHTS, shared=False,
        exactness=exactness,
    )
    assert evaluator.value() == reference
    assert evaluator.mapping() == mapping

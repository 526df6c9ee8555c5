"""One float gate per candidate shape: the placement scans' exact fallback
and the solver options the scalar scan copies used to need.

Placement enumerations gate on a ``MappingBatch``.  An instance beyond
float range has no batch, so every tier — FAST included — scans exactly
and returns the EXACT pair.
"""

from fractions import Fraction as F

import pytest

from repro import ExecutionGraph, Platform, make_application
from repro.core import CommModel, Exactness
from repro.optimize import exhaustive_minlatency, exhaustive_minperiod
from repro.optimize.evaluation import Effort
from repro.optimize.placement import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    SHARED_EXHAUSTIVE_LIMIT,
    _make_mapping_batch,
    clear_placement_memo,
    mapping_space_size,
    optimize_mapping,
    optimize_shared_mapping,
    shared_space_size,
)
from repro.planner import EvaluationCache, solve

HUGE = F(10) ** 400  # float(HUGE) raises OverflowError

#: One speed, or one link bandwidth, beyond float range.
PLATFORMS = {
    "speed": Platform.of(speeds=[1, 2, HUGE, 3]),
    "bandwidth": Platform.of(speeds=[1, 2, 3, 4], links={("S1", "S2"): HUGE}),
}

TIERS = (Exactness.EXACT, Exactness.CERTIFIED, Exactness.FAST)


def _graph():
    app = make_application([("A", 3, "1/2"), ("B", 8, 1), ("C", 5, 2)])
    return ExecutionGraph(app, [("A", "B"), ("A", "C")])


def _per_tier(search):
    """``search(tier)`` on every tier, each from an empty placement memo
    (CERTIFIED shares EXACT's memo slot, which would hide its scan)."""
    outcomes = []
    for tier in TIERS:
        clear_placement_memo()
        outcomes.append(search(tier))
    clear_placement_memo()
    return outcomes


@pytest.mark.parametrize("which", sorted(PLATFORMS))
@pytest.mark.parametrize("kind", ["period", "latency"])
def test_injective_scan_beyond_float_range_is_exact(which, kind):
    platform, graph = PLATFORMS[which], _graph()
    assert mapping_space_size(3, len(platform)) <= DEFAULT_EXHAUSTIVE_LIMIT
    effort = Effort.BOUND  # the kernel covers both objectives here
    assert _make_mapping_batch(graph, kind, CommModel.OVERLAP, effort, platform) is None

    outcomes = _per_tier(lambda tier: optimize_mapping(
        graph, kind, CommModel.OVERLAP, effort, platform, exactness=tier))
    for value, mapping in outcomes:
        assert isinstance(value, F)
        assert (value, mapping) == outcomes[0]


@pytest.mark.parametrize("which", sorted(PLATFORMS))
@pytest.mark.parametrize("weighted", [False, True])
def test_shared_scan_beyond_float_range_is_exact(which, weighted):
    platform, graph = PLATFORMS[which], _graph()
    assert shared_space_size(3, len(platform)) <= SHARED_EXHAUSTIVE_LIMIT
    weights = {"A": F(1, 2), "B": F(3)} if weighted else None
    assert _make_mapping_batch(
        graph, "period", CommModel.OVERLAP, None, platform,
        weights=weights, shared=True,
    ) is None

    outcomes = _per_tier(lambda tier: optimize_shared_mapping(
        graph, CommModel.OVERLAP, platform, weights=weights, exactness=tier))
    for value, mapping in outcomes:
        assert isinstance(value, F)
        assert (value, mapping) == outcomes[0]


@pytest.mark.parametrize(
    "method, option",
    [("exhaustive", "batch"), ("exhaustive", "chunk"),
     ("local-search", "incremental")],
)
def test_removed_solver_options_are_rejected(method, option):
    app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
    with pytest.raises(TypeError):
        solve(app, method=method, schedule=False, cache=EvaluationCache(),
              **{option: False})


@pytest.mark.parametrize("search", [exhaustive_minperiod, exhaustive_minlatency])
def test_exhaustive_searches_take_no_certified_flag(search):
    app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
    with pytest.raises(TypeError):
        search(app, CommModel.OVERLAP, certified=True)

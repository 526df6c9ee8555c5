"""The branch-and-bound seeds: one scoring, and no say in the optimum.

Without an ``incumbent=`` the period search builds the greedy forest on
its own per-node terms (under its platform and mapping scaling) and scores
that one forest through the objective; the latency search takes
``greedy_forest``'s.  Any forest is a valid incumbent, so the optimum must
not depend on the seed: these tests compare it against an incumbent built
by greedy and the reparenting local search, and against enumeration.

Every forest a non-unit platform scores runs a placement search (of exact
one-port schedules under INORDER and OUTORDER), so the instances shrink
there to keep the grid fast.
"""

import pytest

from repro.core import CommModel
from repro.optimize import (
    Effort,
    bb_minlatency,
    bb_minperiod,
    greedy_forest,
    local_search_forest,
    make_latency_objective,
    make_period_objective,
)
from repro.optimize.exhaustive import iter_dags, iter_forests, scan_best
from repro.planner import load_platform
from repro.workloads.generators import random_application

PLATFORMS = (None, "het4", "tree:racks=2,servers=4", "torus:dims=3x3,bw=1/2")
MODELS = (CommModel.OVERLAP, CommModel.INORDER, CommModel.OUTORDER)
TIERS = ("certified", "exact", "fast")
GRID = [
    (platform, model, tier)
    for platform in PLATFORMS for model in MODELS for tier in TIERS
]
IDS = [f"{p or 'unit'}-{m.value}-{t}" for p, m, t in GRID]


def _objective(platform, model, tier):
    plat = None if platform is None else load_platform(platform)
    return make_period_objective(model, Effort.EXACT, plat, exactness=tier)


def _size(platform, model):
    """Services per instance: smaller where a forest costs an exact
    one-port schedule or a placement search, smallest where it costs both."""
    return 5 - (platform is not None) - (model is not CommModel.OVERLAP)


def _parent_way(app, objective):
    """Greedy, then the reparenting local search, scored on *objective*."""
    _, graph = greedy_forest(app, objective)
    _, graph = local_search_forest(graph, objective)
    return objective(graph), graph


@pytest.mark.parametrize("platform,model,tier", GRID, ids=IDS)
def test_period_seed_is_scored_once(platform, model, tier):
    app = random_application(5, seed=3, filter_fraction=0.5)
    objective = _objective(platform, model, tier)
    value, graph, stats = bb_minperiod(app, objective, node_limit=0)
    assert stats.evaluated == 1
    assert graph.is_forest
    assert value == objective.compute(graph)


@pytest.mark.parametrize("platform,model,tier", GRID, ids=IDS)
def test_period_optimum_does_not_depend_on_the_seed(platform, model, tier):
    app = random_application(_size(platform, model), seed=1,
                             filter_fraction=0.5)
    value, graph, _ = bb_minperiod(app, _objective(platform, model, tier))
    assert value == _objective(platform, model, tier)(graph)
    # The parent-way forest is built on the certified tier (the exact
    # tier's forest, and much cheaper than FAST's, whose placement gate
    # settles no near-tie) and scored on the tier under test.
    _, seed = _parent_way(app, _objective(platform, model, "certified"))
    objective = _objective(platform, model, tier)
    other, _, _ = bb_minperiod(app, objective, incumbent=(objective(seed), seed))
    assert other == value
    if platform is None or model is CommModel.OVERLAP:
        best, _, _ = scan_best(iter_forests(app), objective)
        assert best == value


@pytest.mark.parametrize("model", MODELS, ids=[m.value for m in MODELS])
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("n", [4, 5])
def test_latency_optimum_does_not_depend_on_the_seed(n, tier, model):
    app = random_application(n, seed=n, filter_fraction=0.5)
    objective = make_latency_objective(model, Effort.EXACT, exactness=tier)
    # The seed scores greedy's n(n+1)/2 insertion candidates and its
    # forest, nothing more.
    _, _, stats = bb_minlatency(app, objective, node_limit=0)
    assert stats.evaluated == n * (n + 1) // 2 + 1
    value, graph, _ = bb_minlatency(app, objective)
    assert value == objective.compute(graph)
    other, _, _ = bb_minlatency(app, objective, incumbent=_parent_way(
        app, make_latency_objective(model, Effort.EXACT, exactness=tier)
    ))
    assert other == value
    if n == 4:
        best, _, _ = scan_best(iter_dags(app), objective)
        assert best == value

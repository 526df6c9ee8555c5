"""Local search stops at the no-communication chain bound.

No forest's period is below ``chain(all)``
(:meth:`~repro.optimize.branch_and_bound.ForestTerms.chain`, the bound
branch and bound starts from), so once a first-improvement search reaches
it no move can be a strict improvement.  These tests pin that:

(a) every search returns the value and edge set of the same search with
    the floor switched off by monkeypatching, on the certified and the
    exact tier: random n = 12-20 applications under OVERLAP and under
    INORDER at the bound effort (delta priced), with 2^-60 near-ties
    among the OVERLAP ones, INORDER at the heuristic effort (scored
    through the objective), het4 with a free mapping (a placement search
    per graph) and het4 with a pinned mapping (a delta at scaled terms);
(b) a seed already at the bound prices no move: no delta is built where
    the terms are the objective's values, and nothing is scored or
    priced otherwise;
(c) a search whose optimum stays above the bound prices every move the
    unfloored search prices.
"""

import random
from fractions import Fraction

import pytest

import repro.optimize.local_search as ls
from repro.core import (
    CommModel,
    Exactness,
    ExecutionGraph,
    Mapping,
    make_application,
)
from repro.optimize import (
    Effort,
    greedy_forest,
    local_search_forest,
    make_period_objective,
)
from repro.optimize.branch_and_bound import ForestTerms
from repro.optimize.incremental import IncrementalForestPeriod
from repro.planner import load_platform
from repro.workloads.generators import random_application, random_forest

F = Fraction
TINY = F(1, 2 ** 60)
TIERS = (Exactness.CERTIFIED, Exactness.EXACT)
HET4 = load_platform("het4")


def _floor_off(monkeypatch):
    monkeypatch.setattr(ForestTerms, "chain", lambda self, placed=0: Fraction(0))


def _floor(app, objective):
    return ForestTerms.of(app, objective).chain()


def _overlap(app, tier):
    return make_period_objective(CommModel.OVERLAP, exactness=tier)


def _inorder(app, tier):
    return make_period_objective(
        CommModel.INORDER, Effort.HEURISTIC, exactness=tier
    )


def _inorder_bound(app, tier):
    return make_period_objective(CommModel.INORDER, Effort.BOUND, exactness=tier)


def _het4_free(app, tier):
    return make_period_objective(
        CommModel.OVERLAP, Effort.HEURISTIC, HET4, exactness=tier
    )


def _het4_pinned(app, tier):
    mapping = Mapping(dict(zip(app.names, HET4.names)))
    return make_period_objective(
        CommModel.OVERLAP, Effort.HEURISTIC, HET4, mapping, tier
    )


def _random(n, seed, fraction=0.5):
    return random_application(n, seed=seed, filter_fraction=fraction)


def _near_ties(seed):
    """n = 12-20 services whose costs and selectivities differ by 2^-60,
    so a search passes values just above the bound before reaching it."""
    rng = random.Random(100 + seed)
    return make_application([
        (f"S{i}", rng.choice((2, 4, 8)) + rng.randrange(3) * TINY,
         rng.choice((F(1, 4), F(1, 2), 1, 2)) + rng.randrange(2) * TINY)
        for i in range(12 + seed % 9)
    ])


#: (objective factory, applications).
CONFIGS = {
    "overlap": (_overlap, [
        _random(n, seed, fraction)
        for n in range(12, 21)
        for seed, fraction in ((n, 0.3), (n + 40, 0.7))
    ]),
    "overlap-near-ties": (_overlap, [_near_ties(seed) for seed in range(40)]),
    "inorder-heuristic": (_inorder, [_random(12, 1), _random(12, 4)]),
    "inorder-bound": (_inorder_bound, [
        _random(n, seed, 0.7) for n, seed in ((12, 5), (16, 6), (20, 7))
    ]),
    "het4-free": (_het4_free, [_random(5, 1), _random(6, 2), _random(6, 3, 0.3)]),
    "het4-pinned": (_het4_pinned, [
        _random(n, seed) for n in (6, 7, 8) for seed in range(3)
    ]),
}


def _starts(app, objective):
    """The solvers' greedy seed, the empty forest and a random forest."""
    return (
        greedy_forest(app, objective)[1],
        ExecutionGraph.empty(app),
        random_forest(app, seed=3),
    )


@pytest.mark.parametrize("tier", TIERS, ids=lambda t: t.value)
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_same_result_as_unfloored_search(config, tier, monkeypatch):
    make, apps = CONFIGS[config]
    cases = [
        (app, start) for app in apps for start in _starts(app, make(app, tier))
    ]

    def run():
        out = []
        for app, start in cases:
            value, graph = local_search_forest(start, make(app, tier))
            out.append((value, sorted(graph.edges)))
        return out

    floored = run()
    # The floor decides: some searches end at it, so they stopped early.
    assert any(
        value == _floor(app, make(app, tier))
        for (value, _), (app, _) in zip(floored, cases)
    )
    _floor_off(monkeypatch)
    assert floored == run()


def _at_bound(make, tier):
    """An application whose greedy seed sits at the bound, with it."""
    for seed in range(50):
        app = _random(12, seed)
        objective = make(app, tier)
        value, graph = greedy_forest(app, objective)
        if value == _floor(app, objective):
            return app, graph
    raise AssertionError("no greedy seed at the bound")


class TestSeedAtBound:
    """(b) A seed already at the bound prices no move."""

    @pytest.mark.parametrize("tier", TIERS, ids=lambda t: t.value)
    def test_term_priced_seed_builds_no_delta(self, tier, monkeypatch):
        app, seed = _at_bound(_overlap, tier)
        built = []
        real = ls.period_delta
        monkeypatch.setattr(
            ls, "period_delta", lambda *a, **k: built.append(1) or real(*a, **k)
        )
        objective = _overlap(app, tier)
        value, graph = local_search_forest(seed, objective)
        assert built == [] and objective.evaluations == 0
        assert value == _floor(app, objective)
        assert isinstance(value, Fraction)
        assert graph.edges == seed.edges

    def test_scored_seed_is_scored_once(self):
        app, seed = _at_bound(_inorder, Exactness.EXACT)
        objective = _inorder(app, Exactness.EXACT)
        value, graph = local_search_forest(seed, objective)
        assert objective.evaluations == 1
        assert value == _floor(app, objective)
        assert graph.edges == seed.edges

    def test_pinned_seed_prices_no_move(self, monkeypatch):
        for seed in range(50):
            app = _random(7, seed)
            objective = _het4_pinned(app, Exactness.EXACT)
            value, start = greedy_forest(app, objective)
            if value == _floor(app, objective):
                break
        else:
            raise AssertionError("no pinned greedy seed at the bound")
        priced = []
        real = IncrementalForestPeriod.score_reparent
        monkeypatch.setattr(
            IncrementalForestPeriod, "score_reparent",
            lambda self, *a: priced.append(a) or real(self, *a),
        )
        assert local_search_forest(start, objective) == (value, start)
        assert priced == []


class TestAboveBound:
    """(c) An optimum above the bound gets the full search."""

    def test_delta_search_prices_every_move(self, monkeypatch):
        priced = []
        real = IncrementalForestPeriod.score_reparent
        monkeypatch.setattr(
            IncrementalForestPeriod, "score_reparent",
            lambda self, *a: priced.append(a) or real(self, *a),
        )
        app = _random(12, 1, 0.3)
        objective = _overlap(app, Exactness.EXACT)
        start = ExecutionGraph.empty(app)
        value, graph = local_search_forest(start, objective)
        assert value > _floor(app, objective)
        floored = list(priced)
        priced.clear()
        _floor_off(monkeypatch)
        assert local_search_forest(start, objective) == (value, graph)
        assert floored == priced and len(priced) > 0

    def test_scored_search_scores_every_move(self, monkeypatch):
        app = _random(8, 3)
        start = ExecutionGraph.empty(app)
        objective = _inorder(app, Exactness.EXACT)
        value, graph = local_search_forest(start, objective)
        assert value > _floor(app, objective)
        _floor_off(monkeypatch)
        unfloored = _inorder(app, Exactness.EXACT)
        assert local_search_forest(start, unfloored) == (value, graph)
        assert objective.evaluations == unfloored.evaluations > 1

"""Greedy seeding and branch-and-bound expansion on the per-node terms.

Under OVERLAP (Theorem 1), or at the bound effort, a partial forest's
period on a unit platform is the max of its placed nodes' terms, so the
greedy seed and every branch-and-bound child are priced from those terms
without building a graph.  These tests pin that this changes nothing but
the cost:

1. term-priced greedy equals objective-priced greedy, value and edge set,
   on seeded random instances, equal-cost ties and 2^-60 near-ties;
2. the term path is taken exactly where the terms are the objective;
3. the search explores the same states under every tier:
   expanded/pruned/duplicates are pinned;
4. 2^-60 near-ties, on a parent's grown term or in the heap order, give
   the certified search the exact search's plan and counts.
"""

import random
from fractions import Fraction

import pytest

from repro.core import CommModel, Exactness, make_application
from repro.optimize import Effort, greedy_forest, make_period_objective
from repro.planner import EvaluationCache, solve
from repro.workloads.generators import random_application, random_platform

F = Fraction
TINY = F(1, 2 ** 60)

#: (model, effort) pairs whose period objective is the Section-2.1 bound.
COVERED = [
    (CommModel.OVERLAP, Effort.HEURISTIC),
    (CommModel.OVERLAP, Effort.EXACT),
    (CommModel.INORDER, Effort.BOUND),
    (CommModel.OUTORDER, Effort.BOUND),
]


def _instances():
    """Seeded random mixes, equal-cost ties and 2^-60 near-ties, n = 1-15."""
    for seed in range(45):
        n = 1 + seed % 15
        fraction = (0.0, 0.3, 0.6, 1.0)[seed % 4]  # all expanders ... all filters
        yield f"random-{seed}", random_application(
            n, seed=seed, filter_fraction=fraction
        )
    for seed in range(15):
        rng = random.Random(seed)
        n = 2 + seed % 9
        yield f"ties-{seed}", make_application([
            (f"S{i}", 4, rng.choice((F(1, 2), F(1, 2), 1, 2))) for i in range(n)
        ])
    for seed in range(15):
        rng = random.Random(100 + seed)
        n = 2 + seed % 9
        yield f"near-ties-{seed}", make_application([
            (f"S{i}", rng.choice((2, 4, 8)) + rng.randrange(3) * TINY,
             rng.choice((F(1, 4), F(1, 2), 1, 2)) + rng.randrange(2) * TINY)
            for i in range(n)
        ])


INSTANCES = list(_instances())


class TestGreedyOnTerms:
    @pytest.mark.parametrize("label,app", INSTANCES, ids=[i[0] for i in INSTANCES])
    def test_equals_objective_priced_greedy(self, label, app):
        for model, effort in COVERED:
            objective = EvaluationCache().objective("period", model, effort)
            value, graph = greedy_forest(app, objective)
            assert objective.evaluations == 0  # priced on terms only
            # A plain callable carries no configuration: it scores graphs.
            plain = make_period_objective(model, effort)
            expected_value, expected = greedy_forest(app, lambda g: plain(g))
            assert value == expected_value, (label, model, effort)
            assert graph.edges == expected.edges, (label, model, effort)

    def test_uncovered_objectives_score_graphs(self):
        app = random_application(6, seed=3)
        platform = random_platform(6, seed=1)
        cache = EvaluationCache()
        for objective in (
            cache.objective("period", CommModel.INORDER, Effort.HEURISTIC),
            cache.objective("latency", CommModel.OVERLAP),
            cache.objective("period", CommModel.OVERLAP, platform=platform),
        ):
            value, graph = greedy_forest(app, objective)
            assert objective.evaluations > 0
            assert value == objective(graph)

    def test_fast_seed_is_the_exact_greedy(self):
        for seed in range(10):
            app = random_application(9, seed=seed, filter_fraction=0.6)
            exact = greedy_forest(
                app, EvaluationCache().objective("period", CommModel.OVERLAP)
            )
            fast = greedy_forest(app, EvaluationCache().objective(
                "period", CommModel.OVERLAP, exactness=Exactness.FAST
            ))
            assert fast[0] == exact[0] and fast[1].edges == exact[1].edges


class TestSearchCountsPinned:
    """Expansion on the terms explores exactly the states it did before."""

    #: (n, seed) -> (value, expanded, pruned, duplicates), identical on
    #: every tier (the search prices its bounds exactly on each).
    PINNED = {
        (8, 2): (F(59829, 16384), 0, 0, 0),
        (9, 4): (F(75, 2), 0, 0, 0),
    }

    @pytest.mark.parametrize("exactness", ["certified", "exact", "fast"])
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_counts(self, case, exactness):
        n, seed = case
        app = random_application(n, seed=seed, filter_fraction=0.6)
        result = solve(app, method="branch-and-bound", schedule=False,
                       cache=EvaluationCache(), exactness=exactness)
        extras = result.stats.extras
        assert (result.value, extras["expanded"], extras["pruned"],
                extras["duplicates"]) == self.PINNED[case]
        # Only the seed is scored: it is the greedy forest on the search's
        # own terms, and no leaf beats it.
        assert extras["evaluated"] == 1


class TestNearTieArbitration:
    """Certified B&B settles 2^-60 near-ties exactly, as the exact tier."""

    def test_grown_parent_term_is_arbitrated_exactly(self):
        # A child whose bound is within float resolution of the incumbent
        # because its parent's term grows with one more child.
        app = make_application([
            ("S0", 2 - 2 * TINY, 2), ("S1", 1, F(1, 2)), ("S2", F(1, 2) + TINY, 1),
        ])
        for model in ("inorder", "outorder"):
            runs = {}
            for exactness in ("exact", "certified"):
                result = solve(app, model=model, effort="bound",
                               method="branch-and-bound", exactness=exactness,
                               cache=EvaluationCache(), schedule=False)
                extras = result.stats.extras
                runs[exactness] = (result.value, sorted(result.graph.edges),
                                   extras["expanded"], extras["pruned"])
            assert runs["certified"] == runs["exact"], model
            assert runs["exact"][0] == F(5, 2)
            assert runs["exact"][2:] == (4, 9)

    #: Each instance: (services, solve options).  A float-keyed heap
    #: would pop equal-float states in insertion order where the exact
    #: tier orders them by their exact bounds, so a different (equally
    #: optimal) forest could win.
    HEAP_ORDER_CASES = {
        "auto": (
            [("S0", F(1, 2), 1 - TINY), ("S1", 3, F(3, 2)), ("S2", 4, F(1, 2)),
             ("S3", F(1, 2), F(1, 2)), ("S4", F(1, 2), 1 - TINY),
             ("S5", F(1, 2) + 2 * TINY, 2), ("S6", 6 - TINY, F(1, 4))],
            {},
        ),
        "outorder-bound": (
            [("S0", 1 - 3 * TINY, F(3, 2)), ("S1", 2 + TINY, 3), ("S2", 4, 3),
             ("S3", 1 - TINY, F(1, 2)), ("S4", 3, F(1, 2)),
             ("S5", 8 - 4 * TINY, 1)],
            dict(model="outorder", effort="bound", method="branch-and-bound"),
        ),
    }

    @pytest.mark.parametrize("case", sorted(HEAP_ORDER_CASES))
    def test_heap_order_near_ties_return_the_exact_forest(self, case):
        services, options = self.HEAP_ORDER_CASES[case]
        app = make_application(services)
        cert = solve(app, cache=EvaluationCache(), schedule=False, **options)
        exact = solve(app, cache=EvaluationCache(), schedule=False,
                      exactness="exact", **options)
        assert cert.value == exact.value
        assert cert.graph.edges == exact.graph.edges

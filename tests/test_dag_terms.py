"""The MinLatency branch and bound prices its bounds in scaled integers.

``bb_minlatency`` holds every ancestor product, finish time, floor and
bound as an int on :class:`~repro.optimize.branch_and_bound.DagTerms`'
common scale, under every numeric tier, so its ``CERTIFIED`` search is its
``EXACT`` one.  These tests check

* the scale itself: on an instance whose scale exceeds ``2^200`` (large
  prime denominators in selectivities, costs, speeds and bandwidth) every
  floor, product, finish time and appended term is the scale times its
  ``Fraction`` value, and the search returns the enumeration's optimum;
* the tiers: on a seeded panel (n = 3-6, OVERLAP/INORDER/OUTORDER, unit
  and pinned heterogeneous platforms, and selectivities and costs
  ``2^-60`` apart) certified and exact searches agree on the value, the
  edge set and all four counters;
* the cut: a bound below the incumbent by less than one unit of the
  scale does not prune.
"""

import itertools
import random
from fractions import Fraction

import pytest

from repro import make_application
from repro.core import CommModel, Mapping, Platform
from repro.optimize import (
    Effort,
    bb_minlatency,
    exhaustive_minlatency,
    iter_dags,
    make_latency_objective,
)
from repro.optimize.branch_and_bound import DagTerms, _min_products, _Scaling
from repro.workloads.generators import random_application, random_platform

F = Fraction
M31, M61, M89, M107, M127 = (2**p - 1 for p in (31, 61, 89, 107, 127))
P1, P2 = 1_000_000_007, 998_244_353

#: Five services whose selectivity denominators alone multiply past 2^280.
HUGE = make_application(
    [
        ("A", F(3 * P1 + 1, P1), F(M61 // 2, M61)),
        ("B", F(2 * P2 + 5, P2), F(M89 + 7, M89)),
        ("C", F(M127 + 11, M127), F(M31 // 3, M31)),
        ("D", 2, F(M107 - 5, M107)),
        ("E", F(7, 3), 1),
    ]
)
HUGE_PLATFORM = Platform.of(
    speeds=[F(M61, M31), F(P2, P1), F(M89, M61), 1, F(5, 3)],
    default_bandwidth=F(M107, M89),
)
HUGE_MAPPING = Mapping(dict(zip(HUGE.names, HUGE_PLATFORM.names)))


class _Reference:
    """The same critical-path terms in plain ``Fraction``s."""

    def __init__(self, app, scaling):
        names = list(app.names)
        self.sigma = [app.selectivity(x) for x in names]
        self.cc = [app.cost(x) / scaling.speed(x) for x in names]
        self.b = scaling.comm_div

    def product(self, ancestors):
        prod = F(1)
        for j in ancestors:
            prod *= self.sigma[j]
        return prod

    def start(self, preds, anc, finish):
        if not preds:
            return 1 / self.b
        return max(finish[p] + anc[p] * self.sigma[p] / self.b for p in preds)

    def term(self, u, ancestors, start):
        prod = self.product(ancestors)
        return start + prod * self.cc[u] + prod * self.sigma[u] / self.b

    def floor(self, i, least):
        return (
            min(1, least) / self.b + least * self.cc[i]
            + least * self.sigma[i] / self.b
        )


def _ancestor_sets(order, preds):
    """Ancestor sets and a topological order of a DAG given by *preds*."""
    ancestors, topo, pending = {}, [], list(order)
    while pending:
        i = pending.pop(0)
        if any(p not in ancestors for p in preds[i]):
            pending.append(i)
            continue
        ancestors[i] = frozenset().union(*[ancestors[p] | {p} for p in preds[i]])
        topo.append(i)
    return ancestors, topo


@pytest.mark.parametrize("het", [False, True], ids=["unit", "pinned-het"])
def test_every_term_is_the_scale_times_its_fraction(het):
    platform, mapping = (HUGE_PLATFORM, HUGE_MAPPING) if het else (None, None)
    scaling = _Scaling(HUGE, platform, mapping)
    terms, ref = DagTerms(HUGE, scaling), _Reference(HUGE, scaling)
    scale = terms.scale
    assert scale > 2**200
    minprod = _min_products(HUGE)
    for i, name in enumerate(HUGE.names):
        assert terms.floor(i, minprod[name]) == scale * ref.floor(i, minprod[name])
    index = {name: i for i, name in enumerate(HUGE.names)}
    n = len(HUGE)
    # Every partial DAG on up to three services, and on the first four,
    # with each unplaced service appended under every predecessor set.
    subsets = [
        names for k in (1, 2, 3) for names in itertools.combinations(HUGE.names, k)
    ] + [HUGE.names[:4]]
    graphs = (
        graph
        for names in subsets
        for graph in iter_dags(make_application(
            [(x, HUGE.cost(x), HUGE.selectivity(x)) for x in names]
        ))
    )
    for graph in graphs:
        order = sorted(index[x] for x in graph.nodes)
        preds = {i: [] for i in order}
        for a, b in graph.edges:
            preds[index[b]].append(index[a])
        ancestors, topo = _ancestor_sets(order, preds)
        anc, finish = terms.revive(topo, preds, ancestors)
        ref_anc, ref_finish = {}, {}
        for i in topo:
            ref_anc[i] = ref.product(ancestors[i])
            ref_finish[i] = ref.start(preds[i], ref_anc, ref_finish) + (
                ref_anc[i] * ref.cc[i]
            )
        for i in topo:
            assert anc[i] == terms.top * ref_anc[i]
            assert finish[i] == scale * ref_finish[i]
        for k in range(len(order) + 1):
            for chosen in itertools.combinations(order, k):
                acc = frozenset().union(*[ancestors[p] | {p} for p in chosen])
                start = terms.start(list(chosen), anc, finish)
                ref_start = ref.start(chosen, ref_anc, ref_finish)
                assert start == scale * ref_start
                for u in set(range(n)) - set(order):
                    got = start + terms.product(acc) * terms.k[u]
                    assert got == scale * ref.term(u, acc, ref_start)


@pytest.mark.parametrize(
    "n,model,effort",
    [(5, CommModel.OVERLAP, Effort.BOUND), (4, CommModel.INORDER, Effort.EXACT)],
)
def test_huge_scale_search_matches_enumeration(n, model, effort):
    app = make_application(
        [(x, HUGE.cost(x), HUGE.selectivity(x)) for x in HUGE.names[:n]]
    )
    exact, _ = exhaustive_minlatency(app, model, effort=effort)
    for tier in ("certified", "exact"):
        objective = make_latency_objective(model, effort, exactness=tier)
        value, graph, _ = bb_minlatency(app, objective)
        assert value == exact, tier
        assert objective(graph) == value


def test_huge_scale_pinned_platform_matches_enumeration():
    app = make_application(
        [(x, HUGE.cost(x), HUGE.selectivity(x)) for x in HUGE.names[:4]]
    )
    platform = Platform.of(
        speeds=[F(M61, M31), F(P2, P1), F(M89, M61), F(5, 3)],
        default_bandwidth=F(M107, M89),
    )
    mapping = Mapping(dict(zip(app.names, platform.names)))
    objective = make_latency_objective(
        CommModel.OVERLAP, Effort.EXACT, platform, mapping
    )
    scaling = _Scaling(app, platform, mapping)
    assert DagTerms(app, scaling).scale > 2**200
    value, _, _ = bb_minlatency(app, objective)
    assert value == min(objective(g) for g in iter_dags(app))


# ---------------------------------------------------------------------------
# Certified equals exact on a seeded panel
# ---------------------------------------------------------------------------

T = F(1, 2**60)


def _near_tie_app(n, seed):
    """Selectivities and costs drawn from values ``2^-60`` apart."""
    rng = random.Random(seed)
    sigmas = (F(1, 2), F(1, 2) + T, 1 - T, F(1), 1 + T, F(3, 2))
    costs = (F(1, 2), 1 - T, F(1), 1 + T, F(3), F(4))
    return make_application(
        [(f"S{i}", rng.choice(costs), rng.choice(sigmas)) for i in range(n)]
    )


def _panel(family):
    """``(label, app, platform, mapping)`` of one panel family."""
    if family == "near-tie":
        for n, seed in itertools.product((4, 5), range(1, 8)):
            yield f"n{n}s{seed}", _near_tie_app(n, seed), None, None
        return
    sizes = [(n, seed) for n in (3, 4, 5) for seed in range(1, 7)]
    if family == "unit":
        sizes += [(6, seed) for seed in (2, 3, 4, 7)]
    for n, seed in sizes:
        app = random_application(n, seed=seed, filter_fraction=0.5)
        if family == "unit":
            yield f"n{n}s{seed}", app, None, None
        else:
            platform = random_platform(n + 1, seed=seed)
            mapping = Mapping(dict(zip(app.names, platform.names)))
            yield f"n{n}s{seed}", app, platform, mapping


def _outcome(app, model, platform, mapping, tier):
    objective = make_latency_objective(
        model, Effort.BOUND, platform, mapping, exactness=tier
    )
    value, graph, stats = bb_minlatency(app, objective)
    return (value, graph.edges, stats.expanded, stats.pruned,
            stats.duplicates, stats.evaluated)


@pytest.mark.parametrize(
    "model", [CommModel.OVERLAP, CommModel.INORDER, CommModel.OUTORDER]
)
@pytest.mark.parametrize("family", ["unit", "pinned-het", "near-tie"])
def test_certified_search_is_the_exact_search(family, model):
    differ = [
        label
        for label, app, platform, mapping in _panel(family)
        if _outcome(app, model, platform, mapping, "certified")
        != _outcome(app, model, platform, mapping, "exact")
    ]
    assert not differ


@pytest.mark.parametrize("tier", ["certified", "exact"])
def test_a_bound_below_the_incumbent_never_prunes(tier):
    # An incumbent half a scale unit above the optimum: the states on the
    # optimum's path have bounds at most the optimum, so they are below
    # the incumbent, and the search must still reach the optimum.
    app = random_application(5, seed=3, filter_fraction=0.5)
    objective = make_latency_objective(
        CommModel.OVERLAP, Effort.BOUND, exactness=tier
    )
    value, graph, _ = bb_minlatency(app, objective)
    scale = DagTerms(app, _Scaling(app, None, None)).scale
    near = value + F(1, 2 * scale), graph
    assert bb_minlatency(app, objective, incumbent=near)[0] == value

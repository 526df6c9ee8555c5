"""Pinned outcomes of the forest branch and bound on every numeric tier.

``bb_minperiod`` carries each state's ancestor products, child counts,
grown terms and least out-size on its heap, keys its duplicate check on
an int, and bounds the unplaced services by their no-communication chain,
all in exact arithmetic on every tier.  These pins fix, per tier, the
optimum's value and edge set and the search counters (``expanded``,
``pruned``, ``duplicates``, ``evaluated``), so a rewrite of that
bookkeeping that moves one decision fails here.

The random rows cover the unit platform, ``het4`` and a contended
``tree:racks=2,servers=4`` (both with a free mapping, so the placement
gate runs) under each model; most unit rows close at the root, and
``n10s16`` still expands.  The near-tie rows (``t = 2^-60``) put leaf
terms and grown parent terms within float resolution of the incumbent,
also after the search has improved its incumbent, so a wrong key digit
or a bound that rounds changes a count or a plan here.
"""

from fractions import Fraction

import pytest

from repro import make_application
from repro.core import CommModel
from repro.optimize import Effort, bb_minperiod, make_period_objective
from repro.planner import load_platform
from repro.workloads.generators import random_application

T = Fraction(1, 2**60)
F = Fraction

#: Near-tie applications: (cost, selectivity) per service ``S0, S1, ...``.
NEAR_TIES = {
    "near6a": [
        (1 + T / 2, F(3, 2) - T), (2, 2), (2 + T / 2, 1 + T), (F(1, 2) - T, 2),
        (2 - T / 2, 1 - T), (2 + T / 2, 2),
    ],
    "near6b": [
        (4 + T, F(1, 4) - T), (4 - T / 2, 1 - T), (3 + T / 2, 1 - T),
        (6 + T / 2, 2), (4, 1), (1 - T, 2),
    ],
    "near6c": [
        (4 + T / 2, F(3, 2) + T), (1 + T, 2), (4 - T / 2, F(3, 2)),
        (3 - T, F(3, 2)), (2 - T, 3), (3 - T, F(1, 2)),
    ],
}

TIERS = ("exact", "certified", "fast")
MODELS = (("overlap", "heuristic"), ("inorder", "bound"), ("outorder", "bound"))

#: (instance, model) -> (value, edges, exact counters[, overrides]).
#: Counters are (expanded, pruned, duplicates, evaluated); the optional
#: dict gives the tiers that differ from the exact one: their counters,
#: or their whole (value, edges, counters) when the plan differs too
#: (``FAST`` returns float images of the values).
PINS = {
    ("n8s0", "overlap"): (
        "1017/128", "C0>C2 C0>C4 C7>C0 C7>C3", (0, 0, 0, 1),
    ),
    ("n8s0", "inorder"): (
        "2223/256", "C0>C4 C4>C2 C7>C0 C7>C3", (0, 0, 0, 1),
    ),
    ("n8s0", "outorder"): (
        "2223/256", "C0>C4 C4>C2 C7>C0 C7>C3", (0, 0, 0, 1),
    ),
    ("n8s4", "overlap"): ("75/2", "C3>C0 C3>C4", (0, 0, 0, 1)),
    ("n8s4", "inorder"): ("619/16", "C3>C4 C4>C0", (0, 0, 0, 1)),
    ("n8s4", "outorder"): ("619/16", "C3>C4 C4>C0", (0, 0, 0, 1)),
    ("n10s16", "overlap"): (
        "83/16", "C0>C5 C0>C9 C7>C0 C9>C6 C9>C8", (10, 181, 0, 2),
    ),
    ("het4/n5s0", "overlap"): (
        "113/32", "C0>C3 C0>C4 C4>C2", (7, 28, 2, 3),
    ),
    ("het4/n5s0", "inorder"): ("155/32", "C0>C4 C4>C2 C4>C3", (0, 0, 0, 1)),
    ("het4/n5s0", "outorder"): ("155/32", "C0>C4 C4>C2 C4>C3", (0, 0, 0, 1)),
    ("het4/n5s1", "overlap"): (
        "157/32", "C3>C2 C3>C4 C4>C1", (23, 137, 12, 3),
    ),
    ("het4/n5s1", "inorder"): (
        "2975/512", "C3>C0 C3>C4 C4>C1", (62, 200, 83, 42),
    ),
    ("het4/n5s1", "outorder"): (
        "2975/512", "C3>C0 C3>C4 C4>C1", (62, 200, 83, 42),
    ),
    ("tree:racks=2,servers=4/n5s0", "overlap"): (
        "113/8", "C0>C2 C0>C4", (0, 0, 0, 1),
    ),
    ("tree:racks=2,servers=4/n5s0", "inorder"): (
        "63/4", "C0>C4 C4>C2", (52, 225, 54, 24),
    ),
    ("tree:racks=2,servers=4/n5s0", "outorder"): (
        "63/4", "C0>C4 C4>C2", (52, 225, 54, 24),
    ),
    ("tree:racks=2,servers=4/n5s3", "overlap"): (
        "23/16", "C0>C2 C0>C4 C2>C3 C4>C1", (0, 0, 0, 1),
    ),
    ("tree:racks=2,servers=4/n5s3", "inorder"): (
        "45/16", "C0>C1 C1>C2 C2>C3 C3>C4", (36, 107, 33, 42),
    ),
    ("tree:racks=2,servers=4/n5s3", "outorder"): (
        "45/16", "C0>C1 C1>C2 C2>C3 C3>C4", (36, 107, 33, 42),
    ),
    ("near6a", "overlap"): (
        "1329227995784915872903807060280344575/664613997892457936451903530140172288",
        "S2>S1 S2>S3 S4>S2 S4>S5",
        (33, 306, 30, 1),
        {"fast": ("2", "S2>S1 S2>S3 S4>S2 S4>S5", (0, 0, 0, 1))},
    ),
    ("near6a", "inorder"): (
        "11529215046068469755/2305843009213693952",
        "S4>S1 S4>S5",
        (67, 567, 78, 2),
        {"fast": ("5", "S2>S1 S4>S2 S4>S5", (0, 0, 0, 1))},
    ),
    ("near6a", "outorder"): (
        "11529215046068469755/2305843009213693952",
        "S4>S1 S4>S5",
        (67, 567, 78, 2),
        {"fast": ("5", "S2>S1 S4>S2 S4>S5", (0, 0, 0, 1))},
    ),
    ("near6b", "overlap"): (
        "10633823966279326972854162940781133825/2658455991569831745807614120560689152",
        "S0>S3 S1>S0 S1>S4 S2>S1",
        (0, 0, 0, 1),
        {"fast": ("4", "S0>S3 S1>S0 S1>S4 S2>S1", (0, 0, 0, 1))},
    ),
    ("near6b", "inorder"): (
        "24211351596743786475/4611686018427387904",
        "S0>S1 S1>S3 S1>S4 S2>S0",
        (6, 29, 0, 2),
        {"fast": ("21/4", "S0>S1 S1>S3 S1>S4 S2>S0", (6, 29, 0, 2))},
    ),
    ("near6b", "outorder"): (
        "24211351596743786475/4611686018427387904",
        "S0>S1 S1>S3 S1>S4 S2>S0",
        (6, 29, 0, 2),
        {"fast": ("21/4", "S0>S1 S1>S3 S1>S4 S2>S0", (6, 29, 0, 2))},
    ),
    ("near6c", "overlap"): (
        "3458764513820540927/1152921504606846976",
        "S5>S0 S5>S2 S5>S4",
        (0, 0, 0, 1),
        {"fast": ("3", "S5>S0 S5>S2 S5>S4", (0, 0, 0, 1))},
    ),
    ("near6c", "inorder"): (
        "44963938679667032073/9223372036854775808",
        "S2>S0 S2>S3 S2>S4 S5>S2",
        (49, 395, 35, 2),
        {"fast": ("39/8", "S0>S2 S0>S3 S0>S4 S5>S0", (41, 351, 27, 1))},
    ),
    ("near6c", "outorder"): (
        "44963938679667032073/9223372036854775808",
        "S2>S0 S2>S3 S2>S4 S5>S2",
        (49, 395, 35, 2),
        {"fast": ("39/8", "S0>S2 S0>S3 S0>S4 S5>S0", (41, 351, 27, 1))},
    ),
}


def _instance(label):
    """``(application, platform)`` named by a pin's label."""
    if label in NEAR_TIES:
        return make_application(
            [(f"S{i}", c, s) for i, (c, s) in enumerate(NEAR_TIES[label])]
        ), None
    platform, _, spec = label.rpartition("/")
    n, seed = map(int, spec[1:].split("s"))
    app = random_application(n, seed=seed, filter_fraction=0.6)
    return app, load_platform(platform) if platform else None


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize(
    "label,model", list(PINS), ids=["-".join(key) for key in PINS]
)
def test_bb_minperiod_pinned(label, model, tier):
    value, edges, counters, *overrides = PINS[(label, model)]
    override = (overrides[0] if overrides else {}).get(tier)
    if override is not None and isinstance(override[0], str):
        value, edges, counters = override
    elif override is not None:
        counters = override
    app, platform = _instance(label)
    effort = dict(MODELS)[model]
    objective = make_period_objective(
        CommModel(model), Effort(effort), platform, exactness=tier
    )
    got, graph, stats = bb_minperiod(app, objective)
    assert got == Fraction(value)
    assert " ".join(f"{a}>{b}" for a, b in sorted(graph.edges)) == edges
    assert (
        stats.expanded, stats.pruned, stats.duplicates, stats.evaluated
    ) == counters

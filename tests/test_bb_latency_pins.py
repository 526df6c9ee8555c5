"""Pinned outcomes of the DAG branch and bound on every numeric tier.

``bb_minlatency`` revives critical paths and prices each appended node on
integer :class:`~repro.optimize.branch_and_bound.DagTerms` under every
tier, so a ``CERTIFIED`` search is the ``EXACT`` one: same optimum, same
counters.  Under ``FAST`` the objective scores in floats and a bound
within ``CERT_EPS`` below the incumbent prunes, so its counters may
differ.  These pins fix, per tier, the optimum's value and edge set and
the search counters (``expanded``, ``pruned``, ``duplicates``,
``evaluated``), so any rewrite of the bound arithmetic that moves one
decision fails here.

The random instances tie their incumbent exactly, and the near-tie
application (``t = 2^-60``) puts candidates within float resolution of
each other, where a float-priced bound would order or prune differently.
The ``het`` rows pin a heterogeneous platform with a positional mapping.
"""

from fractions import Fraction

import pytest

from repro import make_application
from repro.core import CommModel, Mapping
from repro.optimize import Effort, bb_minlatency, make_latency_objective
from repro.workloads.generators import random_application, random_platform

T = Fraction(1, 2**60)
NEAR_TIE = make_application(
    [
        ("S0", Fraction(1, 2), 1 - T),
        ("S1", 3, Fraction(3, 2)),
        ("S2", 4, Fraction(1, 2)),
        ("S3", Fraction(1, 2), Fraction(1, 2)),
        ("S4", 1 - T, 1),
    ]
)

TIERS = ("exact", "certified", "fast")

#: (instance, model, effort) -> (value, edges, exact counters[, overrides]).
#: Counters are (expanded, pruned, duplicates, evaluated); the optional
#: dict gives the tiers whose counters differ from the exact ones (only
#: ``fast`` can: the certified search is the exact one).
PINS = {
    ("n4s2", "overlap", "heuristic"): ("3535/256", "C0>C2", (26, 162, 11, 11)),
    ("n4s2", "overlap", "bound"): ("3535/256", "C0>C2", (26, 162, 11, 11)),
    ("n4s2", "inorder", "bound"): ("3535/256", "C0>C2", (26, 162, 11, 11)),
    ("n4s3", "overlap", "heuristic"): (
        "4929/1024", "C0>C2 C2>C1 C2>C3", (5, 30, 0, 11),
    ),
    ("n4s3", "overlap", "bound"): (
        "4929/1024", "C0>C2 C2>C1 C2>C3", (5, 30, 0, 11),
    ),
    ("n4s3", "inorder", "bound"): (
        "4929/1024", "C0>C2 C2>C1 C2>C3", (5, 30, 0, 11),
    ),
    ("n4s4", "overlap", "heuristic"): ("885/16", "", (0, 0, 0, 11)),
    ("n4s4", "overlap", "bound"): ("885/16", "", (0, 0, 0, 11)),
    ("n4s4", "inorder", "bound"): ("885/16", "", (0, 0, 0, 11)),
    ("n5s2", "overlap", "heuristic"): (
        "3535/256", "C0>C2 C0>C4", (130, 1769, 95, 16),
    ),
    ("n5s2", "overlap", "bound"): (
        "3535/256", "C0>C2 C0>C4", (130, 1769, 95, 16),
    ),
    ("n5s2", "inorder", "bound"): (
        "3535/256", "C0>C2 C0>C4", (130, 1769, 95, 16),
    ),
    ("n5s3", "overlap", "heuristic"): (
        "4929/1024", "C0>C2 C0>C4 C2>C1 C2>C3", (23, 312, 7, 16),
    ),
    ("n5s3", "overlap", "bound"): (
        "4929/1024", "C0>C2 C0>C4 C2>C1 C2>C3", (23, 312, 7, 16),
    ),
    ("n5s3", "inorder", "bound"): (
        "4929/1024", "C0>C2 C0>C4 C2>C1 C2>C3", (23, 312, 7, 16),
    ),
    ("n5s4", "overlap", "heuristic"): ("885/16", "", (55, 679, 56, 16)),
    ("n5s4", "overlap", "bound"): ("885/16", "", (55, 679, 56, 16)),
    ("n5s4", "inorder", "bound"): ("885/16", "", (55, 679, 56, 16)),
    ("n6s2", "overlap", "heuristic"): (
        "3535/256", "C0>C2 C0>C4 C0>C5", (613, 17713, 601, 22),
    ),
    ("n6s2", "overlap", "bound"): (
        "3535/256", "C0>C2 C0>C4 C0>C5", (613, 17713, 601, 22),
    ),
    ("n6s2", "inorder", "bound"): (
        "3535/256", "C0>C2 C0>C4 C0>C5", (613, 17713, 601, 22),
    ),
    ("n6s3", "overlap", "heuristic"): (
        "4929/1024", "C0>C2 C0>C4 C2>C1 C2>C3 C2>C5", (63, 1761, 57, 22),
    ),
    ("n6s3", "overlap", "bound"): (
        "4929/1024", "C0>C2 C0>C4 C2>C1 C2>C3 C2>C5", (63, 1761, 57, 22),
    ),
    ("n6s3", "inorder", "bound"): (
        "4929/1024", "C0>C2 C0>C4 C2>C1 C2>C3 C2>C5", (63, 1761, 57, 22),
    ),
    ("n6s4", "overlap", "heuristic"): ("885/16", "", (150, 3683, 224, 22)),
    ("n6s4", "overlap", "bound"): ("885/16", "", (150, 3683, 224, 22)),
    ("n6s4", "inorder", "bound"): ("885/16", "", (150, 3683, 224, 22)),
    ("near", "overlap", "heuristic"): (
        "19/4", "S3>S1 S3>S2", (114, 1406, 178, 64),
        {"fast": (83, 1038, 109, 36)},
    ),
    ("near", "overlap", "bound"): (
        "17/4", "S0>S4 S3>S1 S3>S2 S3>S4", (33, 374, 14, 22),
        {"fast": (33, 385, 14, 21)},
    ),
    ("near", "inorder", "bound"): (
        "17/4", "S0>S4 S3>S1 S3>S2 S3>S4", (33, 374, 14, 22),
        {"fast": (33, 385, 14, 21)},
    ),
    ("het4s2", "overlap", "heuristic"): ("661/32", "C0>C2", (43, 246, 34, 23)),
    ("het4s2", "overlap", "bound"): ("661/32", "C0>C2", (43, 246, 34, 23)),
    ("het4s2", "inorder", "bound"): ("661/32", "C0>C2", (43, 246, 34, 23)),
    ("het4s3", "overlap", "heuristic"): (
        "5913/1024", "C0>C2 C2>C1 C2>C3", (9, 37, 7, 25),
    ),
    ("het4s3", "overlap", "bound"): (
        "5913/1024", "C0>C2 C2>C1 C2>C3", (9, 37, 7, 25),
    ),
    ("het4s3", "inorder", "bound"): (
        "5913/1024", "C0>C2 C2>C1 C2>C3", (9, 37, 7, 25),
    ),
    ("het5s2", "overlap", "heuristic"): (
        "661/32", "C0>C2 C0>C4", (369, 5212, 213, 16),
    ),
    ("het5s2", "overlap", "bound"): (
        "661/32", "C0>C2 C0>C4", (369, 5212, 213, 16),
    ),
    ("het5s2", "inorder", "bound"): (
        "661/32", "C0>C2 C0>C4", (369, 5212, 213, 16),
    ),
    ("het5s3", "overlap", "heuristic"): (
        "6201/1024", "C0>C2 C0>C4 C2>C1 C2>C3", (71, 396, 221, 434),
    ),
    ("het5s3", "overlap", "bound"): (
        "6201/1024", "C0>C2 C0>C4 C2>C1 C2>C3", (71, 396, 221, 434),
    ),
    ("het5s3", "inorder", "bound"): (
        "6201/1024", "C0>C2 C0>C4 C2>C1 C2>C3", (71, 396, 221, 434),
    ),
}


def _instance(label):
    """``(application, platform, mapping)`` named by a pin's label."""
    if label == "near":
        return NEAR_TIE, None, None
    het = label.startswith("het")
    n, seed = map(int, label[3 if het else 1:].split("s"))
    app = random_application(n, seed=seed, filter_fraction=0.5)
    if not het:
        return app, None, None
    platform = random_platform(n + 1, seed=seed)
    return app, platform, Mapping(dict(zip(app.names, platform.names)))


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize(
    "label,model,effort", list(PINS), ids=["-".join(key) for key in PINS]
)
def test_bb_minlatency_pinned(label, model, effort, tier):
    value, edges, counters, *overrides = PINS[(label, model, effort)]
    counters = (overrides[0] if overrides else {}).get(tier, counters)
    app, platform, mapping = _instance(label)
    objective = make_latency_objective(
        CommModel(model), Effort(effort), platform, mapping, exactness=tier
    )
    got, graph, stats = bb_minlatency(app, objective)
    assert got == Fraction(value)
    assert " ".join(f"{a}>{b}" for a, b in sorted(graph.edges)) == edges
    assert (
        stats.expanded, stats.pruned, stats.duplicates, stats.evaluated
    ) == counters

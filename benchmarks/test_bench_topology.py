"""Hierarchical vs. flat placement on structured (contended) platforms.

For each instance — layered and random DAGs on switch-tree and torus
platforms whose uplinks are bandwidth-shared — run the placement search
past its exhaustive range twice: once from the classic work-onto-speed
greedy seed (``strategy="flat"``) and once from the topology-partitioned
seed (``strategy="hierarchical"``).  Both refine with the identical
first-improvement local search, so the comparison isolates the seed.

Asserted shape (machine-independent):

* the hierarchical strategy's objective is **never worse** than flat on
  any benchmark instance (both values are exact Fractions);
* on at least one instance it is **strictly better** — the partitioned
  seed escapes a local optimum the flat seed converges to;
* wall-clock stays within a generous factor of the flat run (the seed
  is a linear-time partition pass, not a second search).

Records ``benchmarks/results/BENCH_topology.json`` (uploaded as a CI
artifact and under ``compare_bench.py``: the values and gains must match
exactly, the ``*_wall_s`` walls are compared by ratio) and a human table
to ``topology_scaling.txt``.
"""

import json
import time
from fractions import Fraction as F

from repro.analysis import text_table
from repro.core import CommModel, Platform, TorusTopology, TreeTopology
from repro.optimize import Effort
from repro.optimize.placement import clear_placement_memo, optimize_mapping
from repro.workloads.generators import random_application, random_execution_graph

from bench_helpers import RESULTS_DIR, record

#: Generous ceiling on hierarchical/flat wall-time ratio: the seed adds
#: a linear partition pass on top of the shared local search, so even
#: noisy CI runners stay far under this.
MAX_TIME_RATIO = 5.0


def _instances():
    """(label, graph, platform) triples; all past the exhaustive range."""
    out = []
    for n, seed, density in ((10, 3, 0.35), (12, 7, 0.3), (10, 11, 0.4)):
        app = random_application(n, seed=seed, filter_fraction=0.6)
        graph = random_execution_graph(app, seed=seed + 1, density=density)
        tree = Platform(
            topology=TreeTopology(
                racks=4, servers_per_rack=3, up_bw=F(1, 4), speed2=F(2)
            )
        )
        out.append((f"tree4x3/n={n}s{seed}", graph, tree))
        torus = Platform(topology=TorusTopology((4, 3), bw=F(1, 2)))
        out.append((f"torus4x3/n={n}s{seed}", graph, torus))
    return out


def _run(graph, platform, strategy):
    clear_placement_memo()
    started = time.perf_counter()
    value, mapping = optimize_mapping(
        graph, "period", CommModel.OVERLAP, Effort.BOUND, platform,
        exhaustive_limit=0, strategy=strategy,
    )
    wall = time.perf_counter() - started
    return value, mapping, wall


def test_hierarchical_vs_flat_placement():
    rows = []
    payload = []
    strict_wins = 0
    for label, graph, platform in _instances():
        flat_v, _, flat_wall = _run(graph, platform, "flat")
        hier_v, _, hier_wall = _run(graph, platform, "hierarchical")

        assert hier_v <= flat_v, (label, hier_v, flat_v)
        if hier_v < flat_v:
            strict_wins += 1
        if flat_wall > 0.05:  # ratio is meaningless at microsecond scales
            assert hier_wall <= flat_wall * MAX_TIME_RATIO, (
                label, hier_wall, flat_wall,
            )

        gain = float(1 - hier_v / flat_v) * 100
        rows.append([
            label, str(flat_v), str(hier_v), f"{gain:.1f}%",
            f"{flat_wall * 1000:.0f}", f"{hier_wall * 1000:.0f}",
        ])
        payload.append({
            "instance": label,
            "flat_value": str(flat_v),
            "hierarchical_value": str(hier_v),
            "gain_pct": round(gain, 2),
            "flat_wall_s": round(flat_wall, 4),
            "hierarchical_wall_s": round(hier_wall, 4),
        })

    # The partitioned seed must actually matter somewhere, not just tie.
    assert strict_wins >= 1, payload

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_topology.json").write_text(
        json.dumps({"placement": payload}, indent=2) + "\n"
    )
    record(
        "topology_scaling",
        text_table(
            ["instance", "flat", "hierarchical", "gain", "flat ms", "hier ms"],
            rows,
        ),
    )

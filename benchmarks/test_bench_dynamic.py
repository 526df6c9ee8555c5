"""Warm-started re-planning vs. cold re-solving on a flash-crowd trace.

Replay a 50-event flash crowd (accelerating admissions, load spikes,
evictions) on a 4-server platform twice per event: the warm incumbent
repaired under a migration budget of 2 voluntary moves, and the cold
from-scratch solve a stateless planner would deploy (placement memo
cleared per event, so its wall time is honest).  The first 20 events of
the same trace are also replayed, warm side only, on a contended two-rack
tree, where the repair prices its moves with the batched kernel and
settles near-ties exactly.

Asserted shape — the PR's acceptance criteria, machine-independent:

* **quality**: the warm repair's mean steady-state period stays within
  1.1x of the cold optimum (>= 90% of cold quality);
* **stability**: the warm side migrates fewer than 25% as many services
  as the cold baseline churns.

Records ``benchmarks/results/BENCH_dynamic.json``, which
``compare_bench.py`` guards: per-event rows (keyed by ``index``) and the
aggregate rows (keyed by ``platform``) are deterministic and compared
exactly, and the aggregates' ``*_wall_s`` fields by ratio.  The human
timelines, with each event's wall time, go to ``dynamic_replay.txt``: a
single event takes 5-150 ms, where scheduler noise alone moves a wall
time by 2x.
"""

import json

from repro.core import Platform
from repro.dynamic import ScenarioTrace, flash_crowd_trace, replay
from repro.planner import load_platform

from bench_helpers import RESULTS_DIR, record

#: Acceptance ceilings (ISSUE 9): period within 1.1x of cold, moves
#: under a quarter of the cold churn.
MAX_MEAN_PERIOD_RATIO = 1.1
MAX_MOVE_RATIO = 0.25

N_EVENTS = 50
SEED = 7
BUDGET = 2
PLATFORM = "hom:n=4"

#: The contended replay: the first events of the same trace, warm only.
CONTENDED_EVENTS = 20
CONTENDED_PLATFORM = "tree:racks=2,servers=4"


def _timeline_row(step):
    """One event's deterministic fields as a flat row (no wall times)."""
    row = {}
    for key, value in step.as_dict().items():
        if isinstance(value, dict):
            for field, inner in value.items():
                if field != "wall_ms":
                    row[f"{key}_{field}"] = inner
        elif value is not None:
            row[key] = value
    return row


def _aggregate_row(platform, report):
    row = {"platform": platform}
    for key, value in report.aggregates().items():
        if key.endswith("_wall_ms"):
            if value:  # a side that did not run has no wall
                row[key[: -len("ms")] + "s"] = round(value / 1000, 6)
        elif value is not None:
            row[key] = value
    return row


def test_flash_crowd_warm_repair_vs_cold():
    trace = flash_crowd_trace(N_EVENTS, seed=SEED)
    report = replay(trace, Platform.homogeneous(4), budget=BUDGET)

    aggregates = report.aggregates()
    assert len(report.steps) == N_EVENTS
    assert aggregates["mean_period_ratio"] is not None
    assert aggregates["mean_period_ratio"] <= MAX_MEAN_PERIOD_RATIO, aggregates
    assert aggregates["move_ratio"] is not None
    assert aggregates["move_ratio"] < MAX_MOVE_RATIO, aggregates
    # The comparison is meaningful only if the cold side actually churns.
    assert report.total_cold_moves > report.total_warm_moves

    contended = replay(
        ScenarioTrace(trace.events[:CONTENDED_EVENTS]),
        load_platform(CONTENDED_PLATFORM), budget=BUDGET, compare_cold=False,
    )
    assert len(contended.steps) == CONTENDED_EVENTS

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_dynamic.json").write_text(
        json.dumps(
            {
                "trace": {
                    "family": "flash",
                    "events": N_EVENTS,
                    "seed": SEED,
                    "budget": BUDGET,
                },
                "aggregates": [
                    _aggregate_row(PLATFORM, report),
                    _aggregate_row(CONTENDED_PLATFORM, contended),
                ],
                "timeline": [_timeline_row(s) for s in report.steps],
                "contended_timeline": [
                    _timeline_row(s) for s in contended.steps
                ],
            },
            indent=2,
        )
        + "\n"
    )
    record(
        "dynamic_replay",
        f"{PLATFORM}, warm vs cold\n{report.summary_table()}\n\n"
        f"{CONTENDED_PLATFORM}, first {CONTENDED_EVENTS} events, warm only\n"
        f"{contended.summary_table()}",
    )

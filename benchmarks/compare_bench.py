#!/usr/bin/env python
"""Perf-regression guard: diff fresh ``BENCH_*.json`` against a baseline.

The machine-readable benchmark artifacts (``BENCH_search.json``,
``BENCH_concurrent.json``, ``BENCH_dynamic.json``, ``BENCH_serve.json``,
``BENCH_robust.json``, ``BENCH_topology.json``) carry two kinds of
numbers:

* **counts** — objective evaluations, expanded/pruned states, quality
  ratios: deterministic, compared **exactly** (a drifted count means the
  algorithm changed, which a perf PR must own up to in the committed
  baseline);
* **wall times** — compared with tolerance: a row slower than
  ``--fail-ratio`` (default 2.0x) fails the run, slower than
  ``--warn-ratio`` (default 1.3x) warns.  Ratios are normalised by a
  machine-speed calibration measured at snapshot and compare time (a CI
  runner 2x slower than the committing machine does not fail every
  row), and rows whose baseline wall time is below ``--min-wall``
  (default 0.05 s) are skipped for timing — at that scale the
  scheduler's noise floor swamps any real signal.  Both keep the CI
  smoke non-flaky.

``BENCH_batched.json`` stays outside the guard: its anytime rows record
what a search reached by a wall-clock deadline, so even their counts
move with the machine's speed.

Usage::

    python benchmarks/compare_bench.py --snapshot          # save committed
    make bench-search bench-concurrent bench-dynamic bench-serve \
        bench-robust bench-topology                        # regenerate
    python benchmarks/compare_bench.py                     # diff

``make bench-compare`` runs the three steps in order; CI snapshots the
checked-out artifacts before ``make bench`` and diffs afterwards.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
RESULTS_DIR = HERE / "results"
DEFAULT_BASELINE = HERE / ".bench-baseline"

#: The artifacts under the guard.
BENCH_FILES = (
    "BENCH_search.json", "BENCH_concurrent.json", "BENCH_dynamic.json",
    "BENCH_serve.json", "BENCH_robust.json", "BENCH_topology.json",
)

#: Committed calibration of the machine that generated the committed wall
#: times (written by ``--stamp``, which the Makefile bench targets run
#: after regenerating results).  Snapshotted alongside the BENCH files so
#: CI normalises its runner's speed against the *committing* machine.
STAMP_FILE = "BENCH_calibration.json"

#: Keys that identify a row (everything else is a measurement).
ID_KEYS = (
    "n", "seed", "label", "name", "apps", "servers", "services",
    "platform", "mode", "index", "mix", "workload", "instance",
)


CALIBRATION_FILE = "calibration.json"

#: Seconds of repetitions :func:`_calibrate` takes the best of.
CALIBRATION_SPAN = 0.5


def _calibrate() -> float:
    """Seconds for a fixed Fraction/float micro-workload on this machine.

    Stored next to the snapshot and measured again at compare time, so
    wall-time ratios are normalised by relative machine speed — a CI
    runner 2x slower than the machine that committed the baseline does
    not hard-fail every row.  The workload mirrors the benchmarks' mix
    (exact rational arithmetic plus float reductions).  One run takes
    ~6 ms and is bimodal on a busy host, so the best of the repetitions
    that fill :data:`CALIBRATION_SPAN` is kept, not the best of three.
    """
    best = float("inf")
    stop = time.perf_counter() + CALIBRATION_SPAN
    while time.perf_counter() < stop:
        started = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i, i + 1)
            acc = max(acc, Fraction(i, 2))
        facc = 0.0
        for i in range(1, 40_000):
            facc += i / (i + 1.0)
        best = min(best, time.perf_counter() - started)
    return best


def _is_wall_key(key: str) -> bool:
    return "wall" in key and key.endswith("_s")


def _is_derived_timing_key(key: str) -> bool:
    """Ratios of wall times (e.g. ``certified_speedup``): informational
    only — both ingredients are already guarded with tolerance."""
    return "speedup" in key


def _row_id(row: Dict) -> Tuple:
    return tuple((k, row[k]) for k in ID_KEYS if k in row)


def _iter_rows(payload: Dict) -> List[Tuple[str, Dict]]:
    """Flatten ``{section: [row, ...]}`` into ``(section, row)`` pairs."""
    out: List[Tuple[str, Dict]] = []
    for section, rows in payload.items():
        if isinstance(rows, list):
            for row in rows:
                if isinstance(row, dict):
                    out.append((section, row))
    return out


def snapshot(baseline_dir: Path) -> int:
    baseline_dir.mkdir(parents=True, exist_ok=True)
    copied = 0
    for name in BENCH_FILES:
        src = RESULTS_DIR / name
        if src.exists():
            shutil.copy2(src, baseline_dir / name)
            copied += 1
            print(f"snapshot: {src} -> {baseline_dir / name}")
        else:
            print(f"WARN  snapshot: {src} missing, skipped")
    stamp = RESULTS_DIR / STAMP_FILE
    if stamp.exists():
        # The committed stamp of the machine that produced the baseline
        # walls — the reference _speed_factor() normalises against.
        shutil.copy2(stamp, baseline_dir / STAMP_FILE)
        print(f"snapshot: {stamp} -> {baseline_dir / STAMP_FILE}")
    else:
        # No committed stamp: fall back to this machine's calibration
        # (exact for the local snapshot -> regenerate -> compare flow).
        calibration = _calibrate()
        (baseline_dir / CALIBRATION_FILE).write_text(
            json.dumps({"seconds": calibration}) + "\n"
        )
        print(f"snapshot: local calibration {calibration * 1000:.1f} ms")
    if not copied:
        # A fresh clone (or a results/ wipe) has no committed artifacts
        # yet: the guard then has no baseline to diff against, which the
        # compare step reports per-file as a warning — `make bench-compare`
        # must stay runnable end to end, so this is not an error.
        print(
            "WARN  snapshot: no committed BENCH artifacts found — the "
            "compare step will pass with warnings until benchmarks are "
            "generated and committed"
        )
    return 0


def stamp() -> int:
    """Record this machine's calibration next to the results it timed."""
    RESULTS_DIR.mkdir(exist_ok=True)
    calibration = _calibrate()
    (RESULTS_DIR / STAMP_FILE).write_text(
        json.dumps({"seconds": round(calibration, 6)}) + "\n"
    )
    print(f"stamp: {RESULTS_DIR / STAMP_FILE} ({calibration * 1000:.1f} ms)")
    return 0


def _speed_factor(baseline_dir: Path) -> float:
    """``this machine's time / baseline machine's time`` for the
    calibration workload (1.0 when no calibration was snapshotted).
    Clamped to [0.25, 4] so a degenerate measurement cannot hide a real
    regression (or invent one)."""
    path = baseline_dir / STAMP_FILE
    if not path.exists():
        path = baseline_dir / CALIBRATION_FILE
    if not path.exists():
        return 1.0
    base = json.loads(path.read_text()).get("seconds")
    if not base:
        return 1.0
    factor = _calibrate() / base
    return min(4.0, max(0.25, factor))


def compare_file(
    name: str,
    baseline_dir: Path,
    *,
    fail_ratio: float,
    warn_ratio: float,
    min_wall: float,
    speed_factor: float = 1.0,
) -> Tuple[List[str], List[str]]:
    """Returns ``(failures, warnings)`` for one artifact."""
    failures: List[str] = []
    warnings: List[str] = []
    base_path = baseline_dir / name
    fresh_path = RESULTS_DIR / name
    if not base_path.exists():
        warnings.append(f"{name}: no baseline snapshot — skipped")
        return failures, warnings
    if not fresh_path.exists():
        failures.append(f"{name}: fresh results missing (benchmark not run?)")
        return failures, warnings
    base_rows = {
        (section, _row_id(row)): row
        for section, row in _iter_rows(json.loads(base_path.read_text()))
    }
    fresh_rows = {
        (section, _row_id(row)): row
        for section, row in _iter_rows(json.loads(fresh_path.read_text()))
    }
    for key, base in base_rows.items():
        section, row_id = key
        label = f"{name}:{section}:{dict(row_id)}"
        fresh = fresh_rows.get(key)
        if fresh is None:
            failures.append(f"{label}: row disappeared from fresh results")
            continue
        for field, base_value in base.items():
            if field in ID_KEYS or _is_derived_timing_key(field):
                continue
            fresh_value = fresh.get(field)
            if _is_wall_key(field):
                if not isinstance(base_value, (int, float)) or not isinstance(
                    fresh_value, (int, float)
                ):
                    continue  # e.g. null for "infeasible in CI"
                if base_value < min_wall:
                    continue  # noise floor
                ratio = fresh_value / base_value if base_value else float("inf")
                ratio /= speed_factor  # normalise for machine speed
                line = (
                    f"{label}.{field}: {base_value:.4f}s -> {fresh_value:.4f}s "
                    f"({ratio:.2f}x speed-adjusted)"
                )
                if ratio > fail_ratio:
                    failures.append(line)
                elif ratio > warn_ratio:
                    warnings.append(line)
            elif fresh_value != base_value:
                # Counts, values, flags: deterministic — exact match or bust.
                failures.append(
                    f"{label}.{field}: {base_value!r} -> {fresh_value!r} "
                    f"(count-type metrics must match the baseline exactly)"
                )
    added = set(fresh_rows) - set(base_rows)
    for section, row_id in sorted(added, key=repr):
        warnings.append(f"{name}:{section}:{dict(row_id)}: new row (no baseline)")
    return failures, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--snapshot", action="store_true",
        help="copy the current BENCH_*.json into the baseline dir and exit",
    )
    parser.add_argument(
        "--stamp", action="store_true",
        help="record this machine's calibration next to the results "
        "(run after regenerating benchmarks; the stamp is committed)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_BASELINE,
        help=f"baseline directory (default {DEFAULT_BASELINE})",
    )
    parser.add_argument("--fail-ratio", type=float, default=2.0)
    parser.add_argument("--warn-ratio", type=float, default=1.3)
    parser.add_argument(
        "--min-wall", type=float, default=0.05,
        help="ignore wall-time rows whose baseline is below this (seconds)",
    )
    args = parser.parse_args(argv)

    if args.stamp:
        return stamp()
    if args.snapshot:
        return snapshot(args.baseline)

    speed_factor = _speed_factor(args.baseline)
    all_failures: List[str] = []
    all_warnings: List[str] = []
    for name in BENCH_FILES:
        failures, warnings = compare_file(
            name,
            args.baseline,
            fail_ratio=args.fail_ratio,
            warn_ratio=args.warn_ratio,
            min_wall=args.min_wall,
            speed_factor=speed_factor,
        )
        all_failures.extend(failures)
        all_warnings.extend(warnings)

    for line in all_warnings:
        print(f"WARN  {line}")
    for line in all_failures:
        print(f"FAIL  {line}")
    if all_failures:
        print(f"\n{len(all_failures)} perf regression(s) against the baseline")
        return 1
    print(
        f"perf guard OK ({len(all_warnings)} warning(s), "
        f"fail>{args.fail_ratio}x warn>{args.warn_ratio}x "
        f"min-wall {args.min_wall}s, machine speed factor "
        f"{speed_factor:.2f})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

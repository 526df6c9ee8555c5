#!/usr/bin/env python
"""Fingerprint the plans of the benchmark's op lists, to compare two checkouts.

A search optimisation that must not change any plan is checked by solving
the same problems in the old and the new checkout and diffing the values
and edge sets.  This script does both halves:

* ``--out FILE`` solves every period/latency op of the ``solve-mix`` list
  (``perfbench/ops.py``, ``--seed``/``--seconds``) and every shape of the
  ``serve-mix`` list, under each ``--exactness`` tier, and writes one
  record per solve: its value, sorted edge set and method, plus the
  search counters (``expanded``, ``pruned``, ``evaluated``,
  ``duplicates``) for reference.  A fixed-graph op is solved a second
  time with its schedule, and its record adds the schedule's period
  ``lam`` and every operation's begin and end.
  It also replays the ``replan-churn`` list (its setup admissions, then
  every event) under each tier and writes one record per event: the
  sorted mapping, value, moved and forced services, the fallback flag and
  the migration cost.  It prints how many problems the certified and the
  exact tier plan alike;
* ``--compare OLD NEW`` reports every record whose plan differs — a
  solve's value, edge set or schedule, an event's whole record — (exit
  status 1 if any does), how many of those differ in value and how many
  only in their edge set (a tied optimum), and the records whose counters
  moved (informational: a search gate may lower them).  Both files must
  come from this version of the script: an older one records no
  schedules.

Run it from the root of each checkout, for example::

    PYTHONPATH=src python benchmarks/plan_identity.py --out new.json
    (cd ../old && PYTHONPATH=src python benchmarks/plan_identity.py --out old.json)
    python benchmarks/plan_identity.py --compare old.json new.json

``--only het4`` (an op class, ``serve`` or ``replan``) restricts the run.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import ops as opgen  # noqa: E402  (perfbench's seeded op lists)

from repro import ExecutionGraph, dynamic, planner  # noqa: E402
from repro.optimize.placement import clear_placement_memo  # noqa: E402

COUNTERS = ("expanded", "pruned", "evaluated", "duplicates")
#: The fields of a record that make up its plan (compared exactly).
PLAN_FIELDS = ("value", "edges", "lam", "schedule", "mapping", "moved",
               "forced", "fallback", "migration_cost")


def _problems(seed: int, seconds: float, only):
    """``(key, problem, solve kwargs)`` for every op of both lists."""
    het4 = planner.load_platform("het4")
    for i, op in enumerate(opgen.solve_mix(seed, seconds)):
        if only and op["cls"] not in only:
            continue
        workload = planner.load_workload(op["spec"])
        problem = workload.graph if op.get("graph") else workload.application
        kwargs = {"objective": op["objective"], "model": op["model"]}
        if op.get("platform"):
            kwargs["platform"] = het4
        yield f"solve-mix/{i}/{op['cls']}/{op['spec']}/{op['model']}", problem, kwargs
    if only and "serve" not in only:
        return
    data = opgen.serve_mix(seed, seconds)
    shapes = list(dict.fromkeys(
        list(data["hot"])
        + [item["shape"] for stream in data["streams"] for item in stream
           if item["shape"] is not None]
    ))
    for spec in shapes:
        yield f"serve-mix/{spec}", planner.load_workload(spec).application, {}


def _replan_event(raw, groups) -> dynamic.Event:
    """One event of the ``replan-churn`` list, as its runner builds it."""
    if "group" in raw:
        return dynamic.Event(raw["kind"], servers=groups[raw["group"]])
    rho = Fraction(raw["rho"]) if "rho" in raw else None
    return dynamic.Event(raw["kind"], app=raw["app"],
                         workload=raw.get("workload", ""), rho=rho)


def replan_records(seed: int, seconds: float, tier: str):
    """``(key, record)`` for every event of the ``replan-churn`` list,
    replayed from the empty system under the exactness *tier*."""
    data = opgen.replan_churn(seed, seconds)
    platform = planner.load_platform(opgen.REPLAN_PLATFORM)
    groups = [members for _label, members in platform.topology.groups()]
    events = [_replan_event(raw, groups)
              for raw in data["setup"] + data["events"]]
    planner.clear_default_cache()
    clear_placement_memo()
    state = dynamic.initial_state([], platform=platform)
    setup = len(data["setup"])
    for i, event in enumerate(events):
        result = dynamic.replan(state, event, budget=opgen.REPLAN_BUDGET,
                                exactness=tier)
        state = result.state
        if i < setup:
            continue
        yield f"replan-churn/{i - setup}/{event.label()}", {
            "mapping": sorted(map(list, result.mapping.items())),
            "value": str(result.value),
            "moved": sorted(result.moved),
            "forced": sorted(result.forced),
            "fallback": result.fallback,
            "migration_cost": str(result.migration_cost),
        }


def _schedule(operations) -> dict:
    """The period and every operation's ``[label, begin, end]`` of a plan's
    operation list, as strings."""
    return {
        "lam": str(operations.lam),
        "schedule": sorted(
            [repr(op), str(begin), str(end)]
            for op, (begin, end) in operations.items()
        ),
    }


def fingerprint(args) -> None:
    records = {}
    started = time.perf_counter()
    for key, problem, kwargs in _problems(args.seed, args.seconds, args.only):
        for tier in args.exactness:
            planner.clear_default_cache()
            result = planner.solve(
                problem, exactness=tier, schedule=False, **kwargs
            )
            extras = result.stats.extras
            records[f"{key}/{tier}"] = record = {
                "value": str(result.value),
                "edges": sorted(map(list, result.graph.edges)),
                "method": result.method,
                **{k: extras.get(k) for k in COUNTERS},
            }
            if isinstance(problem, ExecutionGraph):
                record.update(_schedule(planner.solve(
                    problem, exactness=tier, **kwargs
                ).plan.operation_list))
    if not args.only or "replan" in args.only:
        for tier in args.exactness:
            for key, record in replan_records(args.seed, args.seconds, tier):
                records[f"{key}/{tier}"] = record
    pathlib.Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    problems = {key.rsplit("/", 1)[0] for key in records}
    agree = [p for p in problems
             if f"{p}/certified" in records and f"{p}/exact" in records
             and _plan(records, f"{p}/certified") == _plan(records, f"{p}/exact")]
    print(f"{len(records)} records in {time.perf_counter() - started:.1f} s "
          f"-> {args.out}; certified plans equal exact on {len(agree)} of "
          f"{len(problems)} problems")


def _plan(records, key):
    return {f: records[key][f] for f in PLAN_FIELDS if f in records[key]}


def compare(old_path: str, new_path: str) -> int:
    old = json.loads(pathlib.Path(old_path).read_text())
    new = json.loads(pathlib.Path(new_path).read_text())
    missing = sorted(set(old) ^ set(new))
    differ = [k for k in sorted(set(old) & set(new)) if _plan(old, k) != _plan(new, k)]
    moved = [k for k in sorted(set(old) & set(new))
             if any(old[k].get(c) != new[k].get(c) for c in COUNTERS)]
    for key in differ:
        print(f"DIFFERS {key}: {_plan(old, key)} -> {_plan(new, key)}")
    for key in missing:
        print(f"MISSING {key}")
    by_value = [k for k in differ if old[k].get("value") != new[k].get("value")]
    edges_only = [k for k in differ
                  if [f for f in PLAN_FIELDS if old[k].get(f) != new[k].get(f)]
                  == ["edges"]]
    totals = {c: [0, 0] for c in COUNTERS}
    for key in moved:
        for c in COUNTERS:
            totals[c][0] += old[key].get(c) or 0
            totals[c][1] += new[key].get(c) or 0
    print(f"{len(old)} old, {len(new)} new records; {len(differ)} differ in "
          f"their plan ({len(by_value)} in value, {len(edges_only)} only in "
          f"edge set), {len(missing)} missing; counters moved on "
          f"{len(moved)}: " + ", ".join(
              f"{c} {a} -> {b}" for c, (a, b) in totals.items()))
    return 1 if differ or missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the fingerprints to this file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--exactness", nargs="+", default=["certified", "exact"])
    parser.add_argument("--only", nargs="*", default=None,
                        help="op classes to keep (solve-mix classes, 'serve' "
                        "or 'replan')")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        parser.error("pass --out FILE or --compare OLD NEW")
    fingerprint(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

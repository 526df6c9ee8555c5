"""Search-performance benchmark: branch and bound + incremental deltas.

Records machine-readable numbers to ``benchmarks/results/BENCH_search.json``
(and a human table to ``search_performance.txt``) so the perf trajectory
is tracked across PRs:

* exact MinPeriod(OVERLAP): objective evaluations and wall time of branch
  and bound versus the forest-enumeration baseline, per instance size,
  on the certified and the exact tier, which run one search: they must
  agree in value, edge set and every counter (n=11 must certify in
  under 10 s);
* the local-search hot path at ``n = 12``: objective evaluations with and
  without incremental delta scoring (the delta path must save at least
  3x), plus the certified two-tier delta against the exact-Fraction one;
* heterogeneous MinPeriod(OVERLAP) on ``het4`` and on two contended
  topologies (a two-rack tree and a 3x3 torus) with a free mapping, where
  every scored forest costs a placement search: value, expanded, pruned,
  duplicates and evaluated of the certified and exact tiers (the
  branch-and-bound rows carry ``bb_duplicates`` too), which the sorted-speed
  placement bound and the term-priced seed cut (so the count guard fails
  a change that loses either);
* fixed-graph INORDER and OUTORDER orchestration on solve-mix's ``orch``
  families (chain, fork-join, layered and random graphs): each shape's
  period and ``minimum_period`` call count, compared exactly, and one
  wall over the whole panel, compared by ratio, which a return of the
  cycle-ratio kernel to ``Fraction`` relaxation fails (~8x slower);
* unit-platform MinPeriod(OVERLAP) instances whose branch and bound still
  expands states (most now close at the root in about a millisecond):
  per-instance counters, compared exactly, and one wall over the panel;
* MinLatency DAG branch and bound (``bb_minlatency``) on unit and pinned
  heterogeneous platforms, n = 4-6: value, edge set and counters per
  instance on the certified and the exact tier, which run one search and
  must agree, and one wall per tier over the panel, which a return of
  the exact tier to ``Fraction`` bounds fails (5-6x slower).
"""

import contextlib
import itertools
import json
import sys
import time
from fractions import Fraction

from repro.analysis import text_table
from repro.core import CommModel, Exactness, Mapping
from repro.cyclic import mcr
from repro.optimize import (
    Effort,
    bb_minlatency,
    bb_minperiod,
    greedy_forest,
    iter_forests,
    local_search_forest,
    make_latency_objective,
    make_period_objective,
)
from repro.optimize.placement import clear_placement_memo
from repro.planner import EvaluationCache, load_platform, load_workload, solve
from repro.workloads.generators import random_application, random_platform

from bench_helpers import RESULTS_DIR, record

F = Fraction

#: Enumerate the baseline only while it stays tractable in CI.
ENUMERATION_MAX = 6


def _forest_count(n):
    """Labelled rooted forests on *n* nodes: ``(n+1)^(n-1)``."""
    return (n + 1) ** (n - 1)


def _bb_solve(app, exactness):
    started = time.perf_counter()
    result = solve(app, method="branch-and-bound", schedule=False,
                   cache=EvaluationCache(), exactness=exactness)
    return time.perf_counter() - started, result


def _outcome(result):
    """Value, edge set and search counters of a branch-and-bound solve."""
    extras = result.stats.extras
    return (result.value, result.graph.edges, extras["expanded"],
            extras["pruned"], extras["duplicates"], extras["evaluated"])


def _bb_row(n, seed, filter_fraction=0.6):
    app = random_application(n, seed=seed, filter_fraction=filter_fraction)
    cert_wall, result = _bb_solve(app, "certified")
    exact_wall, exact_result = _bb_solve(app, "exact")
    # Certified branch and bound is the exact search: same plan, same counts.
    assert _outcome(result) == _outcome(exact_result), n
    row = {
        "n": n,
        "value": str(result.value),
        "bb_wall_s": round(cert_wall, 4),
        "bb_evaluations": result.stats.extras["evaluated"],
        "bb_expanded": result.stats.extras["expanded"],
        "bb_pruned": result.stats.extras["pruned"],
        "bb_duplicates": result.stats.extras["duplicates"],
        "certified": result.stats.extras["certified"],
        "enumeration_size": _forest_count(n),
        "exact_wall_s": round(exact_wall, 4),
    }
    if n <= ENUMERATION_MAX:
        objective = make_period_objective(CommModel.OVERLAP)
        started = time.perf_counter()
        enum_value = min(objective(g) for g in iter_forests(app))
        row["enumeration_wall_s"] = round(time.perf_counter() - started, 4)
        row["enumeration_value"] = str(enum_value)
        assert enum_value == result.value
    else:
        row["enumeration_wall_s"] = None  # infeasible in CI
    return row


#: het4 instances (n = 5 and 6) whose searches the placement bound cuts.
HET4_SPECS = (
    "random:n=5,seed=169611",
    "random:n=5,seed=289067",
    "random:n=6,seed=5994",
    "random:n=6,seed=895452",
)

#: Contended topologies, where the seed's placement searches dominated
#: the solve; the same instances run on each.
CONTENDED_PLATFORMS = ("tree:racks=2,servers=4", "torus:dims=3x3,bw=1/2")


def _het_rows():
    rows = []
    for platform_spec, spec in itertools.product(
        ("het4", *CONTENDED_PLATFORMS), HET4_SPECS
    ):
        platform = load_platform(platform_spec)
        app = load_workload(spec).application
        values = set()
        for mode in ("certified", "exact"):
            walls = []
            for _ in range(3):  # best of three: these solves take ~0.1 s
                clear_placement_memo()  # time each tier's placement searches
                started = time.perf_counter()
                result = solve(app, method="branch-and-bound",
                               platform=platform, schedule=False,
                               cache=EvaluationCache(), exactness=mode)
                walls.append(time.perf_counter() - started)
            wall = min(walls)
            extras = result.stats.extras
            values.add(_outcome(result))
            rows.append({
                "label": spec,
                "platform": platform_spec,
                "mode": mode,
                "n": len(app),
                "value": str(result.value),
                "bb_expanded": extras["expanded"],
                "bb_pruned": extras["pruned"],
                "bb_duplicates": extras["duplicates"],
                "bb_evaluations": extras["evaluated"],
                "certified": extras["certified"],
                "bb_wall_s": round(wall, 4),
            })
        # Certified equals exact: value, edge set and every counter.
        assert len(values) == 1, (platform_spec, spec)
    return rows


def _count_calls(objective):
    calls = {"n": 0}

    def wrapped(graph):
        calls["n"] += 1
        return objective(graph)

    return wrapped, calls


def _local_search_rows(n=12, seeds=(1, 2, 3)):
    rows = []
    for seed in seeds:
        app = random_application(n, seed=seed, filter_fraction=0.7)
        objective = make_period_objective(CommModel.OVERLAP)
        _, seed_graph = greedy_forest(app, objective)

        baseline_obj, baseline_calls = _count_calls(objective)
        started = time.perf_counter()
        base_val, _ = local_search_forest(seed_graph, baseline_obj)
        baseline_wall = time.perf_counter() - started

        # An Objective prices moves on the delta of its tier.
        delta_obj = make_period_objective(CommModel.OVERLAP)
        started = time.perf_counter()
        fast_val, _ = local_search_forest(seed_graph, delta_obj)
        delta_wall = time.perf_counter() - started

        certified = make_period_objective(
            CommModel.OVERLAP, exactness=Exactness.CERTIFIED
        )
        started = time.perf_counter()
        cert_val, _ = local_search_forest(seed_graph, certified)
        certified_wall = time.perf_counter() - started

        assert fast_val == base_val
        assert cert_val == base_val  # certified tier: bit-for-bit trajectory
        rows.append({
            "n": n,
            "seed": seed,
            "value": str(base_val),
            "evaluations_full": baseline_calls["n"],
            "evaluations_delta": delta_obj.evaluations,
            "wall_full_s": round(baseline_wall, 4),
            "wall_delta_s": round(delta_wall, 4),
            "wall_certified_s": round(certified_wall, 4),
        })
    return rows


#: Fixed-graph shapes of solve-mix's ``orch`` families with their models.
#: OUTORDER's repair scheduler takes seconds on some layered and random
#: graphs, so those two families run under INORDER only, as in solve-mix.
ORCH_SHAPES = tuple(
    (spec, model)
    for seed in (1, 2, 3)
    for spec, models in (
        (f"chain:n=6,seed={seed}", ("inorder", "outorder")),
        (f"chain:n=9,seed={seed}", ("inorder", "outorder")),
        (f"forkjoin:branches=3,seed={seed}", ("inorder", "outorder")),
        (f"forkjoin:branches=5,seed={seed}", ("inorder", "outorder")),
        (f"layered:widths=2x3x2,seed={seed}", ("inorder",)),
        (f"layered:widths=3x3x2,seed={seed}", ("inorder",)),
        (f"random:n=6,seed={seed},graph=random,density=0.25", ("inorder",)),
        (f"random:n=7,seed={seed},graph=random,density=0.25", ("inorder",)),
    )
    for model in models
)

#: Passes over :data:`ORCH_SHAPES` in the timed total, which keeps it well
#: above ``compare_bench.py``'s noise floor (one pass takes ~30 ms).
ORCH_PASSES = 10


@contextlib.contextmanager
def _counted_minimum_period():
    """Count ``minimum_period`` calls at every ``repro`` module binding
    the name (the schedulers import it)."""
    original = mcr.minimum_period
    calls = {"n": 0}

    def counted(*args, **kwargs):
        calls["n"] += 1
        return original(*args, **kwargs)

    modules = [
        module for name, module in list(sys.modules.items())
        if name.startswith("repro") and module is not None
        and getattr(module, "minimum_period", None) is original
    ]
    for module in modules:
        module.minimum_period = counted
    try:
        yield calls
    finally:
        for module in modules:
            module.minimum_period = original


def _orchestration_rows():
    """Period and ``minimum_period`` calls of each orchestrated shape (the
    INORDER/OUTORDER schedulers, schedule included), then the wall of
    :data:`ORCH_PASSES` passes over the panel."""
    graphs = [(spec, model, load_workload(spec).graph)
              for spec, model in ORCH_SHAPES]
    rows = []
    with _counted_minimum_period() as calls:
        for spec, model, graph in graphs:
            calls["n"] = 0
            result = solve(graph, model=model, cache=EvaluationCache())
            assert result.plan.is_valid(), (spec, model)
            rows.append({"label": spec, "mode": model,
                         "period": str(result.value), "mcr_calls": calls["n"]})
    started = time.perf_counter()
    for _ in range(ORCH_PASSES):
        for _spec, model, graph in graphs:
            solve(graph, model=model, cache=EvaluationCache())
    rows.append({"label": "all shapes", "shapes": len(graphs),
                 "passes": ORCH_PASSES,
                 "wall_s": round(time.perf_counter() - started, 4)})
    return rows


#: ``random_application(n, seed, filter_fraction=0.6)`` instances whose
#: unit-platform branch and bound expands states (one path each).
UNIT_EXPANDING = ((9, 2), (9, 32), (9, 40), (9, 53), (10, 2), (10, 16),
                  (10, 32), (10, 40), (11, 2), (11, 11), (11, 16), (11, 32))

#: Passes over :data:`UNIT_EXPANDING` in its timed total (one takes ~60 ms).
UNIT_PASSES = 8


def _unit_rows():
    """Counters of each :data:`UNIT_EXPANDING` search, then the wall of
    :data:`UNIT_PASSES` passes over them."""
    apps = [(n, seed, random_application(n, seed=seed, filter_fraction=0.6))
            for n, seed in UNIT_EXPANDING]

    def search(app):
        return bb_minperiod(app, make_period_objective(CommModel.OVERLAP))

    rows = []
    for n, seed, app in apps:
        value, _, stats = search(app)
        assert stats.expanded, (n, seed)
        rows.append({"n": n, "seed": seed, "value": str(value),
                     "expanded": stats.expanded, "pruned": stats.pruned,
                     "duplicates": stats.duplicates,
                     "evaluated": stats.evaluated})
    started = time.perf_counter()
    for _ in range(UNIT_PASSES):
        for _n, _seed, app in apps:
            search(app)
    rows.append({"label": "all instances", "instances": len(apps),
                 "passes": UNIT_PASSES,
                 "wall_s": round(time.perf_counter() - started, 4)})
    return rows


def _latency_panel():
    """``(label, platform name, model/effort, app, objective args)`` of the
    MinLatency panel: ``random_application(n, seed, filter_fraction=0.5)``
    at n = 4-5 under OVERLAP and INORDER at the bound effort, on a pinned
    heterogeneous platform (``random_platform(n + 1, seed)``, positional
    mapping), and four n = 6 instances."""
    panel = []
    for n, seed in itertools.product((4, 5), range(1, 9)):
        app = random_application(n, seed=seed, filter_fraction=0.5)
        for model in (CommModel.OVERLAP, CommModel.INORDER):
            panel.append((f"random:n={n},seed={seed}", "unit",
                          f"{model.value}/bound", app, (model, None, None)))
    for n, seed in itertools.product((4, 5), range(1, 5)):
        app = random_application(n, seed=seed, filter_fraction=0.5)
        platform = random_platform(n + 1, seed=seed)
        mapping = Mapping(dict(zip(app.names, platform.names)))
        panel.append((f"random:n={n},seed={seed}", f"random:{n + 1}",
                      "overlap/bound", app,
                      (CommModel.OVERLAP, platform, mapping)))
    for seed in (2, 3, 4, 7):
        app = random_application(6, seed=seed, filter_fraction=0.5)
        panel.append((f"random:n=6,seed={seed}", "unit", "overlap/bound", app,
                      (CommModel.OVERLAP, None, None)))
    return panel


def _latency_rows():
    """Value, edges and counters of each panel search per tier (certified
    must equal exact), then each tier's best-of-three panel wall."""
    panel = _latency_panel()
    rows, walls, outcomes = [], [], {}
    for mode in ("certified", "exact"):
        best = float("inf")
        for rep in range(3):
            started = time.perf_counter()
            for label, platform_name, name, app, (model, platform, mapping) \
                    in panel:
                objective = make_latency_objective(
                    model, Effort.BOUND, platform, mapping, exactness=mode
                )
                value, graph, stats = bb_minlatency(app, objective)
                if rep:
                    continue
                row = {
                    "label": label, "platform": platform_name, "name": name,
                    "mode": mode, "value": str(value),
                    "edges": " ".join(f"{a}>{b}" for a, b in sorted(graph.edges)),
                    "expanded": stats.expanded, "pruned": stats.pruned,
                    "duplicates": stats.duplicates,
                    "evaluated": stats.evaluated,
                }
                rows.append(row)
                outcome = {k: v for k, v in row.items() if k != "mode"}
                # Certified branch and bound is the exact search.
                assert outcomes.setdefault(
                    (label, platform_name, name), outcome
                ) == outcome, row
            best = min(best, time.perf_counter() - started)
        walls.append({"label": "all instances", "mode": mode,
                      "instances": len(panel), "wall_s": round(best, 4)})
    return rows + walls


def test_search_performance(benchmark):
    def run():
        # Seeds chosen, under the static floors, so the bound did real
        # work; the no-communication chain bound now closes each of them at
        # the root, which the counts pin.
        bb_rows = [
            _bb_row(n, seed)
            for n, seed in [(5, 0), (6, 2), (7, 6), (8, 2), (9, 4),
                            (10, 4), (11, 4)]
        ]
        ls_rows = _local_search_rows()
        return (bb_rows, ls_rows, _het_rows(), _orchestration_rows(),
                _unit_rows(), _latency_rows())

    bb_rows, ls_rows, het_rows, orch_rows, unit_rows, latency_rows = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    # --- assertions: the shape the ISSUE promises -----------------------
    for row in bb_rows:
        assert row["certified"], row
        # Pruned exact search pays far fewer evaluations than enumeration.
        assert row["bb_evaluations"] * 10 < row["enumeration_size"], row
    # Every row asserted certified == exact (value, edges, counters) as it
    # was built.  n=11 certifies the optimum in under 10 s where
    # enumeration would score ~ 6e10 forests.
    n11 = next(r for r in bb_rows if r["n"] == 11)
    assert n11["bb_wall_s"] < 10.0, n11
    for row in ls_rows:
        # Incremental deltas: >= 3x fewer objective evaluations.  The
        # delta path only re-scores through the objective zero times here,
        # so guard the denominator.
        assert row["evaluations_full"] >= 3 * max(row["evaluations_delta"], 1)

    for row in het_rows:
        assert row["certified"], row

    payload = {
        "branch_and_bound": bb_rows,
        "local_search_incremental": ls_rows,
        "het_branch_and_bound": het_rows,
        "orchestration": orch_rows,
        "unit_branch_and_bound": unit_rows,
        "latency_branch_and_bound": latency_rows,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_search.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    table = text_table(
        ["n", "bb value", "bb evals", "expanded", "pruned",
         "certified s", "exact s", "enum size", "enum s"],
        [
            [r["n"], r["value"], r["bb_evaluations"], r["bb_expanded"],
             r["bb_pruned"], r["bb_wall_s"], r["exact_wall_s"],
             r["enumeration_size"],
             r["enumeration_wall_s"] if r["enumeration_wall_s"] is not None
             else "infeasible"]
            for r in bb_rows
        ],
    )
    ls_table = text_table(
        ["n", "seed", "value", "evals (full)", "evals (delta)",
         "full s", "delta s", "certified s"],
        [
            [r["n"], r["seed"], r["value"], r["evaluations_full"],
             r["evaluations_delta"], r["wall_full_s"], r["wall_delta_s"],
             r["wall_certified_s"]]
            for r in ls_rows
        ],
    )
    het_table = text_table(
        ["platform", "instance", "tier", "value", "expanded", "pruned",
         "evals", "wall s"],
        [
            [r["platform"], r["label"], r["mode"], r["value"], r["bb_expanded"],
             r["bb_pruned"], r["bb_evaluations"], r["bb_wall_s"]]
            for r in het_rows
        ],
    )
    *shapes, total = orch_rows
    orch_table = text_table(
        ["instance", "model", "period", "minimum_period calls"],
        [[r["label"], r["mode"], r["period"], r["mcr_calls"]] for r in shapes],
    )
    *unit_instances, unit_total = unit_rows
    unit_table = text_table(
        ["n", "seed", "value", "expanded", "pruned", "evals"],
        [[r["n"], r["seed"], r["value"], r["expanded"], r["pruned"],
          r["evaluated"]] for r in unit_instances],
    )
    latency_walls = {r["mode"]: r["wall_s"] for r in latency_rows
                     if r["label"] == "all instances"}
    latency_table = text_table(
        ["instance", "platform", "model", "value", "expanded", "pruned",
         "dups", "evals"],
        [[r["label"], r["platform"], r["name"], r["value"], r["expanded"],
          r["pruned"], r["duplicates"], r["evaluated"]]
         for r in latency_rows
         if r["label"] != "all instances" and r["mode"] == "certified"],
    )
    record(
        "search_performance",
        "exact MinPeriod(OVERLAP): branch and bound on the certified and "
        "exact tiers vs forest enumeration\n"
        + table
        + "\n\nlocal search at n=12: full evaluation vs incremental deltas "
        "(exact and certified tiers)\n"
        + ls_table
        + "\n\nMinPeriod(OVERLAP) on het4 and contended topologies with a "
        "free mapping: branch and bound with the sorted-speed placement "
        "bound\n"
        + het_table
        + "\n\nfixed-graph INORDER/OUTORDER orchestration (schedule "
        f"included): {total['shapes']} shapes x {total['passes']} passes in "
        f"{total['wall_s']} s\n"
        + orch_table
        + "\n\nunit-platform MinPeriod(OVERLAP) branch and bound that still "
        f"expands: {unit_total['instances']} instances x "
        f"{unit_total['passes']} passes in {unit_total['wall_s']} s\n"
        + unit_table
        + "\n\nMinLatency DAG branch and bound (bound effort; certified = "
        f"exact, counters below): panel wall certified "
        f"{latency_walls['certified']} s, exact {latency_walls['exact']} s\n"
        + latency_table,
    )

"""``python -m repro`` — command-line front end to the planner facade.

Subcommands
-----------
``solve``       Solve one workload for one objective/model/method.
``profile``     cProfile one solve and print the top cumulative hot spots
                (evidence for performance work).
``compare``     Solve a workload over a grid of objectives × models × methods.
``batch``       Solve many workloads at once, sharded over worker processes.
``concurrent``  Map several applications (``+``-separated workload specs)
                onto one shared platform — services may share servers.
``gallery``     Batch-solve the paper's named instances and report achieved
                versus expected values.
``serve``       Run the long-lived planner daemon (JSON-lines over
                stdin/stdout and optionally TCP) with request coalescing,
                micro-batching and a warm evaluation cache.
``replay``      Play a scenario trace (flash crowd, diurnal load, rolling
                maintenance, or a CSV) through warm-started re-planning
                and compare against the cold re-solve baseline.
``calibrate``   Fit service costs, selectivities, server speeds and link
                bandwidths from measured traces (a CSV of comp/comm
                records, or seeded synthetic traces of a workload) and
                print the fitted parameters with uncertainty intervals.
``list``        Show the known workload specs and registered solvers.

Examples::

    python -m repro solve fig1 --objective period --model inorder
    python -m repro solve fig1 --platform het4
    python -m repro solve noisy:n=6,seed=4 --robust worst_case:eps=1/10,k=12
    python -m repro calibrate fig1 --datasets 6 --noise 1/20
    python -m repro calibrate --trace measured.csv --json
    python -m repro solve random:n=9,seed=4 --exactness exact   # no fast path
    python -m repro profile random:n=6,seed=1 --platform het4 --method branch-and-bound
    python -m repro solve random:n=6,seed=3 --method local-search
    python -m repro compare fig1 --objectives period,latency
    python -m repro batch fig1 b1 random:n=9,seed=1 --processes 4
    python -m repro concurrent fig1+fig1 --platform hom:n=3
    python -m repro concurrent fig1+random:n=4,seed=1 --platform het4 \\
        --targets 16,8
    python -m repro gallery --platform --json
    python -m repro serve --workers 2 --tcp 127.0.0.1:0
    python -m repro replay flash:n=20,seed=7 --platform hom:n=4 --budget 2
    python -m repro replay maint:dwell=10 --platform tree:racks=2,servers=2
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .core import ALL_MODELS
from .analysis.reporting import format_value, text_table
from .planner import (
    PlanResult,
    Workload,
    load_concurrent_workload,
    load_platform,
    load_workload,
    platform_names,
    registry,
    solve,
    solve_concurrent,
    solve_many,
    workload_names,
)


def _split(text: str, *, all_values: Sequence[str]) -> List[str]:
    """Parse a comma list, expanding the ``all`` shorthand."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if items == ["all"]:
        return list(all_values)
    return items


def _result_row(result: PlanResult) -> list:
    scheduled = result.scheduled_value
    return [
        result.objective,
        str(result.model),
        result.method,
        result.platform_label,
        result.value,
        scheduled if scheduled is not None else "-",
        ("yes" if result.plan.is_valid() else "NO")
        if result.plan is not None
        else "-",
        result.stats.evaluations,
        result.stats.cache_hits,
        f"{result.stats.wall_time * 1000:.1f}",
    ]


_HEADERS = [
    "objective", "model", "method", "platform", "value", "scheduled", "valid",
    "evals", "hits", "ms",
]


def _emit(results: List[PlanResult], workload: Workload, as_json: bool) -> None:
    if as_json:
        payload = {
            "workload": workload.name,
            "results": [r.as_dict() for r in results],
        }
        if workload.expected:
            payload["expected"] = {k: str(v) for k, v in workload.expected.items()}
        print(json.dumps(payload, indent=2))
        return
    print(f"workload: {workload.name} — {workload.description}")
    if workload.expected:
        expected = ", ".join(
            f"{k}={format_value(v)}" for k, v in sorted(workload.expected.items())
        )
        print(f"expected (paper): {expected}")
    print()
    print(text_table(_HEADERS, [_result_row(r) for r in results]))


def _problem(workload: Workload, remap: bool):
    if remap or workload.graph is None:
        return workload.application
    return workload.graph


def _platform_args(workload: Workload, spec):
    """Resolve (platform, mapping) for a solve.

    An explicit ``--platform`` spec wins (and drops the workload's pinned
    mapping, which only makes sense on its bundled platform); otherwise the
    workload's bundled platform/mapping apply.
    """
    if spec:
        return load_platform(spec), None
    return workload.platform, workload.mapping


def cmd_solve(args: argparse.Namespace) -> int:
    workload = load_workload(args.workload)
    platform, mapping = _platform_args(workload, args.platform)
    results = [
        solve(
            _problem(workload, args.remap),
            objective=objective,
            model=model,
            method=args.method,
            effort=args.effort,
            schedule=not args.no_schedule,
            platform=platform,
            mapping=mapping,
            exactness=args.exactness,
            deadline=args.deadline,
            robust=args.robust,
        )
        for objective in _split(args.objective, all_values=["period", "latency"])
        for model in _split(args.model, all_values=[m.value for m in ALL_MODELS])
    ]
    _emit(results, workload, args.json)
    if args.robust and not args.json:
        for result in results:
            extras = result.stats.extras.get("robust", {})
            print(
                f"\nrobust [{result.objective}/{result.model}]: "
                f"{extras.get('spec')} — {extras.get('candidates')} candidate "
                f"plan(s), winner {'is' if extras.get('winner_is_nominal') else 'is NOT'} "
                f"the nominal optimum (nominal plan scores "
                f"{extras.get('nominal_plan_score')})"
            )
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    batch = solve_many(
        args.workloads,
        objective=args.objective,
        model=args.model,
        method=args.method,
        effort=args.effort,
        schedule=not args.no_schedule,
        platform=load_platform(args.platform) if args.platform else None,
        processes=args.processes,
        exactness=args.exactness,
        deadline=args.deadline,
    )
    if args.json:
        print(json.dumps(batch.as_dict(), indent=2))
        return 0
    rows = [
        [spec, *_result_row(r)]
        for spec, r in zip(args.workloads, batch.results)
    ]
    print(text_table(["workload", *_HEADERS], rows))
    stats = batch.stats
    print(
        f"\n{len(batch.results)} workloads over {batch.shards} shard(s) "
        f"({batch.processes} process(es)): {stats.evaluations} evaluations, "
        f"{stats.cache_hits} cache hits, {stats.wall_time:.2f} s"
    )
    return 0


def _parse_targets(text, names):
    """``--targets``: ``a0-fig1=16,a1-fig1=8`` or positional ``16,8``."""
    if not text:
        return None
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError(f"--targets {text!r} contains no values")
    if all("=" in t for t in items):
        targets = {}
        for item in items:
            key, value = item.split("=", 1)
            targets[key.strip()] = value.strip()
        return targets
    if any("=" in t for t in items):
        raise ValueError(
            "mixed --targets syntax: use either name=value pairs or one "
            "positional value per application"
        )
    if len(items) != len(names):
        raise ValueError(
            f"--targets lists {len(items)} value(s) for {len(names)} "
            f"application(s); expected one per application (in order: "
            f"{', '.join(names)})"
        )
    return dict(zip(names, items))


def cmd_concurrent(args: argparse.Namespace) -> int:
    workload = load_concurrent_workload(args.workload)
    result = solve_concurrent(
        workload.multi,
        platform=load_platform(args.platform),
        model=args.model,
        targets=_parse_targets(args.targets, list(workload.multi.names)),
        exactness=args.exactness,
    )
    if args.json:
        print(json.dumps(
            {"workload": workload.name, "result": result.as_dict()}, indent=2
        ))
        return 0
    print(f"workload: {workload.name} — {workload.description}")
    print(result.summary())
    print()
    rows = [
        [
            name,
            len(result.multi[name].graph.nodes),
            result.app_periods[name],
            result.app_latencies[name],
            result.multi[name].period_target or "-",
        ]
        for name in result.multi.names
    ]
    print(text_table(
        ["application", "services", "period", "latency", "target"], rows
    ))
    print()
    loads = ", ".join(
        f"{u}={format_value(v)}" for u, v in sorted(result.server_loads.items())
    )
    print(f"server loads: {loads}")
    shared = [
        f"{u}:[{','.join(result.mapping.services_on(u))}]"
        for u in result.mapping.used_servers()
        if len(result.mapping.services_on(u)) > 1
    ]
    if shared:
        print(f"shared servers: {'  '.join(shared)}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """cProfile one solve; print the top cumulative hot spots.

    Caches are cleared first so the profile reflects cold work, not memo
    lookups — the evidence future performance PRs should start from.
    """
    import cProfile
    import pstats

    from .planner import clear_default_cache

    workload = load_workload(args.workload)
    platform, mapping = _platform_args(workload, args.platform)
    problem = _problem(workload, args.remap)
    clear_default_cache()
    profiler = cProfile.Profile()
    profiler.enable()
    result = solve(
        problem,
        objective=args.objective,
        model=args.model,
        method=args.method,
        effort=args.effort,
        schedule=not args.no_schedule,
        platform=platform,
        mapping=mapping,
        exactness=args.exactness,
    )
    profiler.disable()
    print(
        f"workload: {workload.name} — {args.objective}/{args.model} via "
        f"{result.method}: value {format_value(result.value)} in "
        f"{result.stats.wall_time * 1000:.1f} ms "
        f"({result.stats.evaluations} evaluations)"
    )
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


#: Methods applicable to a fixed execution graph (orchestration).
_GRAPH_METHODS = ["auto", "exhaustive", "heuristic", "bound"]


def cmd_compare(args: argparse.Namespace) -> int:
    workload = load_workload(args.workload)
    problem = _problem(workload, args.remap)
    platform, mapping = _platform_args(workload, args.platform)
    # "all" must expand to methods the problem shape actually accepts:
    # solver names for applications, orchestration efforts for graphs.
    all_methods = _GRAPH_METHODS if problem is workload.graph \
        else list(registry.names())
    results = [
        solve(
            problem,
            objective=objective,
            model=model,
            method=method,
            schedule=not args.no_schedule,
            platform=platform,
            mapping=mapping,
            exactness=args.exactness,
        )
        for objective in _split(args.objectives, all_values=["period", "latency"])
        for model in _split(args.models, all_values=[m.value for m in ALL_MODELS])
        for method in _split(args.methods, all_values=all_methods)
    ]
    _emit(results, workload, args.json)
    return 0


#: What the gallery solves per instance: (objective, models) — restricted
#: to what each appendix instance is about (and what stays fast at n=202).
_GALLERY = [
    ("fig1", [("period", ["overlap", "inorder", "outorder"]), ("latency", ["overlap"])]),
    ("b1", [("period", ["overlap"])]),
    ("b2", [("latency", ["overlap"])]),
    ("b3", [("period", ["overlap"])]),
]

#: The heterogeneous wing (``gallery --platform``): the paper instances on
#: their alternating-speed variants plus the platform-dependent-optimum
#: demo, each bundling its own platform (and pinned mapping when large).
_GALLERY_HET = [
    ("hetdemo", [("period", ["overlap"])]),
    ("b1het", [("period", ["overlap"])]),
    ("b2het", [("latency", ["overlap"])]),
    ("b3het", [("period", ["overlap"])]),
]


def cmd_gallery(args: argparse.Namespace) -> int:
    payload = []
    gallery = _GALLERY + (_GALLERY_HET if args.platform else [])
    for spec, runs in gallery:
        workload = load_workload(spec)
        results: List[PlanResult] = []
        for objective, models in runs:
            for model in models:
                results.append(
                    solve(
                        workload.problem,
                        objective=objective,
                        model=model,
                        platform=workload.platform,
                        mapping=workload.mapping,
                    )
                )
        if args.json:
            payload.append(
                {
                    "workload": workload.name,
                    "description": workload.description,
                    "expected": {k: str(v) for k, v in workload.expected.items()},
                    "results": [r.as_dict(include_graph=False) for r in results],
                }
            )
        else:
            _emit(results, workload, as_json=False)
            print()
    if args.json:
        print(json.dumps(payload, indent=2))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the planner daemon until EOF or a ``shutdown`` request."""
    import asyncio

    from .serve import ServeConfig, serve_forever

    if args.no_stdio and not args.tcp:
        raise ValueError("--no-stdio needs --tcp (no transport left)")
    config = ServeConfig(
        workers=args.workers,
        batch_window=args.batch_window,
        max_batch=args.max_batch,
        result_entries=args.result_entries,
        result_ttl=args.result_ttl,
    )
    asyncio.run(
        serve_forever(config, stdio=not args.no_stdio, tcp=args.tcp)
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Replay a scenario trace through warm-started re-planning."""
    from .dynamic import load_trace, replay
    from .planner.facade import _coerce_model

    platform = load_platform(args.platform)
    trace = load_trace(args.trace, platform)
    if args.save_csv:
        trace.save_csv(args.save_csv)
    report = replay(
        trace,
        platform,
        budget=args.budget,
        model=_coerce_model(args.model),
        exactness=args.exactness,
        compare_cold=not args.no_cold,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
        return 0
    print(report.summary_table())
    print()
    for key, value in report.aggregates().items():
        print(f"  {key}: {value}")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Fit cost-model parameters from measured or synthetic traces."""
    import json as _json

    from .calibrate import CalibrationTrace, fit_trace, synthetic_records
    from .core import Mapping as _Mapping, as_fraction

    traces = [CalibrationTrace.load_csv(path) for path in args.trace]
    trace = CalibrationTrace()
    for t in traces:
        trace = trace + t

    if args.workload:
        workload = load_workload(args.workload)
        platform, mapping = _platform_args(workload, args.platform)
        graph = workload.graph
        if graph is None:
            graph = solve(
                workload.application, platform=platform, mapping=mapping,
                schedule=False,
            ).graph
        noise = as_fraction(args.noise)
        if platform is None:
            trace = trace + CalibrationTrace(synthetic_records(
                graph, n_datasets=args.datasets, noise=noise, seed=args.seed,
            ))
        else:
            # Several rotated mappings observe each service on several
            # servers — that is what breaks the cost/speed gauge.
            names = list(workload.application.names)
            servers = sorted(s.name for s in platform.servers)
            if mapping is None:
                mapping = _Mapping.default(names, platform)
            base = {name: mapping.server(name) for name in names}
            for rotation in range(max(1, args.mappings)):
                if rotation == 0:
                    assignment = base
                else:
                    assignment = {
                        name: servers[
                            (servers.index(base[name]) + rotation) % len(servers)
                        ]
                        for name in names
                    }
                trace = trace + CalibrationTrace(synthetic_records(
                    graph, platform, _Mapping(assignment),
                    n_datasets=args.datasets, noise=noise,
                    seed=args.seed + rotation, start=rotation * args.datasets,
                ))
    if not trace.records:
        raise ValueError(
            "nothing to fit: give a workload spec and/or at least one "
            "--trace CSV"
        )

    fit = fit_trace(trace, estimator=args.estimator)
    payload = fit.as_dict()
    if args.out:
        with open(args.out, "w") as handle:
            _json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.json:
        print(_json.dumps(payload, indent=2))
    else:
        print(fit.report())
        if args.out:
            print(f"\nfitted parameters written to {args.out}")
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    print("workloads (named instances take no options; families take key=value):")
    for name in workload_names():
        print(f"  {name}")
    print("\nplatforms (--platform; named or family:key=value):")
    for name in platform_names():
        print(f"  {name}")
    print("\nsolvers (for applications / --remap):")
    for spec in sorted(registry, key=lambda s: s.name):
        print(f"  {spec.name:<14} {spec.description}")
    print("\norchestration methods (fixed graphs): auto, exhaustive, heuristic, bound")
    print(
        "\nconcurrent workloads: '+'-join workload specs (fig1+fig1, "
        "fig1+random:n=4,seed=1) for the `concurrent` subcommand"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Mapping filtering streaming applications with communication "
            "costs (SPAA 2009) — planner CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("workload", help="workload spec, e.g. fig1 or random:n=6,seed=3")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument(
            "--remap",
            action="store_true",
            help="search over execution graphs even when the workload fixes one",
        )
        p.add_argument(
            "--no-schedule",
            action="store_true",
            help="skip building the concrete operation list",
        )
        p.add_argument(
            "--platform",
            default=None,
            help="platform spec, e.g. het4, demo2, hom:n=8 or het:n=6,seed=1 "
            "(default: the workload's bundled platform, if any)",
        )
        p.add_argument(
            "--exactness",
            default=None,
            choices=["exact", "certified", "fast"],
            help="numeric tier: certified (default — float fast path, "
            "bit-for-bit exact results), exact (Fractions everywhere), or "
            "fast (float tier, uncertified values)",
        )

    p_solve = sub.add_parser("solve", help="solve one workload")
    add_common(p_solve)
    p_solve.add_argument("--objective", default="period", help="period, latency, a comma list, or all")
    p_solve.add_argument("--model", default="overlap", help="overlap, inorder, outorder, a comma list, or all")
    p_solve.add_argument("--method", default="auto", help="solver name or auto")
    p_solve.add_argument("--effort", default=None, help="bound, heuristic, or exact")
    p_solve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="anytime wall-clock budget: race the solver portfolio and "
        "return the best certified plan found in time",
    )
    p_solve.add_argument(
        "--robust", default=None, metavar="SPEC",
        help="plan under parameter uncertainty: a robust spec such as "
        "worst_case:eps=1/10,k=12, expected:eps=1/20, or "
        "quantile:q=9/10,eps=1/10,seed=3 (eps sets cost and selectivity "
        "intervals; also cost=, sel=, speed=, bw=, k=, seed=)",
    )
    p_solve.set_defaults(fn=cmd_solve)

    p_prof = sub.add_parser(
        "profile", help="cProfile one solve; print the top hot spots"
    )
    add_common(p_prof)
    p_prof.add_argument("--objective", default="period", help="period or latency")
    p_prof.add_argument("--model", default="overlap", help="overlap, inorder or outorder")
    p_prof.add_argument("--method", default="auto", help="solver name or auto")
    p_prof.add_argument("--effort", default=None, help="bound, heuristic, or exact")
    p_prof.add_argument(
        "--top", type=int, default=20,
        help="how many rows of the profile to print (default 20)",
    )
    p_prof.add_argument(
        "--sort", default="cumulative",
        help="pstats sort key (cumulative, tottime, calls, ...)",
    )
    p_prof.set_defaults(fn=cmd_profile)

    p_batch = sub.add_parser(
        "batch", help="solve many workloads, sharded over worker processes"
    )
    p_batch.add_argument(
        "workloads", nargs="+",
        help="workload specs, e.g. fig1 b1 random:n=9,seed=3",
    )
    p_batch.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_batch.add_argument("--objective", default="period", help="period or latency")
    p_batch.add_argument("--model", default="overlap", help="overlap, inorder or outorder")
    p_batch.add_argument("--method", default="auto", help="solver name or auto")
    p_batch.add_argument("--effort", default=None, help="bound, heuristic, or exact")
    p_batch.add_argument(
        "--no-schedule", action="store_true",
        help="skip building the concrete operation lists",
    )
    p_batch.add_argument(
        "--platform", default=None,
        help="platform spec applied to every workload "
        "(default: each workload's bundled platform, if any)",
    )
    p_batch.add_argument(
        "--processes", type=int, default=None,
        help="worker processes (default: min(cpu count, #workloads); 1 = serial)",
    )
    p_batch.add_argument(
        "--exactness", default=None,
        choices=["exact", "certified", "fast"],
        help="numeric tier (default: certified)",
    )
    p_batch.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-workload anytime budget (portfolio racing; see solve)",
    )
    p_batch.set_defaults(fn=cmd_batch)

    p_con = sub.add_parser(
        "concurrent",
        help="map several applications onto one shared-server platform",
    )
    p_con.add_argument(
        "workload",
        help="'+'-separated workload specs, e.g. fig1+fig1 or "
        "fig1+random:n=4,seed=1",
    )
    p_con.add_argument(
        "--platform", required=True,
        help="platform spec the applications compete for, e.g. hom:n=3 "
        "or het:n=4,seed=1 (may have fewer servers than services)",
    )
    p_con.add_argument(
        "--model", default="overlap",
        help="overlap (exact aggregated bound), inorder or outorder",
    )
    p_con.add_argument(
        "--targets", default=None,
        help="per-application period targets: name=value pairs or one "
        "value per application in order, e.g. 16,8 — switches the "
        "objective to max per-server utilisation",
    )
    p_con.add_argument(
        "--exactness", default=None,
        choices=["exact", "certified", "fast"],
        help="numeric tier of the placement search (default: certified)",
    )
    p_con.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_con.set_defaults(fn=cmd_concurrent)

    p_cmp = sub.add_parser("compare", help="grid of objectives x models x methods")
    add_common(p_cmp)
    p_cmp.add_argument("--objectives", default="period", help="comma list or all")
    p_cmp.add_argument("--models", default="all", help="comma list or all")
    p_cmp.add_argument("--methods", default="auto", help="comma list or all")
    p_cmp.set_defaults(fn=cmd_compare)

    p_gal = sub.add_parser("gallery", help="batch-solve the paper's named instances")
    p_gal.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_gal.add_argument(
        "--platform",
        action="store_true",
        help="also solve the heterogeneous variants (b1het/b2het/b3het, hetdemo)",
    )
    p_gal.set_defaults(fn=cmd_gallery)

    p_srv = sub.add_parser(
        "serve",
        help="run the planner daemon (JSON-lines over stdio and/or TCP)",
    )
    p_srv.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="also listen on TCP (port 0 picks a free port; the bound "
        "address is announced on stderr)",
    )
    p_srv.add_argument(
        "--no-stdio", action="store_true",
        help="do not serve stdin/stdout (requires --tcp)",
    )
    p_srv.add_argument(
        "--workers", type=int, default=0,
        help="worker processes for sharding micro-batches (default 0: "
        "solve in-process against the shared warm cache, each cold solve "
        "starting on arrival)",
    )
    p_srv.add_argument(
        "--batch-window", type=float, default=0.005, metavar="SECONDS",
        help="with --workers N: how long a request waits for batch "
        "company (default 0.005)",
    )
    p_srv.add_argument(
        "--max-batch", type=int, default=16,
        help="with --workers N: flush a batch group at this many "
        "requests (default 16)",
    )
    p_srv.add_argument(
        "--result-entries", type=int, default=4096,
        help="finished-solve result-cache capacity (default 4096)",
    )
    p_srv.add_argument(
        "--result-ttl", type=float, default=None, metavar="SECONDS",
        help="result-cache entry lifetime (default: no expiry)",
    )
    p_srv.set_defaults(fn=cmd_serve)

    p_rep = sub.add_parser(
        "replay",
        help="replay a scenario trace through warm-started re-planning",
    )
    p_rep.add_argument(
        "trace",
        help="trace spec: a generator family (flash:n=50,seed=7, "
        "diurnal:apps=3,cycles=1, maint:dwell=10,gap=5) or a CSV file "
        "(@path or anything ending in .csv)",
    )
    p_rep.add_argument(
        "--platform", required=True,
        help="platform spec the events play out on, e.g. hom:n=4 or "
        "tree:racks=2,servers=2,up_bw=1/2 (maint traces need a "
        "topology with more than one group)",
    )
    p_rep.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="max voluntary migrations per event (default: unlimited; "
        "forced evacuations and admissions are always free)",
    )
    p_rep.add_argument(
        "--model", default="overlap",
        help="overlap (exact aggregated bound), inorder or outorder",
    )
    p_rep.add_argument(
        "--exactness", default=None,
        choices=["exact", "certified", "fast"],
        help="numeric tier of the placement search (default: certified)",
    )
    p_rep.add_argument(
        "--no-cold", action="store_true",
        help="skip the per-event cold re-solve baseline (faster; the "
        "period/move ratios become unavailable)",
    )
    p_rep.add_argument(
        "--save-csv", default=None, metavar="PATH",
        help="also write the (possibly generated) trace to a CSV file",
    )
    p_rep.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_rep.set_defaults(fn=cmd_replay)

    p_cal = sub.add_parser(
        "calibrate",
        help="fit costs/selectivities/speeds/bandwidths from traces",
    )
    p_cal.add_argument(
        "workload", nargs="?", default=None,
        help="workload spec to generate synthetic traces for (optional "
        "when --trace supplies measured records)",
    )
    p_cal.add_argument(
        "--trace", action="append", default=[], metavar="CSV",
        help="measured trace CSV (columns: time,dataset,kind,service,"
        "server,src,dst,src_server,dst_server,size,duration); repeatable "
        "— traces concatenate",
    )
    p_cal.add_argument(
        "--platform", default=None,
        help="platform spec the synthetic traces run on (default: the "
        "workload's bundled platform, if any)",
    )
    p_cal.add_argument(
        "--datasets", type=int, default=4,
        help="datasets per synthetic trace (default 4)",
    )
    p_cal.add_argument(
        "--noise", default="0", metavar="FRACTION",
        help="relative measurement noise on synthetic durations, e.g. "
        "1/20 (default 0: fits recover the true parameters exactly)",
    )
    p_cal.add_argument(
        "--mappings", type=int, default=2,
        help="rotated service-to-server mappings to synthesise on a "
        "platform — several mappings break the cost/speed gauge "
        "(default 2)",
    )
    p_cal.add_argument(
        "--seed", type=int, default=0, help="noise seed (default 0)",
    )
    p_cal.add_argument(
        "--estimator", default="median", choices=["median", "mean"],
        help="point estimator for fitted parameters (default median)",
    )
    p_cal.add_argument(
        "--out", default=None, metavar="PATH",
        help="also write the fitted parameters as JSON to this file",
    )
    p_cal.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_cal.set_defaults(fn=cmd_calibrate)

    p_list = sub.add_parser("list", help="show workloads and registered solvers")
    p_list.set_defaults(fn=cmd_list)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0  # output piped into a pager/head that exited early
    except ZeroDivisionError:
        print(
            "error: zero denominator in a fractional value (e.g. bw=1/0)",
            file=sys.stderr,
        )
        return 2
    except (ValueError, KeyError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

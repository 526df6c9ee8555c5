"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve-mix --seed 1 --seconds 30 --trace 0

Workloads: ``solve-mix`` (library ``solve()``), ``serve-mix`` (in-process
planner daemon, two request streams) and ``replan-churn`` (online
``replan()`` on a contended tree).  The generated list is sized so that it
takes about ``--seconds`` at the nominal host speed, and every op's output
is checked.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs an untraced pass and then a traced pass of the same list and reports
the per-layer metrics.  Timings are scaled to the nominal speed of the
host reference loop (``hostref.py``), each op by the samples taken around
it; the ``host.raw.*`` metrics keep the measured values.  The last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The benchmark's own checks:
``python3 -m pytest perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import ops as opgen

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

#: Extra fresh processes that only set up, for the median ``setup_s``.
SETUP_PROBES = 2

E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "plan_quality": "objective", "peak_rss_mb": "MB",
    "success_rate": "fraction",
}

LAYER_UNITS = {
    "planner.solve.self_ms": "ms", "planner.load_workload.ms": "ms",
    "planner.solve_key.ms": "ms", "planner.eval_cache.hit_rate": "fraction",
    "planner.eval_cache.entries": "count",
    "optimize.bb.self_ms": "ms", "optimize.bb.expanded": "count",
    "optimize.bb.pruned": "count", "optimize.bb.evaluated": "count",
    "optimize.seed.ms": "ms", "optimize.placement.ms": "ms",
    "optimize.placement.memo_entries": "count",
    "optimize.placement_evaluator.ms": "ms",
    "core.exact.calls": "count", "core.exact.ms": "ms",
    "core.float.calls": "count", "core.float.ms": "ms",
    "core.batched.rows": "count", "core.batched.ms": "ms",
    "scheduling.period.ms": "ms", "scheduling.latency.ms": "ms",
    "cyclic.mcr.calls": "count", "cyclic.mcr.ms": "ms",
    "serve.parse.ms": "ms", "serve.resolve.ms": "ms", "serve.encode.ms": "ms",
    "serve.result_cache.hit_rate": "fraction", "serve.requests": "count",
    "serve.errors": "count", "serve.solves": "count", "serve.coalesced": "count",
    "serve.batches": "count", "serve.batch_wait_ms": "ms",
    "serve.solve_thread.ms": "ms",
    "dynamic.replan.self_ms": "ms", "dynamic.apply_event.ms": "ms",
    "dynamic.cold_solve.calls": "count", "dynamic.cold_solve.ms": "ms",
    "concurrent.costs.ms": "ms", "dynamic.moved": "count",
    "dynamic.forced": "count", "dynamic.fallbacks": "count",
    "dynamic.infeasible": "count",
    "host.ref_loop_ms": "ms", "host.raw.setup_s": "s",
    "host.raw.ops_per_s": "1/s", "host.raw.latency_p50_ms": "ms",
    "host.raw.latency_tail_ms": "ms", "bench.trace_overhead": "ratio",
    **{f"bench.ops.{c}": "count" for cs in opgen.OP_CLASSES.values() for c in cs},
    **{f"bench.share.{c}": "fraction" for cs in opgen.OP_CLASSES.values() for c in cs},
}


def _args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-mix", "serve-mix", "replan-churn"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _percentile(sorted_values, pct):
    """Harrell-Davis estimate of the *pct* percentile of an ascending list.

    A Beta-weighted mean of the order statistics around the nearest rank:
    the same percentile, with a fraction of the variance of the single
    nearest-rank sample (a tail sample is one op's time, and on a shared
    2-CPU Linux host one op's time moves by tens of percent).
    """
    n = len(sorted_values)
    a = pct / 100.0 * (n + 1)
    b = (n + 1) - a
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_norm)

    steps = 16
    weights = []
    for i in range(n):
        xs = [(i + k / steps) / n for k in range(steps + 1)]
        ys = [density(x) for x in xs]
        weights.append(sum(ys[k] + ys[k + 1] for k in range(steps)) / (2 * steps * n))
    total = sum(weights)
    return sum(w * v for w, v in zip(weights, sorted_values)) / total


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _nominal_wall(result, href):
    """Timed seconds of a pass, each stretch scaled by the host speed
    measured around it."""
    return sum(seconds * href.local_scale(index) for seconds, index in result.segments)


def _timings(result, href, pct):
    """(nominal-speed, raw) throughput, median and tail latency of a pass."""
    raw = sorted(x * 1000.0 for x in result.latencies)
    nominal = sorted(x * 1000.0 * href.local_scale(index)
                     for x, index in zip(result.latencies, result.ref_index))
    return (
        {"ops_per_s": result.attempted / _nominal_wall(result, href),
         "latency_p50_ms": _percentile(nominal, 50),
         "latency_tail_ms": _percentile(nominal, pct)},
        {"ops_per_s": result.attempted / result.wall,
         "latency_p50_ms": _percentile(raw, 50),
         "latency_tail_ms": _percentile(raw, pct)},
    )


def _source_fingerprint():
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            with open(os.path.join(root, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def _star_check(args, mode, list_hash, stars):
    """Compare this run's exact counts with an earlier run of the same list
    and source recorded under ``perfbench/out/``; returns the mismatches."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"stars-{args.workload}-{args.seed}-{mode}.json")
    record = {"list": list_hash, "source": _source_fingerprint(), "stars": stars}
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        if (earlier["list"], earlier["source"]) == (record["list"], record["source"]):
            return [f"count {k} changed across runs: {earlier['stars'].get(k)} -> {v}"
                    for k, v in sorted(stars.items()) if earlier["stars"].get(k) != v]
    with open(path, "w") as handle:
        json.dump(record, handle, sort_keys=True)
    return []


def _probe_setups(args, nominal_ms):
    """Nominal-speed set-up seconds of fresh set-up-only processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--setup-probe"],
            capture_output=True, text=True, timeout=150, check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["setup_s"] * nominal_ms / probe["ref_ms"]))
    return samples


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    if not args.setup_probe:
        # Build step: byte-compile once so that no run's set-up pays for it.
        compileall.compile_dir(os.path.join(SRC, "repro"), quiet=2)
    top = time.perf_counter()
    sys.path.insert(0, SRC)
    import runners
    from hostref import NOMINAL_REF_MS, HostRef
    from spans import Tracer

    workload = runners.WORKLOADS[args.workload](args.seed, args.seconds)
    href = HostRef()
    if args.setup_probe:
        first = workload.run(href, timed=False)
        href.sample(5)
        print(json.dumps({"setup_s": first.started_at - top, "ref_ms": href.median_ms()}))
        return 0

    list_hash = opgen.op_hash(workload.listing)
    plain = workload.run(href)
    setup_raw = plain.started_at - top
    passes = [plain]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(workload.run(href))
        finally:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = href.scale()
    layer = {}
    if tracer:
        layer = tracer.metrics(scale, since=passes[1].started_at)
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.csv"))

    failures = [f for p in passes for f in p.failures] + workload.verify()
    failed = len(failures)
    # Run-level checks: they make the run incorrect without failing an op.
    if args.trace and plain.stars != passes[1].stars:
        failures.append(f"counts differ between the untraced and the traced pass: "
                        f"{plain.stars} vs {passes[1].stars}")
    failures += _star_check(args, "plain", list_hash, plain.stars)
    if args.trace:
        counted = {k: v for k, v in layer.items() if LAYER_UNITS[k] == "count"}
        failures += _star_check(args, "traced", list_hash, {**passes[1].stars, **counted})
    pct = workload.tail_percentile
    nominal, raw = _timings(plain, href, pct)
    beyond = plain.attempted - math.ceil(pct / 100.0 * plain.attempted)
    if beyond < 10:
        failures.append(f"only {beyond} samples beyond p{pct}; the list is too short")
    attempted = sum(p.attempted for p in passes)

    print(f"workload {args.workload} seed {args.seed} list {list_hash}: "
          f"{plain.attempted} ops, {len(plain.values)} results")
    print(f"host reference loop: median {href.median_ms():.3f} ms over "
          f"{len(href.samples_ms)} samples; nominal {NOMINAL_REF_MS} ms")
    for elapsed, label in sorted(zip(plain.latencies, plain.labels), reverse=True)[:3]:
        print(f"slow op: {elapsed * 1000.0:10.1f} ms raw  {label[:100]}")
    for failure in failures:
        print(f"FAIL {failure}")

    if args.trace:
        values = {k: 0.0 for k in LAYER_UNITS}
        values.update(layer)
        values.update(passes[1].readouts)
        values.update(passes[1].stars)
        values["host.ref_loop_ms"] = href.median_ms()
        values["host.raw.setup_s"] = setup_raw
        values.update({f"host.raw.{k}": v for k, v in raw.items()})
        values["bench.trace_overhead"] = _nominal_wall(passes[1], href) / _nominal_wall(plain, href)
        for cls in opgen.OP_CLASSES[args.workload]:
            values[f"bench.ops.{cls}"] = plain.class_count[cls]
            values[f"bench.share.{cls}"] = plain.class_time[cls] / plain.wall
        unknown = sorted(set(values) - set(LAYER_UNITS))
        if unknown:
            raise RuntimeError(f"metrics missing from LAYER_UNITS: {unknown}")
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        setups = [(setup_raw, setup_raw * href.local_scale(0))]
        setups += _probe_setups(args, NOMINAL_REF_MS)
        values = {
            "setup_s": statistics.median(norm for _raw, norm in setups),
            **nominal,
            "plan_quality": _geomean(workload.quality_values(plain)),
            "peak_rss_mb": peak_rss_mb,
            "success_rate": (attempted - failed) / attempted,
        }
        print(f"latency_tail_ms is p{pct} of {plain.attempted} samples ({beyond} beyond); "
              f"plan_quality over {len(plain.values)} results; setup_s is the median "
              f"of {len(setups)} set-ups (raw {[round(r, 3) for r, _ in setups]} s)")
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

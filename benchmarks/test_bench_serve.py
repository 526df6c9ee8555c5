"""Planner-daemon load test: requests/sec and latency per traffic mix.

Drives a :class:`~repro.serve.PlannerServer` in-process (one asyncio
loop, no subprocess — the stdio/TCP transports are exercised by the
serve smoke tests; this measures the serving machinery itself) through
three mixes:

* **cold** — distinct workloads, fresh server: every request pays a full
  solve.  The baseline the other mixes are measured against.
* **warm** — the same workloads re-issued to the same server: every
  request is answered from the finished-solve result cache.
* **duplicate-heavy** — many concurrent requests over a few shapes,
  fresh server: in-flight coalescing makes N identical requests cost one
  solve (``O(distinct shapes)`` solves for ``O(requests)`` traffic).

Records ``benchmarks/results/BENCH_serve.json`` (and a human table to
``serve_load.txt``).  Its ``mixes`` rows are under the
``compare_bench.py`` guard: the server counters (requests, solves,
coalesced, result-cache hits, evaluation-cache stats) are compared
exactly and ``wall_s`` by ratio.  Requests/sec and p50/p99 latency per
mix sit in ``rates``, which the guard does not walk: they move with the
runner and with how the daemon's solver threads interleave.  Asserted
floors — the machine-independent claims:

* the duplicate-heavy mix clears **>= 5x** the cold throughput (typical
  headroom is far larger: ~#distinct-shapes/#requests fewer solves);
* the warm mix also clears >= 5x cold (a result-cache hit does no
  solver work at all);
* the counters match the story: cold runs one solve per request, warm
  runs none, duplicate-heavy runs one per *shape*.
"""

import asyncio
import json
import time

from repro.analysis import text_table
from repro.serve import PlannerServer, ServeConfig

from bench_helpers import RESULTS_DIR, record

#: Cold/warm mix: this many distinct workload shapes, one request each.
DISTINCT = 16

#: Duplicate-heavy mix: total requests spread over DUP_SHAPES shapes.
#: Coalesced requests are nearly free, so a high duplicate count buys
#: assertion headroom (the throughput ratio scales with it) at almost no
#: wall-clock cost.
DUP_REQUESTS = 144
DUP_SHAPES = 4

#: Workload size: n=8 keeps one cold B&B solve ~10 ms, so the whole
#: benchmark stays a few seconds while the mix contrast stays >10x.  (At
#: n=7, with seeding and expansion priced on per-node terms, a cold solve
#: takes ~5 ms and per-request overhead narrows the contrast to 5-13x.)
SPEC = "random:n=8,seed={seed}"

#: The ISSUE's floor: duplicate-heavy (and warm) rps >= 5x cold rps.
MIN_MIX_SPEEDUP = 5.0


async def _timed_request(server, payload, latencies):
    started = time.perf_counter()
    response = await server.handle_request(payload)
    latencies.append((time.perf_counter() - started) * 1000.0)
    assert response["ok"], response
    return response


async def _run_mix(server, payloads):
    """Issue *payloads* concurrently; returns (responses, latencies_ms,
    wall_s)."""
    latencies = []
    started = time.perf_counter()
    responses = await asyncio.gather(*[
        _timed_request(server, payload, latencies) for payload in payloads
    ])
    wall = time.perf_counter() - started
    return responses, latencies, wall


def _percentile(latencies, fraction):
    ordered = sorted(latencies)
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _mix_row(name, responses, wall, server):
    """One mix's guarded row: deterministic counters plus its wall time."""
    served = [r["served"] for r in responses]
    return {
        "mix": name,
        "requests": len(responses),
        "wall_s": round(wall, 4),
        "solves": served.count("solve"),
        "coalesced": served.count("coalesced"),
        "result_cache_hits": served.count("result-cache"),
        "evaluation_cache": server.cache.stats().as_dict(),
    }


def _mix_rates(responses, latencies, wall):
    return {
        "rps": round(len(responses) / wall, 1),
        "p50_ms": round(_percentile(latencies, 0.50), 3),
        "p99_ms": round(_percentile(latencies, 0.99), 3),
    }


async def _load_test():
    """Returns (guarded rows, rates by mix)."""
    rows, rates = [], {}

    async def mix(name, server, payloads):
        responses, latencies, wall = await _run_mix(server, payloads)
        rows.append(_mix_row(name, responses, wall, server))
        rates[name] = _mix_rates(responses, latencies, wall)

    # --- cold + warm: same server, distinct shapes ----------------------
    server = PlannerServer(ServeConfig())
    cold_payloads = [
        {"op": "solve", "id": i, "workload": SPEC.format(seed=i)}
        for i in range(DISTINCT)
    ]
    await mix("cold", server, cold_payloads)
    await mix("warm", server, cold_payloads)
    await server.aclose()

    # --- duplicate-heavy: fresh server, few shapes, many requests -------
    server = PlannerServer(ServeConfig())
    dup_payloads = [
        {"op": "solve", "id": i,
         "workload": SPEC.format(seed=100 + i % DUP_SHAPES)}
        for i in range(DUP_REQUESTS)
    ]
    await mix("duplicate-heavy", server, dup_payloads)
    await server.aclose()
    return rows, rates


def test_serve_load(benchmark):
    rows, rates = benchmark.pedantic(
        lambda: asyncio.run(_load_test()), rounds=1, iterations=1
    )
    cold, warm, dup = rows
    cold_rps = rates["cold"]["rps"]

    # --- assertions: the shape the ISSUE promises -----------------------
    assert cold["solves"] == DISTINCT and cold["coalesced"] == 0
    assert warm["result_cache_hits"] == DISTINCT and warm["solves"] == 0
    assert dup["solves"] == DUP_SHAPES
    assert dup["coalesced"] == DUP_REQUESTS - DUP_SHAPES
    # Throughput floors (generous: typical headroom is >10x).
    assert rates["duplicate-heavy"]["rps"] >= MIN_MIX_SPEEDUP * cold_rps, rates
    assert rates["warm"]["rps"] >= MIN_MIX_SPEEDUP * cold_rps, rates

    payload = {
        "distinct_shapes": DISTINCT,
        "duplicate_requests": DUP_REQUESTS,
        "duplicate_shapes": DUP_SHAPES,
        "workload": SPEC.format(seed="<seed>"),
        "mixes": rows,
        "rates": rates,
        "speedups": {
            "warm_vs_cold": round(rates["warm"]["rps"] / cold_rps, 1),
            "duplicate_vs_cold": round(
                rates["duplicate-heavy"]["rps"] / cold_rps, 1
            ),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_serve.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    table = text_table(
        ["mix", "requests", "wall s", "req/s", "p50 ms", "p99 ms",
         "solves", "coalesced", "cache hits"],
        [
            [r["mix"], r["requests"], r["wall_s"], rates[r["mix"]]["rps"],
             rates[r["mix"]]["p50_ms"], rates[r["mix"]]["p99_ms"],
             r["solves"], r["coalesced"], r["result_cache_hits"]]
            for r in rows
        ],
    )
    record(
        "serve_load",
        f"planner daemon load test over {SPEC.format(seed='<seed>')} "
        "(in-process event loop)\n" + table
        + f"\n\nwarm/cold rps: {payload['speedups']['warm_vs_cold']}x   "
        f"duplicate/cold rps: {payload['speedups']['duplicate_vs_cold']}x"
        f"   (asserted floor: {MIN_MIX_SPEEDUP}x)",
    )

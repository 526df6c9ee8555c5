"""The planner daemon: protocol, coalescing, batching, caches, transports.

Most tests drive a :class:`~repro.serve.PlannerServer` in-process (one
event loop, no subprocess) — that is where the coalescing invariants
are assertable exactly; the batching tests drive a
:class:`~repro.serve.MicroBatcher` over a fake ``run_group``, since the
server batches only over a worker pool.  The ``smoke`` tests at the bottom
spawn the real ``python -m repro serve`` subprocess and run the
solve/stats/shutdown round trip over stdio, and one batch through its
worker pool; ``make serve-smoke`` runs just those.
"""

import asyncio
import gc
import json
import sys
import warnings

import pytest

from repro.planner import EvaluationCache, default_cache, load_workload, solve
from repro.serve import (
    PROTOCOL_VERSION,
    MicroBatcher,
    PlannerServer,
    ProtocolError,
    ServeConfig,
    StdioServeClient,
    TcpServeClient,
    encode_response,
    parse_request,
    resolve_solve,
)


def run(coro):
    return asyncio.run(coro)


async def _with_server(body, config=None):
    server = PlannerServer(config or ServeConfig(batch_window=0.001))
    try:
        return await body(server)
    finally:
        await server.aclose()


# ---------------------------------------------------------------- protocol


def test_parse_request_roundtrip():
    request = parse_request('{"id": 7, "op": "solve", "workload": "fig1"}')
    assert request.op == "solve" and request.id == 7
    assert request.params == {"workload": "fig1"}


@pytest.mark.parametrize(
    "line",
    [
        "not json at all",
        '["a", "list"]',
        '{"op": "frobnicate"}',
        '{"id": 1}',
    ],
)
def test_parse_request_rejects_malformed_lines(line):
    with pytest.raises(ProtocolError):
        parse_request(line)


def test_resolve_solve_rejects_unknown_params():
    with pytest.raises(ProtocolError, match="bogus"):
        resolve_solve({"workload": "fig1", "bogus": 1})


def test_resolve_solve_requires_workload():
    with pytest.raises(ProtocolError, match="workload"):
        resolve_solve({})


def test_resolve_solve_validates_deadline():
    with pytest.raises(ProtocolError, match="deadline"):
        resolve_solve({"workload": "fig1", "deadline": "soon"})
    with pytest.raises(ProtocolError, match="deadline"):
        resolve_solve({"workload": "fig1", "deadline": -1})


def test_solve_keys_discriminate():
    base = resolve_solve({"workload": "fig1"})
    same = resolve_solve({"workload": "fig1"})
    assert base.key == same.key
    assert resolve_solve({"workload": "fig1", "platform": "het4"}).key != base.key
    assert resolve_solve({"workload": "fig1", "exactness": "exact"}).key != base.key
    assert resolve_solve({"workload": "fig1", "exactness": "fast"}).key != base.key
    assert resolve_solve({"workload": "fig1", "objective": "latency"}).key != base.key
    assert resolve_solve({"workload": "fig1", "deadline": 1.0}).key != base.key
    # all three exactness tiers are mutually distinct at the request level
    keys = {
        resolve_solve({"workload": "fig1", "exactness": tier}).key
        for tier in ("exact", "certified", "fast")
    }
    assert len(keys) == 3


def test_encode_response_is_one_line():
    line = encode_response({"id": 1, "ok": True, "result": {"value": "4"}})
    assert "\n" not in line
    assert json.loads(line)["ok"] is True


# ------------------------------------------------------------ basic serving


def test_ping_stats_clear():
    async def body(server):
        assert (await server.handle_request({"op": "ping", "id": 1}))["result"] == "pong"
        stats = (await server.handle_request({"op": "stats", "id": 2}))["result"]
        assert stats["server"]["requests"] == 2
        assert "evaluation_cache" in stats and "result_cache" in stats
        cleared = (await server.handle_request({"op": "clear_cache", "id": 3}))["result"]
        assert cleared == {"evaluation_entries": 0, "result_entries": 0}

    run(_with_server(body))


def test_solve_returns_plan_result_payload():
    async def body(server):
        response = await server.handle_request(
            {"op": "solve", "id": 1, "workload": "fig1"}
        )
        assert response["ok"] and response["served"] == "solve"
        assert response["result"]["value"] == "4"
        assert response["result"]["objective"] == "period"
        assert response["wall_ms"] >= 0

    run(_with_server(body))


def test_malformed_requests_become_error_responses():
    async def body(server):
        bad_op = await server.handle_request({"op": "nope", "id": 1})
        assert bad_op["ok"] is False and "unknown op" in bad_op["error"]
        bad_spec = await server.handle_request(
            {"op": "solve", "id": 2, "workload": "nope:zzz"}
        )
        assert bad_spec["ok"] is False and bad_spec["id"] == 2
        bad_platform = await server.handle_request(
            {"op": "solve", "id": 3, "workload": "fig1", "platform": "hom:bw=1/0"}
        )
        assert bad_platform["ok"] is False
        assert server.errors == 3
        # the daemon stays serviceable after errors
        assert (await server.handle_request({"op": "ping", "id": 4}))["ok"]

    run(_with_server(body))


# ---------------------------------------------------------------- coalescing


def test_identical_concurrent_requests_cost_one_solve():
    async def body(server):
        n = 8
        responses = await asyncio.gather(*[
            server.handle_request(
                {"op": "solve", "id": i, "workload": "random:n=6,seed=3"}
            )
            for i in range(n)
        ])
        served = sorted(r["served"] for r in responses)
        assert served.count("solve") == 1
        assert served.count("coalesced") == n - 1
        assert server.solves == 1
        assert server.coalescer.coalesced == n - 1
        # everyone got the same answer
        values = {r["result"]["value"] for r in responses}
        assert len(values) == 1

    run(_with_server(body))


def test_distinct_platforms_never_coalesce():
    async def body(server):
        responses = await asyncio.gather(
            server.handle_request({"op": "solve", "id": 1, "workload": "fig1"}),
            server.handle_request(
                {"op": "solve", "id": 2, "workload": "fig1", "platform": "het4"}
            ),
            server.handle_request(
                {"op": "solve", "id": 3, "workload": "fig1",
                 "platform": "het:n=6,seed=1"}
            ),
        )
        assert all(r["served"] == "solve" for r in responses)
        assert server.coalescer.coalesced == 0
        assert server.solves == 3

    run(_with_server(body))


def test_unit_platform_is_interchangeable_with_none():
    """`hom:n=3` at unit speed IS the paper's normalised platform —
    platform_fingerprint collapses both to the "unit" sentinel, so these
    requests *should* share one solve."""

    async def body(server):
        responses = await asyncio.gather(
            server.handle_request({"op": "solve", "id": 1, "workload": "fig1"}),
            server.handle_request(
                {"op": "solve", "id": 2, "workload": "fig1", "platform": "hom:n=3"}
            ),
        )
        assert sorted(r["served"] for r in responses) == ["coalesced", "solve"]
        assert server.solves == 1

    run(_with_server(body))


def test_distinct_exactness_tiers_never_coalesce():
    async def body(server):
        responses = await asyncio.gather(*[
            server.handle_request(
                {"op": "solve", "id": i, "workload": "fig1", "exactness": tier}
            )
            for i, tier in enumerate(("exact", "certified", "fast"))
        ])
        assert all(r["served"] == "solve" for r in responses)
        assert server.coalescer.coalesced == 0
        assert server.solves == 3

    run(_with_server(body))


def test_result_cache_serves_warm_repeats():
    async def body(server):
        first = await server.handle_request(
            {"op": "solve", "id": 1, "workload": "fig1"}
        )
        second = await server.handle_request(
            {"op": "solve", "id": 2, "workload": "fig1"}
        )
        assert first["served"] == "solve"
        assert second["served"] == "result-cache"
        assert second["result"] == first["result"]
        assert server.solves == 1
        stats = (await server.handle_request({"op": "stats", "id": 3}))["result"]
        assert stats["result_cache"]["hits"] == 1

    run(_with_server(body))


def test_deadline_routes_to_portfolio():
    async def body(server):
        response = await server.handle_request(
            {"op": "solve", "id": 1, "workload": "random:n=6,seed=5",
             "deadline": 5.0}
        )
        assert response["ok"]
        assert response["result"]["method"].startswith("portfolio")

    run(_with_server(body))


# -------------------------------------------------------------- micro-batching


def _recording_batcher(**options):
    """A :class:`MicroBatcher` over a fake ``run_group`` that records each
    flush and answers every job with ``(group, job)``."""
    flushes = []

    async def run_group(group, jobs):
        flushes.append((group, list(jobs)))
        await asyncio.sleep(0)
        return [(group, job) for job in jobs]

    return MicroBatcher(run_group, **options), flushes


def test_compatible_requests_share_a_batch():
    async def body():
        batcher, flushes = _recording_batcher(window=0.05)
        results = await asyncio.gather(*[batcher.submit("g", i) for i in range(4)])
        assert results == [("g", i) for i in range(4)]
        assert flushes == [("g", [0, 1, 2, 3])]
        assert (batcher.batches, batcher.batched_jobs) == (1, 4)

    run(body())


def test_incompatible_requests_split_batches():
    async def body():
        batcher, flushes = _recording_batcher(window=0.05)
        results = await asyncio.gather(
            batcher.submit("period", 1), batcher.submit("latency", 2)
        )
        assert results == [("period", 1), ("latency", 2)]
        assert sorted(flushes) == [("latency", [2]), ("period", [1])]
        assert (batcher.batches, batcher.batched_jobs) == (2, 2)

    run(body())


def test_max_batch_flushes_immediately():
    async def body():
        batcher, flushes = _recording_batcher(window=10.0, max_batch=2)
        results = await asyncio.wait_for(
            asyncio.gather(*[batcher.submit("g", i) for i in range(4)]), 5
        )
        assert results == [("g", i) for i in range(4)]
        # 2 flushes of max_batch=2, long before the window
        assert flushes == [("g", [0, 1]), ("g", [2, 3])]
        assert batcher.batches == 2

    run(body())


def test_batcher_answers_each_job_in_job_order():
    async def run_group(group, jobs):
        await asyncio.sleep(0.01 if group == "slow" else 0)
        return [f"{group}:{job}" for job in jobs]

    async def body():
        batcher = MicroBatcher(run_group, window=0.01)
        submits = [("slow", "a"), ("fast", "b"), ("slow", "c"), ("fast", "d")]
        results = await asyncio.gather(*[
            batcher.submit(group, job) for group, job in submits
        ])
        assert results == ["slow:a", "fast:b", "slow:c", "fast:d"]

    run(body())


def test_batcher_fans_a_group_error_out_to_every_job():
    async def failing(group, jobs):
        raise RuntimeError("boom")

    async def short(group, jobs):
        return list(jobs)[1:]

    async def body(run_group):
        batcher = MicroBatcher(run_group, window=0.01)
        return await asyncio.gather(
            *[batcher.submit("g", i) for i in range(3)], return_exceptions=True
        )

    failed, miscounted = run(body(failing)), run(body(short))
    assert [str(e) for e in failed] == ["boom"] * 3
    assert len(miscounted) == 3
    assert all(isinstance(e, RuntimeError) for e in miscounted), miscounted


def test_batcher_drain_flushes_queued_jobs_and_waits_for_them():
    async def body():
        batcher, flushes = _recording_batcher(window=10.0)
        submits = [asyncio.ensure_future(batcher.submit("g", i)) for i in range(3)]
        await asyncio.sleep(0)  # let every submit queue its job
        assert flushes == []
        await asyncio.wait_for(batcher.drain(), 5)
        assert flushes == [("g", [0, 1, 2])]
        assert await asyncio.gather(*submits) == [("g", i) for i in range(3)]
        await batcher.drain()  # nothing left: returns at once
        assert batcher.batches == 1

    run(body())


# ------------------------------------------------------------ solve on arrival


def test_in_process_cold_solve_starts_on_arrival():
    """Without a worker pool a lone cold solve never waits for the batch
    window."""
    spec = "random:n=6,seed=3"

    async def body(server):
        return await asyncio.wait_for(
            server.handle_request({"op": "solve", "id": 1, "workload": spec}), 5
        )

    response = run(_with_server(body, ServeConfig(batch_window=30.0)))
    assert response["ok"] and response["served"] == "solve"
    assert response["result"]["value"] == _library_value(spec)


def test_gathered_in_process_solves_match_library_solve():
    """Concurrent cold solves share loaded workloads across the daemon's
    two solver threads; each still returns the library's value."""
    specs = [f"random:n=6,seed={seed}" for seed in range(8)]
    requests = [{"workload": spec} for spec in specs] + [
        {"workload": specs[0], "objective": "latency"},
        {"workload": specs[0], "model": "inorder"},
    ]

    async def body(server):
        responses = await asyncio.gather(*[
            server.handle_request({"op": "solve", "id": i, **params})
            for i, params in enumerate(requests)
        ])
        stats = (await server.handle_request({"op": "stats", "id": "s"}))["result"]
        return responses, stats

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the solver threads finely
    try:
        responses, stats = run(_with_server(body, ServeConfig()))
    finally:
        sys.setswitchinterval(interval)
    for params, response in zip(requests, responses):
        assert response["ok"] and response["served"] == "solve", response
        kwargs = {k: v for k, v in params.items() if k != "workload"}
        assert response["result"]["value"] == _library_value(
            params["workload"], **kwargs
        ), params
    assert stats["server"]["solves"] == len(requests)
    assert stats["server"]["batches"] == stats["server"]["batched_jobs"] == 0


# ---------------------------------------------------------------- worker pool

POOL_SPECS = ["random:n=6,seed=11", "random:n=6,seed=12"]


def _library_value(spec, **options):
    return str(solve(load_workload(spec).application,
                     cache=EvaluationCache(), **options).value)


def test_worker_pool_solves_one_batch_like_library_solve():
    async def body(server):
        responses = await asyncio.gather(*[
            server.handle_request({"op": "solve", "id": i, "workload": spec})
            for i, spec in enumerate(POOL_SPECS)
        ])
        assert server.batcher.batches == 1
        assert server.batcher.batched_jobs == 2
        return responses

    config = ServeConfig(workers=2, batch_window=0.2)
    responses = run(_with_server(body, config))
    for spec, response in zip(POOL_SPECS, responses):
        assert response["ok"] and response["served"] == "solve"
        assert response["result"]["value"] == _library_value(spec)


def test_single_worker_pool_solves_in_its_worker():
    """With ``workers=1`` a batch still goes to the pool: the daemon's own
    process-wide evaluation cache sees no lookup."""
    cache = default_cache()
    lookups = cache.hits + cache.misses

    async def body(server):
        responses = await asyncio.gather(*[
            server.handle_request({"op": "solve", "id": i, "workload": spec})
            for i, spec in enumerate(POOL_SPECS)
        ])
        assert server.batcher.batches == 1
        assert server.batcher.batched_jobs == 2
        return responses

    config = ServeConfig(workers=1, batch_window=0.2)
    responses = run(_with_server(body, config))
    assert cache.hits + cache.misses == lookups
    for spec, response in zip(POOL_SPECS, responses):
        assert response["ok"] and response["served"] == "solve"
        assert response["result"]["value"] == _library_value(spec)


def test_pool_task_empties_worker_caches_after_a_newer_clear(monkeypatch):
    """The worker side of ``clear_cache``: the first task carrying a newer
    clear count starts from an empty default evaluation cache and
    placement memo; later tasks with the same count keep what was made
    since."""
    import repro.serve.server as server_module
    from repro.optimize.placement import placement_memo_size
    from repro.planner import clear_default_cache

    monkeypatch.setattr(server_module, "_worker_clears", 0)
    clear_default_cache()
    app = load_workload("random:n=4,seed=1").application

    def sizes():
        return len(default_cache()), placement_memo_size()

    def fill():
        solve(app, platform="het4", schedule=False)
        return sizes()

    filled = fill()
    assert min(filled) > 0
    assert server_module._run_after_clears(0, sizes) == filled
    assert server_module._run_after_clears(1, sizes) == (0, 0)
    assert server_module._run_after_clears(1, fill) == filled
    assert server_module._run_after_clears(1, sizes) == filled
    assert server_module._run_after_clears(2, sizes) == (0, 0)


def test_clear_cache_reaches_the_pool_workers():
    """After every ``clear_cache`` the pool's next solves are cold,
    whichever worker takes which shard."""
    requests = [
        {"op": "solve", "id": i, "workload": spec, "schedule": False}
        for i, spec in enumerate(POOL_SPECS)
    ]

    async def body(server):
        for _ in range(4):
            cleared = await server.handle_request({"op": "clear_cache", "id": "c"})
            assert cleared["ok"]
            responses = await asyncio.gather(*map(server.handle_request, requests))
            for response in responses:
                assert response["ok"] and response["served"] == "solve"
                assert response["result"]["stats"]["cache_hits"] == 0, response
        assert server.batcher.batches == 4

    config = ServeConfig(workers=2, batch_window=0.2)
    run(_with_server(body, config))


def test_in_process_solve_reuses_the_resolved_workload(monkeypatch):
    """The request's workload is loaded once, by ``resolve_solve``."""
    import repro.planner.batch as batch

    loads = []

    def counting_load(spec):
        loads.append(spec)
        return load_workload(spec)

    monkeypatch.setattr(batch, "load_workload", counting_load)

    async def body(server):
        response = await server.handle_request(
            {"op": "solve", "id": 1, "workload": "random:n=5,seed=3"}
        )
        assert response["ok"] and response["served"] == "solve"

    run(_with_server(body))
    assert loads == []


def test_workload_memo_loads_each_spec_once_until_cleared(monkeypatch):
    """A repeated solve reuses the memoised workload; a malformed spec is
    never memoised; ``clear_cache`` empties the memo."""
    import repro.serve.protocol as protocol

    loads = []

    def counting_load(spec):
        loads.append(spec)
        return load_workload(spec)

    monkeypatch.setattr(protocol, "load_workload", counting_load)
    spec, bad = "random:n=5,seed=3", "random:n=5,seed=3,colour=red"

    async def body(server):
        first = await server.handle_request({"op": "solve", "id": 1, "workload": spec})
        second = await server.handle_request({"op": "solve", "id": 2, "workload": spec})
        assert first["ok"] and first["served"] == "solve"
        assert second["ok"] and second["served"] == "result-cache"
        assert second["result"] == first["result"]
        assert loads == [spec]
        for request_id in (3, 4):
            response = await server.handle_request(
                {"op": "solve", "id": request_id, "workload": bad}
            )
            assert not response["ok"] and "colour" in response["error"]
        assert loads == [spec, bad, bad]
        cleared = await server.handle_request({"op": "clear_cache", "id": 5})
        assert cleared["ok"]
        again = await server.handle_request({"op": "solve", "id": 6, "workload": spec})
        assert again["ok"] and again["served"] == "solve"
        assert loads == [spec, bad, bad, spec]

    run(_with_server(body))


def test_stats_and_shutdown_carry_no_snapshot_fields():
    async def body(server):
        stats = (await server.handle_request({"op": "stats", "id": 1}))["result"]
        assert stats["protocol"] == PROTOCOL_VERSION == 2
        assert "restored_entries" not in stats["server"]
        bye = await server.handle_request({"op": "shutdown", "id": 2})
        assert bye == {"id": 2, "ok": True, "result": "bye"}

    run(_with_server(body))


# ----------------------------------------------------------- stdio in-process


def test_run_stdio_with_injected_streams():
    """The stdio loop itself (no subprocess): ping/solve/bad-line/shutdown."""
    import io

    stdin = io.StringIO(
        '{"op": "ping", "id": 1}\n'
        "\n"  # blank lines are ignored
        "this is not json\n"
        '{"op": "solve", "id": 2, "workload": "fig1"}\n'
        '{"op": "shutdown", "id": 3}\n'
        '{"op": "ping", "id": 99}\n'  # after shutdown: never served
    )
    stdout = io.StringIO()

    async def body():
        server = PlannerServer(ServeConfig(batch_window=0.001))
        await server.run_stdio(stdin=stdin, stdout=stdout)
        await server.aclose()
        return server

    server = run(body())
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    by_id = {r["id"]: r for r in responses}
    assert by_id[1]["result"] == "pong"
    assert by_id[None]["ok"] is False  # the bad line
    assert by_id[2]["result"]["value"] == "4"
    assert by_id[3]["result"] == "bye"
    assert 99 not in by_id
    assert server.errors == 1


def test_run_stdio_eof_exits_after_draining():
    import io

    stdin = io.StringIO('{"op": "solve", "id": 1, "workload": "fig1"}\n')
    stdout = io.StringIO()

    async def body():
        server = PlannerServer(ServeConfig(batch_window=0.001))
        await server.run_stdio(stdin=stdin, stdout=stdout)
        await server.aclose()

    run(body())
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert len(responses) == 1 and responses[0]["ok"]


def test_serve_forever_tcp_only():
    """The CLI entry body: TCP-only mode serves until a shutdown request."""
    import threading

    from repro.serve.server import serve_forever

    announced = []
    results = {}

    async def body():
        task = asyncio.ensure_future(serve_forever(
            ServeConfig(batch_window=0.001),
            stdio=False,
            tcp="127.0.0.1:0",
            announce=announced.append,
        ))
        while not announced:  # wait for the bound-port announcement
            await asyncio.sleep(0.005)
        _, _, addr = announced[0].rpartition("tcp://")
        host, _, port = addr.partition(":")

        def client_body():
            with TcpServeClient(host, int(port)) as client:
                results["ping"] = client.request({"op": "ping", "id": 1})
                results["bye"] = client.shutdown()

        thread = threading.Thread(target=client_body)
        thread.start()
        server = await task
        thread.join(timeout=10)
        return server

    run(body())
    assert results["ping"]["result"] == "pong"
    assert results["bye"]["result"] == "bye"


# ------------------------------------------------------------------- TCP


def test_tcp_round_trip():
    async def body(server):
        host, port = await server.start_tcp()

        def client_calls():
            with TcpServeClient(host, port) as client:
                ping = client.request({"op": "ping", "id": 0})
                solved = client.request(
                    {"op": "solve", "id": 1, "workload": "fig1"}
                )
                return ping, solved

        ping, solved = await asyncio.get_running_loop().run_in_executor(
            None, client_calls
        )
        assert ping["result"] == "pong"
        assert solved["ok"] and solved["result"]["value"] == "4"

    run(_with_server(body))


# ------------------------------------------------------------------ replan


def test_resolve_replan_validates_parameters():
    from repro.serve import resolve_replan

    with pytest.raises(ProtocolError, match="unknown replan parameter"):
        resolve_replan({"bogus": 1})
    with pytest.raises(ProtocolError, match="'event' must be an object"):
        resolve_replan({"event": "admit"})
    with pytest.raises(ProtocolError, match="'budget' must be an integer"):
        resolve_replan({"budget": "two"})
    with pytest.raises(ProtocolError, match="'budget' must be >= 0"):
        resolve_replan({"budget": -1})
    with pytest.raises(ProtocolError, match="'platform' must be a spec"):
        resolve_replan({"platform": 7})
    with pytest.raises(ValueError, match="workload spec"):
        resolve_replan({"event": {"kind": "admit", "app": "a"}})
    job = resolve_replan({
        "event": {"kind": "admit", "app": "a", "workload": "fig1",
                  "rho": "40"},
        "budget": 2, "platform": "hom:n=3",
    })
    assert job.event.kind == "admit" and job.budget == 2
    assert job.platform_spec == "hom:n=3" and not job.reset


def test_replan_lifecycle():
    async def body(server):
        first = await server.handle_request({
            "op": "replan", "id": 1, "platform": "hom:n=3", "budget": 2,
            "event": {"kind": "admit", "app": "a", "workload": "fig1",
                      "rho": "40"},
        })
        assert first["ok"] and first["served"] == "replan"
        assert first["result"]["applications"] == ["a"]
        assert first["result"]["feasible"] is True
        assert len(first["result"]["admitted"]) == 5

        # the incumbent persists: a load event mutates it in place
        load = await server.handle_request({
            "op": "replan", "id": 2,
            "event": {"kind": "load", "app": "a", "rho": "20"},
        })
        assert load["ok"] and load["result"]["utilisation"] == "2/5"

        # no event: a status no-op that must not migrate anything
        status = await server.handle_request({"op": "replan", "id": 3})
        assert status["ok"] and status["result"]["noop"] is True
        assert status["result"]["mapping"] == load["result"]["mapping"]

        # a platform on a live incumbent is refused; reset starts over
        conflict = await server.handle_request(
            {"op": "replan", "id": 4, "platform": "hom:n=2"}
        )
        assert conflict["ok"] is False and "reset" in conflict["error"]
        fresh = await server.handle_request(
            {"op": "replan", "id": 5, "reset": True, "platform": "hom:n=2"}
        )
        assert fresh["ok"] and fresh["result"]["applications"] == []

        stats = (await server.handle_request({"op": "stats", "id": 6}))["result"]
        assert stats["server"]["replans"] == 4

    run(_with_server(body))


def test_replan_errors_do_not_corrupt_the_incumbent():
    async def body(server):
        # the very first replan needs a platform
        naked = await server.handle_request({
            "op": "replan", "id": 1,
            "event": {"kind": "noop"},
        })
        assert naked["ok"] is False and "platform" in naked["error"]

        await server.handle_request({
            "op": "replan", "id": 2, "platform": "hom:n=3",
            "event": {"kind": "admit", "app": "a", "workload": "fig1",
                      "rho": "40"},
        })
        bad = await server.handle_request({
            "op": "replan", "id": 3,
            "event": {"kind": "evict", "app": "zzz"},
        })
        assert bad["ok"] is False and "zzz" in bad["error"]
        # the incumbent survived the failed transition
        status = await server.handle_request({"op": "replan", "id": 4})
        assert status["ok"] and status["result"]["applications"] == ["a"]

    run(_with_server(body))


def test_concurrent_replans_apply_one_at_a_time():
    async def body(server):
        await server.handle_request({
            "op": "replan", "id": 0, "platform": "hom:n=4",
            "event": {"kind": "admit", "app": "seed", "workload": "fig1",
                      "rho": "200"},
        })
        responses = await asyncio.gather(*(
            server.handle_request({
                "op": "replan", "id": i,
                "event": {"kind": "admit", "app": f"a{i}",
                          "workload": "chain:n=3", "rho": "200"},
            })
            for i in range(4)
        ))
        assert all(r["ok"] for r in responses)
        status = await server.handle_request({"op": "replan", "id": 99})
        # every admission landed on the shared incumbent, in some order
        assert sorted(status["result"]["applications"]) == \
            ["a0", "a1", "a2", "a3", "seed"]

    run(_with_server(body))


# ------------------------------------------------------------- stdio smoke


@pytest.mark.smoke
def test_stdio_smoke_solve_stats_shutdown():
    """The real daemon subprocess: solve, stats, shutdown, clean exit."""
    with StdioServeClient() as client:
        assert client.request({"op": "ping", "id": 0})["result"] == "pong"
        solved = client.request({"op": "solve", "id": 1, "workload": "fig1"})
        assert solved["ok"] and solved["result"]["value"] == "4"
        repeat = client.request({"op": "solve", "id": 2, "workload": "fig1"})
        assert repeat["served"] == "result-cache"
        stats = client.request({"op": "stats", "id": 3})["result"]
        assert stats["server"]["solves"] == 1
        assert stats["result_cache"]["hits"] == 1
        malformed = client.request({"op": "what"})
        assert malformed["ok"] is False
        bye = client.shutdown()
        assert bye["ok"] and bye["result"] == "bye"
        assert client.close() == 0


@pytest.mark.smoke
def test_stdio_smoke_eof_is_a_clean_exit():
    client = StdioServeClient()
    assert client.request({"op": "ping", "id": 0})["result"] == "pong"
    assert client.close() == 0  # EOF without shutdown: drain and leave


@pytest.mark.smoke
def test_stdio_smoke_close_releases_the_pipes():
    # close() reaps the daemon and closes both of its pipes, so dropping
    # the client leaves no unclosed file for the collector to warn about.
    client = StdioServeClient()
    assert client.request({"op": "ping", "id": 0})["result"] == "pong"
    assert client.close() == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del client
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


@pytest.mark.smoke
def test_stdio_smoke_worker_pool_batch():
    """The real daemon with a worker pool: two distinct solves ride one
    batch through the pool and match the library's ``solve()``."""
    args = ["--workers", "2", "--batch-window", "0.5"]
    with StdioServeClient(args) as client:
        responses = client.request_many([
            {"op": "solve", "id": i, "workload": spec}
            for i, spec in enumerate(POOL_SPECS)
        ])
        by_id = {r["id"]: r for r in responses}
        for i, spec in enumerate(POOL_SPECS):
            assert by_id[i]["ok"], by_id[i]
            assert by_id[i]["result"]["value"] == _library_value(spec)
        stats = client.request({"op": "stats", "id": 9})["result"]
        assert stats["server"]["workers"] == 2
        assert stats["server"]["batches"] == 1
        assert stats["server"]["batched_jobs"] == 2
        assert client.shutdown()["result"] == "bye"
        assert client.close() == 0

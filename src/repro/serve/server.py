"""The long-running planner daemon: ``python -m repro serve``.

An asyncio request loop over :mod:`repro.planner` that turns the
one-shot library call into a service for heavy repeated traffic:

* **JSON-lines front ends** — stdin/stdout and an optional TCP listener
  speak the same protocol (:mod:`repro.serve.protocol`); responses may
  arrive out of order, matched by ``id``.
* **In-flight coalescing** (:class:`~repro.serve.coalescer.Coalescer`) —
  N identical concurrent solve requests cost one underlying solve,
  keyed on the canonical :func:`~repro.planner.solve_key` fingerprint.
* **Micro-batching** (:class:`~repro.serve.batcher.MicroBatcher`) —
  compatible requests queued within the batch window ride one
  ``solve_many`` call, sharded over a persistent worker-process pool
  when ``workers > 0``.
* **Warm caches** — one process-wide
  :class:`~repro.planner.EvaluationCache` (objective values, shared by
  every solve and merged back from workers) plus a result cache of
  finished :class:`~repro.planner.PlanResult` payloads, both LRU+TTL
  bounded with hit/miss/eviction counters (``stats`` op).
* **Graceful shutdown** — the ``shutdown`` op (or stdin EOF) drains
  in-flight work, snapshots the warm evaluation cache to disk
  (``--snapshot``), answers ``"bye"`` and exits; the snapshot is
  reloaded on the next start so a restart doesn't begin cold.
* **Per-request deadlines** — a ``deadline`` parameter routes the solve
  through the anytime portfolio, so latency-sensitive clients always
  get the best plan found in time.
* **A live incumbent** — the ``replan`` op (:mod:`repro.dynamic`) holds
  one shared mapping in the daemon and mutates it event by event through
  warm-started bounded repair; requests are serialised on an asyncio
  lock so concurrent replans apply one at a time.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from ..planner.batch import _resolve_job, solve_many
from ..planner.cache import DEFAULT_MAX_ENTRIES, EvaluationCache, TTLCache
from ..planner.facade import solve
from .batcher import MicroBatcher
from .coalescer import Coalescer
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    SolveJob,
    encode_response,
    error_response,
    ok_response,
    parse_request,
    resolve_replan,
    resolve_solve,
)

Write = Callable[[Dict[str, Any]], None]


@dataclass
class ServeConfig:
    """Tunables of one :class:`PlannerServer` (CLI flags map 1:1)."""

    #: Worker processes for micro-batched groups (0 = solve in-process).
    workers: int = 0
    #: Seconds a request group waits for company before it is flushed.
    batch_window: float = 0.005
    #: Flush a group immediately at this many queued requests.
    max_batch: int = 16
    #: Evaluation-cache entry bound (None = unbounded).
    cache_entries: Optional[int] = DEFAULT_MAX_ENTRIES
    #: Evaluation-cache per-entry TTL in seconds (None = no expiry).
    cache_ttl: Optional[float] = None
    #: Result-cache entry bound (finished PlanResult payloads).
    result_entries: Optional[int] = 4096
    #: Result-cache per-entry TTL in seconds (None = no expiry).
    result_ttl: Optional[float] = None
    #: Warm-cache snapshot file: loaded on start, written on shutdown.
    snapshot_path: Optional[str] = None


class PlannerServer:
    """One planner daemon: shared caches + coalescer + batcher + streams."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        cache: Optional[EvaluationCache] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.cache = cache if cache is not None else EvaluationCache(
            max_entries=self.config.cache_entries, ttl=self.config.cache_ttl
        )
        self.results = TTLCache(
            max_entries=self.config.result_entries, ttl=self.config.result_ttl
        )
        self.coalescer = Coalescer()
        self.batcher = MicroBatcher(
            self._run_group,
            window=self.config.batch_window,
            max_batch=self.config.max_batch,
        )
        self.requests = 0
        self.errors = 0
        self.solves = 0
        self.replans = 0
        self.restored_entries = 0
        # The live replan incumbent (repro.dynamic); its lock is created
        # lazily inside the running loop for the same 3.9 reason as the
        # shutdown event below.
        self._dynamic = None
        self._dynamic_lock: Optional[asyncio.Lock] = None
        self._started = time.monotonic()
        self._tasks: "set[asyncio.Task[None]]" = set()
        # The shutdown event is created lazily inside the running loop:
        # on Python 3.9 an asyncio.Event constructed outside a loop binds
        # the wrong one and every later wait() fails.
        self._closing = False
        self._shutdown_event: Optional[asyncio.Event] = None
        self._snapshot_saved = False
        self._threads = ThreadPoolExecutor(
            max_workers=max(2, self.config.workers),
            thread_name_prefix="repro-serve",
        )
        self._pool: Optional[ProcessPoolExecutor] = (
            ProcessPoolExecutor(max_workers=self.config.workers)
            if self.config.workers > 0
            else None
        )
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        path = self.config.snapshot_path
        if path and os.path.exists(path):
            try:
                self.restored_entries = self.cache.load(path)
            except Exception as exc:  # a corrupt snapshot must not kill startup
                print(
                    f"serve: ignoring unreadable cache snapshot {path}: {exc}",
                    file=sys.stderr,
                )

    # -- request handling -------------------------------------------------

    async def handle_request(self, request) -> Dict[str, Any]:
        """One request in, one response dict out (never raises for
        client-input problems — those become one-line error responses).

        Accepts a parsed :class:`Request` or, for embedders and tests, a
        plain payload dict as it would appear on the wire."""
        self.requests += 1
        request_id = request.get("id") if isinstance(request, dict) else request.id
        try:
            if isinstance(request, dict):
                request = parse_request(json.dumps(request, default=str))
            if request.op == "ping":
                return ok_response(request.id, "pong")
            if request.op == "stats":
                return ok_response(request.id, self.stats())
            if request.op == "clear_cache":
                return ok_response(request.id, self._clear_caches())
            if request.op == "solve":
                return await self._handle_solve(request)
            if request.op == "replan":
                return await self._handle_replan(request)
            if request.op == "shutdown":
                # Reached only when called directly (tests / embedding);
                # the stream loops intercept shutdown to sequence the
                # drain before their own exit.
                return await self.shutdown(request.id)
            raise ProtocolError(f"unhandled op {request.op!r}")
        except (ProtocolError, ValueError, KeyError, NotImplementedError,
                ZeroDivisionError) as exc:
            self.errors += 1
            return error_response(request_id, str(exc))

    async def _handle_solve(self, request: Request) -> Dict[str, Any]:
        job = resolve_solve(request.params)
        started = time.perf_counter()
        cached = self.results.get(job.key)
        if cached is not None:
            return ok_response(
                request.id, cached, served="result-cache",
                wall_ms=round((time.perf_counter() - started) * 1000, 3),
            )

        async def run_one() -> Dict[str, Any]:
            return await self.batcher.submit(job.group, job)

        payload, coalesced = await self.coalescer.run(job.key, run_one)
        if not coalesced:
            self.results.put(job.key, payload)
        return ok_response(
            request.id, payload, served="coalesced" if coalesced else "solve",
            wall_ms=round((time.perf_counter() - started) * 1000, 3),
        )

    def _replan_lock(self) -> asyncio.Lock:
        if self._dynamic_lock is None:
            self._dynamic_lock = asyncio.Lock()
        return self._dynamic_lock

    async def _handle_replan(self, request: Request) -> Dict[str, Any]:
        """Apply one re-planning event to the daemon's live incumbent."""
        from ..dynamic import replan

        job = resolve_replan(request.params)
        started = time.perf_counter()
        async with self._replan_lock():
            state = self._dynamic
            if job.reset or state is None:
                if job.platform_spec is None:
                    raise ProtocolError(
                        "replan needs a 'platform' spec to initialise the "
                        "incumbent (send it on the first request or with "
                        "'reset': true)"
                    )
                state = _fresh_incumbent(job.platform_spec, job.model)
            elif job.platform_spec is not None:
                raise ProtocolError(
                    "a replan incumbent is already live; pass 'reset': "
                    "true to start over on a new platform"
                )
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                self._threads,
                lambda: replan(
                    state, job.event,
                    budget=job.budget, exactness=job.exactness,
                ),
            )
            self._dynamic = result.state
            self.replans += 1
        return ok_response(
            request.id, result.as_dict(), served="replan",
            wall_ms=round((time.perf_counter() - started) * 1000, 3),
        )

    async def _run_group(
        self, group: Hashable, jobs: Sequence[SolveJob]
    ) -> List[Dict[str, Any]]:
        """Execute one flushed batch off the event loop."""
        loop = asyncio.get_running_loop()
        payloads = await loop.run_in_executor(
            self._threads, self._solve_group, group, list(jobs)
        )
        self.solves += len(payloads)
        return payloads

    def _solve_group(
        self, group: Hashable, jobs: List[SolveJob]
    ) -> List[Dict[str, Any]]:
        """Worker-thread body: one ``solve_many`` shard-out when a worker
        pool is configured and the batch has fan-out, else a serial loop
        against the shared warm cache."""
        kwargs = dict(group)
        platform_spec = kwargs.pop("platform", None)
        if self._pool is not None and len(jobs) > 1:
            batch = solve_many(
                [job.spec for job in jobs],
                processes=min(self.config.workers, len(jobs)),
                cache=self.cache,
                pool=self._pool,
                platform=platform_spec,
                **kwargs,
            )
            results = batch.results
        else:
            results = []
            for job in jobs:
                problem, platform, mapping = _resolve_job(
                    job.spec, platform_spec, None
                )
                results.append(
                    solve(
                        problem,
                        platform=platform,
                        mapping=mapping,
                        cache=self.cache,
                        **kwargs,
                    )
                )
        return [r.as_dict(include_graph=False) for r in results]

    # -- ops ----------------------------------------------------------------

    def _clear_caches(self) -> Dict[str, Any]:
        from ..optimize.placement import clear_placement_memo

        dropped = {
            "evaluation_entries": len(self.cache),
            "result_entries": len(self.results),
        }
        self.cache.clear()
        self.results.clear()
        clear_placement_memo()
        return dropped

    def stats(self) -> Dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "server": {
                "requests": self.requests,
                "errors": self.errors,
                "solves": self.solves,
                "replans": self.replans,
                "coalesced": self.coalescer.coalesced,
                "in_flight": self.coalescer.in_flight,
                "batches": self.batcher.batches,
                "batched_jobs": self.batcher.batched_jobs,
                "workers": self.config.workers,
                "batch_window": self.config.batch_window,
                "max_batch": self.config.max_batch,
                "restored_entries": self.restored_entries,
            },
            "evaluation_cache": self.cache.stats().as_dict(),
            "result_cache": self.results.stats().as_dict(),
        }

    def save_snapshot(self) -> int:
        """Persist the warm evaluation cache (once per shutdown)."""
        path = self.config.snapshot_path
        if not path:
            return 0
        saved = self.cache.save(path)
        self._snapshot_saved = True
        return saved

    async def drain(self) -> None:
        """Wait for every accepted request to finish responding."""
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        await self.batcher.drain()
        await self.coalescer.drain()

    def _stop_event(self) -> asyncio.Event:
        if self._shutdown_event is None:
            self._shutdown_event = asyncio.Event()
            if self._closing:
                self._shutdown_event.set()
        return self._shutdown_event

    async def shutdown(self, request_id: Any = None) -> Dict[str, Any]:
        """Drain, snapshot, signal every stream loop to exit."""
        await self.drain()
        saved = self.save_snapshot()
        self._closing = True
        self._stop_event().set()
        return ok_response(request_id, "bye", saved_entries=saved)

    async def aclose(self) -> None:
        """Final cleanup (idempotent): drain, snapshot, stop executors."""
        await self.drain()
        if not self._snapshot_saved:
            self.save_snapshot()
        if self._tcp_server is not None:
            self._tcp_server.close()
            await self._tcp_server.wait_closed()
            self._tcp_server = None
        self._threads.shutdown(wait=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # -- stream front ends -------------------------------------------------

    def _spawn(self, request: Request, write: Write) -> None:
        async def respond() -> None:
            try:
                response = await self.handle_request(request)
            except Exception as exc:
                # A server fault: answer it as one, never as bad input.
                self.errors += 1
                print(
                    f"serve: internal error on request {request.id!r}:",
                    file=sys.stderr,
                )
                traceback.print_exc(file=sys.stderr)
                response = error_response(
                    request.id, f"internal error: {type(exc).__name__}: {exc}"
                )
            write(response)

        task = asyncio.get_running_loop().create_task(respond())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _accept_line(self, line: str, write: Write) -> Optional[Request]:
        """Parse and dispatch one request line; returns the request only
        for ``shutdown`` (the caller sequences the drain)."""
        line = line.strip()
        if not line:
            return None
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.requests += 1
            self.errors += 1
            write(error_response(exc.request_id, str(exc)))
            return None
        if request.op == "shutdown":
            return request
        self._spawn(request, write)
        return None

    async def _shutdown_from_stream(
        self, request: Request, write: Write
    ) -> None:
        self.requests += 1
        write(await self.shutdown(request.id))

    async def run_stdio(
        self,
        *,
        stdin=None,
        stdout=None,
    ) -> None:
        """Serve JSON-lines over stdin/stdout until EOF or ``shutdown``.

        Lines are read by a daemon thread feeding an asyncio queue, so a
        ``shutdown`` arriving over TCP still lets the process exit even
        while stdin stays open.
        """
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        loop = asyncio.get_running_loop()
        queue: "asyncio.Queue[Optional[str]]" = asyncio.Queue()

        def feed() -> None:
            try:
                for line in stdin:
                    loop.call_soon_threadsafe(queue.put_nowait, line)
            except (ValueError, OSError):
                pass  # stream closed under us during shutdown
            loop.call_soon_threadsafe(queue.put_nowait, None)

        def write(response: Dict[str, Any]) -> None:
            stdout.write(encode_response(response) + "\n")
            stdout.flush()

        threading.Thread(target=feed, daemon=True, name="repro-stdin").start()
        stop = asyncio.ensure_future(self._stop_event().wait())
        try:
            while not self._closing:
                getter = asyncio.ensure_future(queue.get())
                done, _ = await asyncio.wait(
                    {getter, stop}, return_when=asyncio.FIRST_COMPLETED
                )
                if getter not in done:
                    getter.cancel()
                    break
                line = getter.result()
                if line is None:  # EOF: drain and leave quietly
                    await self.drain()
                    break
                request = self._accept_line(line, write)
                if request is not None:
                    await self._shutdown_from_stream(request, write)
                    break
        finally:
            if not stop.done():
                stop.cancel()

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0):
        """Start the TCP listener; returns the bound ``(host, port)``."""
        self._tcp_server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        return self._tcp_server.sockets[0].getsockname()[:2]

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        def write(response: Dict[str, Any]) -> None:
            writer.write((encode_response(response) + "\n").encode("utf-8"))

        stop = asyncio.ensure_future(self._stop_event().wait())
        try:
            while not self._closing:
                # Race the read against shutdown so a connection idling in
                # readline() can't keep the server from closing.
                getter = asyncio.ensure_future(reader.readline())
                done, _ = await asyncio.wait(
                    {getter, stop}, return_when=asyncio.FIRST_COMPLETED
                )
                if getter not in done:
                    getter.cancel()
                    break
                try:
                    raw = getter.result()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not raw:
                    break
                request = self._accept_line(raw.decode("utf-8"), write)
                if request is not None:
                    await self._shutdown_from_stream(request, write)
                    break
                await writer.drain()
        finally:
            if not stop.done():
                stop.cancel()
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def wait_shutdown(self) -> None:
        """Block until a ``shutdown`` request arrives (TCP-only mode)."""
        await self._stop_event().wait()


def _fresh_incumbent(platform_spec: str, model: str):
    """The empty system on *platform_spec* — every replan stream's seed."""
    from ..concurrent import MultiApplication
    from ..core import Mapping
    from ..dynamic import DynamicState
    from ..planner.catalog import load_platform
    from ..planner.facade import _coerce_model

    return DynamicState(
        multi=MultiApplication([]),
        platform=load_platform(platform_spec),
        mapping=Mapping.shared({}),
        model=_coerce_model(model),
    )


async def serve_forever(
    config: Optional[ServeConfig] = None,
    *,
    stdio: bool = True,
    tcp: Optional[str] = None,
    announce: Callable[[str], None] = lambda msg: print(msg, file=sys.stderr),
) -> PlannerServer:
    """CLI entry body: run a :class:`PlannerServer` over the requested
    front ends until EOF/shutdown; returns the (closed) server."""
    server = PlannerServer(config)
    try:
        if tcp:
            host, _, port_text = tcp.rpartition(":")
            if not host or not port_text.isdigit():
                raise ValueError(
                    f"--tcp expects HOST:PORT (e.g. 127.0.0.1:7077), got {tcp!r}"
                )
            host, port = await server.start_tcp(host, int(port_text))
            announce(f"serve: listening on tcp://{host}:{port}")
        if server.restored_entries:
            announce(
                f"serve: restored {server.restored_entries} warm cache "
                f"entries from {server.config.snapshot_path}"
            )
        if stdio:
            await server.run_stdio()
        else:
            await server.wait_shutdown()
    finally:
        await server.aclose()
    return server


__all__ = ["PlannerServer", "ServeConfig", "serve_forever"]

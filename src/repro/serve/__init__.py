"""Planner-as-a-service: the long-running ``python -m repro serve`` daemon.

The planner facade solves one problem per call; this package serves
planner traffic: an asyncio JSON-lines loop (stdio + TCP) that coalesces
identical in-flight requests (:mod:`~repro.serve.coalescer`),
micro-batches compatible ones (:mod:`~repro.serve.batcher`; sharded
through ``solve_many`` over a worker pool when one is configured), and
keeps the daemon's evaluation and result caches warm across requests —
LRU bounded and counter-instrumented
(:class:`~repro.planner.cache.TTLCache`) for the life of the process.  See
:mod:`repro.serve.protocol` for the wire format and
:mod:`repro.serve.client` for ready-made test/load clients.
"""

from .batcher import MicroBatcher
from .client import StdioServeClient, TcpServeClient
from .coalescer import Coalescer
from .protocol import (
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    ReplanJob,
    Request,
    SolveJob,
    encode_response,
    error_response,
    ok_response,
    parse_request,
    resolve_replan,
    resolve_solve,
)
from .server import PlannerServer, ServeConfig, serve_forever

__all__ = [
    "Coalescer",
    "MicroBatcher",
    "OPS",
    "PROTOCOL_VERSION",
    "PlannerServer",
    "ProtocolError",
    "ReplanJob",
    "Request",
    "ServeConfig",
    "SolveJob",
    "StdioServeClient",
    "TcpServeClient",
    "encode_response",
    "error_response",
    "ok_response",
    "parse_request",
    "resolve_replan",
    "resolve_solve",
    "serve_forever",
]

"""The planner service's wire protocol: JSON-lines requests and responses.

One request per line, one response per line, in either direction of a
byte stream (the daemon speaks the same protocol over stdin/stdout and
TCP).  A request is a JSON object::

    {"id": 1, "op": "solve", "workload": "fig1", "objective": "period"}
    {"id": 2, "op": "stats"}
    {"id": 3, "op": "shutdown"}

``op`` selects the operation; ``id`` is an opaque client token echoed in
the response (clients pipeline requests and match responses by it —
responses may arrive out of order, since solves run concurrently).  A
response is ``{"id": ..., "ok": true, "result": ...}`` plus operation
metadata, or ``{"id": ..., "ok": false, "error": "one-line message"}``.

Operations
----------
``ping``
    Liveness check; returns ``"pong"``.
``solve``
    Solve one workload.  Parameters mirror the ``repro solve`` CLI:
    ``workload`` (spec string, required), ``objective``, ``model``,
    ``method``, ``effort``, ``platform`` (spec string), ``exactness``,
    ``deadline`` (seconds — routed to the anytime portfolio), and
    ``schedule`` (bool).  The response's ``result`` is the
    :meth:`~repro.planner.PlanResult.as_dict` payload and ``served``
    says how it was produced: ``"solve"`` (this request ran the solver),
    ``"coalesced"`` (an identical in-flight request's solve was shared),
    or ``"result-cache"`` (answered from the warm result cache).
``stats``
    Server counters plus :class:`~repro.planner.CacheStats` for the
    evaluation and result caches.
``replan``
    Mutate the daemon's live incumbent shared mapping through one
    re-planning event (:mod:`repro.dynamic`).  Parameters: ``event``
    (object with ``kind`` — admit/evict/load/drain/restore/noop — plus
    the trace-CSV fields ``app``/``workload``/``rho``/``servers``),
    ``budget`` (max voluntary migrations; omitted = unlimited),
    ``platform`` (spec string — required on the first request or with
    ``reset``, rejected while an incumbent is live), ``model``,
    ``exactness``, and ``reset`` (drop the incumbent, start from the
    empty system).  Omitting ``event`` is a no-op that reports the
    incumbent.  The response's ``result`` is the
    :meth:`~repro.dynamic.ReplanResult.as_dict` payload: the new
    incumbent summary plus move accounting.  Requests are serialised on
    the incumbent — concurrent replans apply one at a time.
``clear_cache``
    Empty the daemon's two caches, its workload memo and its placement
    memo (used by load tests to measure cold mixes).  With a worker
    pool, each worker empties its own default evaluation cache and
    placement memo before the first task it runs after the clear.
``shutdown``
    Graceful stop: drain in-flight work, answer ``"bye"``, exit.

:func:`resolve_solve` validates a solve request into a :class:`SolveJob`
carrying the canonical :func:`~repro.planner.solve_key` fingerprint (the
coalescing/result-cache key) and the batching *group* — the solve
parameters minus the workload, so only requests that can ride one
``solve_many`` call batch together.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Mapping, Optional, Tuple

from ..core.ttlcache import TTLCache
from ..dynamic.events import Event
from ..planner.catalog import Workload, load_workload
from ..planner.facade import solve_key

#: Protocol revision, echoed by ``stats`` (bump on breaking changes).
#: Revision 2 dropped the cache-snapshot counts from the ``shutdown``
#: reply and from ``stats``.
PROTOCOL_VERSION = 2

#: Every operation the daemon understands.
OPS: Tuple[str, ...] = (
    "ping", "solve", "replan", "stats", "clear_cache", "shutdown",
)

#: Accepted keys of a ``solve`` request beyond ``id``/``op``.
SOLVE_PARAMS: Tuple[str, ...] = (
    "workload", "objective", "model", "method", "effort", "platform",
    "exactness", "deadline", "schedule", "robust",
)

#: Accepted keys of a ``replan`` request beyond ``id``/``op``.
REPLAN_PARAMS: Tuple[str, ...] = (
    "event", "budget", "platform", "model", "exactness", "reset",
)


class ProtocolError(ValueError):
    """A malformed request line (bad JSON, unknown op, bad parameters).

    *request_id* is the line's ``id`` when the line is a JSON object, so
    the error response still reaches the caller that sent it.
    """

    def __init__(self, message: str, request_id: Any = None) -> None:
        super().__init__(message)
        self.request_id = request_id


@dataclass(frozen=True)
class Request:
    """One parsed request line."""

    op: str
    id: Any = None
    params: Mapping[str, Any] = field(default_factory=dict)


def parse_request(line: str) -> Request:
    """Parse one JSON line into a :class:`Request` (raises
    :class:`ProtocolError` with a one-line message on malformed input)."""
    try:
        payload = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError is a ValueError, as is an integer literal over
        # the interpreter's digit limit; deep nesting recurses too far.
        raise ProtocolError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    op = payload.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of: {', '.join(OPS)}",
            request_id=payload.get("id"),
        )
    params = {k: v for k, v in payload.items() if k not in ("id", "op")}
    return Request(op=op, id=payload.get("id"), params=params)


def _flag(params: Mapping[str, Any], key: str, default: bool) -> bool:
    """A boolean parameter, which must be a JSON ``true``/``false``."""
    value = params.get(key, default)
    if not isinstance(value, bool):
        raise ProtocolError(f"{key!r} must be true or false, got {value!r}")
    return value


def ok_response(request_id: Any, result: Any, **meta: Any) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result, **meta}


def error_response(request_id: Any, message: str) -> Dict[str, Any]:
    return {"id": request_id, "ok": False, "error": str(message)}


def encode_response(response: Dict[str, Any]) -> str:
    """One compact JSON line (no embedded newlines), ready to write."""
    return json.dumps(response, separators=(",", ":"), default=str)


@dataclass(frozen=True)
class SolveJob:
    """A validated solve request, ready for the coalescer and batcher.

    ``key`` is the :func:`~repro.planner.solve_key` fingerprint —
    content-based, so two requests for ``fig1`` with equal parameters
    share it while distinct platforms or exactness tiers never do.
    ``group`` is the parameter tuple *without* the workload: jobs in one
    group are compatible enough to ride a single ``solve_many`` call.
    ``workload`` is the loaded *spec*: an in-process solve runs on it,
    while the worker pool ships the spec string and loads it there.
    """

    spec: str
    workload: Workload
    key: Hashable
    group: Tuple[Tuple[str, Any], ...]


def resolve_solve(
    params: Mapping[str, Any], workloads: Optional[TTLCache] = None
) -> SolveJob:
    """Validate ``solve`` parameters into a :class:`SolveJob`.

    Raises :class:`ProtocolError` on unknown keys and ``ValueError`` (via
    the catalog/facade coercions) on malformed specs — both surface as a
    one-line error response, never a dropped connection.  *workloads*, a
    spec → :class:`~repro.planner.catalog.Workload` memo, serves a spec it
    holds without loading it again; a spec that fails to load is never
    stored.
    """
    unknown = sorted(set(params) - set(SOLVE_PARAMS))
    if unknown:
        raise ProtocolError(
            f"unknown solve parameter(s) {unknown}; "
            f"accepted: {', '.join(SOLVE_PARAMS)}"
        )
    spec = params.get("workload")
    if not isinstance(spec, str) or not spec.strip():
        raise ProtocolError("solve requires a 'workload' spec string")
    spec = spec.strip()
    workload = None if workloads is None else workloads.get(spec)
    if workload is None:
        workload = load_workload(spec)
        if workloads is not None:
            workloads.put(spec, workload)

    platform_spec = params.get("platform")
    if platform_spec is not None and not isinstance(platform_spec, str):
        raise ProtocolError("'platform' must be a spec string")
    deadline = params.get("deadline")
    if deadline is not None:
        seconds = None
        if isinstance(deadline, (int, float)) and not isinstance(deadline, bool):
            try:
                seconds = float(deadline)
            except OverflowError:
                pass
        if seconds is None or not math.isfinite(seconds) or seconds < 0:
            raise ProtocolError(
                f"'deadline' must be a finite number of seconds >= 0, "
                f"got {deadline!r}"
            )
        deadline = seconds
    robust = params.get("robust")
    if robust is not None and not isinstance(robust, str):
        # String specs only: the batching group tuple must stay hashable,
        # and a spec string round-trips through RobustSpec.parse anyway.
        raise ProtocolError(
            "'robust' must be a spec string such as "
            "'worst_case:eps=1/10,k=12', got "
            f"{type(robust).__name__}"
        )

    solve_kwargs: Dict[str, Any] = {
        "objective": str(params.get("objective", "period")),
        "model": str(params.get("model", "overlap")),
        "method": str(params.get("method", "auto")),
        "effort": params.get("effort"),
        "exactness": params.get("exactness"),
        "deadline": deadline,
        "schedule": _flag(params, "schedule", True),
        "robust": robust,
    }

    # CLI semantics: an explicit platform wins and drops the workload's
    # pinned mapping; otherwise the bundled platform/mapping apply.
    if platform_spec is not None:
        platform, mapping = platform_spec, None
    else:
        platform, mapping = workload.platform, workload.mapping
    key = ("solve", solve_key(workload.problem, platform=platform,
                              mapping=mapping, **solve_kwargs))
    group = tuple(sorted(solve_kwargs.items(), key=lambda kv: kv[0]))
    group += (("platform", platform_spec),)
    return SolveJob(spec=spec, workload=workload, key=key, group=group)


@dataclass(frozen=True)
class ReplanJob:
    """A validated replan request (the server holds the incumbent).

    ``event`` may be ``None`` — a status no-op against the live
    incumbent (or, with ``reset``, a bare re-initialisation).
    """

    event: Optional[Event]
    budget: Optional[int]
    platform_spec: Optional[str]
    model: str
    exactness: Optional[str]
    reset: bool


def resolve_replan(params: Mapping[str, Any]) -> ReplanJob:
    """Validate ``replan`` parameters into a :class:`ReplanJob`.

    Raises :class:`ProtocolError` on unknown keys or malformed scalars
    and ``ValueError`` (via :meth:`Event.from_dict`) on a bad event —
    both become one-line error responses.
    """
    unknown = sorted(set(params) - set(REPLAN_PARAMS))
    if unknown:
        raise ProtocolError(
            f"unknown replan parameter(s) {unknown}; "
            f"accepted: {', '.join(REPLAN_PARAMS)}"
        )
    raw_event = params.get("event")
    event = None
    if raw_event is not None:
        if not isinstance(raw_event, dict):
            raise ProtocolError(
                "'event' must be an object with a 'kind' field"
            )
        event = Event.from_dict(raw_event)
    budget = params.get("budget")
    if budget is not None:
        if isinstance(budget, bool) or not isinstance(budget, int):
            raise ProtocolError(f"'budget' must be an integer, got {budget!r}")
        if budget < 0:
            raise ProtocolError(f"'budget' must be >= 0, got {budget}")
    platform_spec = params.get("platform")
    if platform_spec is not None and not isinstance(platform_spec, str):
        raise ProtocolError("'platform' must be a spec string")
    exactness = params.get("exactness")
    if exactness is not None and not isinstance(exactness, str):
        raise ProtocolError("'exactness' must be a tier name string")
    return ReplanJob(
        event=event,
        budget=budget,
        platform_spec=platform_spec,
        model=str(params.get("model", "overlap")),
        exactness=exactness,
        reset=_flag(params, "reset", False),
    )


__all__ = [
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REPLAN_PARAMS",
    "ReplanJob",
    "Request",
    "SOLVE_PARAMS",
    "SolveJob",
    "encode_response",
    "error_response",
    "ok_response",
    "parse_request",
    "resolve_replan",
    "resolve_solve",
]

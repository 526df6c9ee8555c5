"""Wire-protocol input handling of the planner daemon, end to end.

Every request line fed through :meth:`PlannerServer.run_stdio` must get
exactly one one-line response carrying its ``id``.  Bad client input is
an error response naming the bad value; a server fault is an error
response naming an internal error, with the traceback on stderr.  The
regression tests pin requests that used to get no response at all, or
were silently misread; the ``hypothesis`` properties feed arbitrary JSON
through the same path.
"""

import asyncio
import gc
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dynamic import Event
from repro.serve import PlannerServer, ProtocolError, ServeConfig, parse_request
from repro.serve.protocol import OPS, REPLAN_PARAMS, SOLVE_PARAMS


def serve_lines(lines, patch=None):
    """Feed *lines* through ``run_stdio`` of a fresh server.

    Returns ``(responses, loop_errors)``: the decoded response lines and
    every context the event loop's exception handler received (a task
    whose exception nobody retrieved lands there once collected).
    *patch*, if given, is called with the server before it starts.
    """
    stdin = io.StringIO("".join(line + "\n" for line in lines))
    stdout = io.StringIO()
    loop_errors = []

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _loop, ctx: loop_errors.append(ctx))
        server = PlannerServer(ServeConfig(batch_window=0.001))
        if patch is not None:
            patch(server)
        try:
            await server.run_stdio(stdin=stdin, stdout=stdout)
        finally:
            await server.aclose()
        gc.collect()

    asyncio.run(main())
    out = stdout.getvalue()
    assert out == "" or out.endswith("\n")
    return [json.loads(line) for line in out.splitlines()], loop_errors


def one_error(request):
    """The single error response to *request*, sent on its own."""
    responses, loop_errors = serve_lines([json.dumps(request)])
    assert loop_errors == []
    assert len(responses) == 1, responses
    (response,) = responses
    assert response["id"] == request.get("id")
    assert response["ok"] is False
    assert "\n" not in response["error"]
    return response["error"]


ADMIT = {"kind": "admit", "app": "a", "workload": "chain:n=2"}


# ------------------------------------------------------ reproduced requests


@pytest.mark.parametrize(
    "event, field",
    [
        ({**ADMIT, "rho": [1]}, "rho"),
        ({**ADMIT, "rho": True}, "rho"),
        ({**ADMIT, "time": {"t": 1}}, "time"),
        ({"kind": "drain", "servers": None}, "servers"),
        ({"kind": "drain", "servers": ["S1", 2]}, "servers"),
        ({**ADMIT, "app": 5}, "app"),
    ],
)
def test_mistyped_event_fields_get_one_error_response(event, field):
    error = one_error(
        {"id": 1, "op": "replan", "platform": "hom:n=3", "event": event}
    )
    assert field in error and "internal error" not in error


def test_reset_must_be_a_json_boolean_and_keeps_the_incumbent():
    requests = [
        {"id": 1, "op": "replan", "platform": "hom:n=3", "event": ADMIT},
        {"id": 2, "op": "replan", "platform": "hom:n=3", "reset": "false"},
        {"id": 3, "op": "replan"},
    ]
    # Replans are serialised on the incumbent, in arrival order.
    responses, loop_errors = serve_lines([json.dumps(r) for r in requests])
    assert loop_errors == []
    by_id = {r["id"]: r for r in responses}
    assert len(responses) == 3 and sorted(by_id) == [1, 2, 3]
    assert by_id[1]["ok"] and by_id[1]["result"]["applications"] == ["a"]
    assert by_id[2]["ok"] is False and "reset" in by_id[2]["error"]
    assert by_id[3]["ok"] and by_id[3]["result"]["applications"] == ["a"]


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_schedule_must_be_a_json_boolean(value):
    error = one_error(
        {"id": 1, "op": "solve", "workload": "fig1", "schedule": value}
    )
    assert "schedule" in error


@pytest.mark.parametrize(
    "value",
    ["nan", "1.5", True, False, float("nan"), float("inf"), 10 ** 400],
    ids=["nan-string", "numeric-string", "true", "false", "NaN", "Infinity",
         "beyond-float"],
)
def test_deadline_must_be_a_finite_non_negative_number(value):
    error = one_error(
        {"id": 1, "op": "solve", "workload": "fig1", "deadline": value}
    )
    assert "deadline" in error


def test_unknown_op_error_carries_the_request_id():
    assert "unknown op" in one_error({"id": "x7", "op": "frobnicate"})


@pytest.mark.parametrize(
    "line", ["1" * 5000, "[" * 100_000], ids=["huge-integer", "deep-nesting"]
)
def test_unparseable_json_is_a_protocol_error(line):
    # Python's integer digit limit and recursion limit make json.loads
    # raise ValueError / RecursionError instead of JSONDecodeError.
    with pytest.raises(ProtocolError):
        parse_request(line)


def test_short_csv_row_is_a_one_line_value_error():
    # csv.DictReader fills the missing trailing cells of a short row with
    # None; the servers cell is the last one.
    row = {"time": "0", "kind": "admit", "app": "a", "workload": "fig1",
           "rho": "", "servers": None}
    with pytest.raises(ValueError, match="servers"):
        Event.from_dict(row)


def test_server_fault_is_reported_as_an_internal_error(capsys):
    def patch(server):
        async def broken(request):
            raise RuntimeError("boom")

        server._handle_solve = broken

    responses, loop_errors = serve_lines(
        [json.dumps({"id": 9, "op": "solve", "workload": "fig1"}),
         json.dumps({"id": 10, "op": "ping"})],
        patch=patch,
    )
    assert loop_errors == []
    by_id = {r["id"]: r for r in responses}
    assert sorted(by_id) == [9, 10] and by_id[10]["result"] == "pong"
    assert by_id[9]["ok"] is False
    assert by_id[9]["error"] == "internal error: RuntimeError: boom"
    err = capsys.readouterr().err
    assert "internal error on request 9" in err and "RuntimeError: boom" in err


# ----------------------------------------------------------------- fuzzing

JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

#: Valid requests one parameter of which the fuzzer replaces.
BASE = {
    "solve": {"op": "solve", "workload": "fig1", "schedule": False},
    "replan": {"op": "replan", "platform": "hom:n=3", "event": ADMIT},
}
EVENT_FIELDS = ("kind", "app", "workload", "rho", "servers", "time")

FUZZ = settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _payload(line):
    """*line* decoded the way the server reads it, or ``None``."""
    try:
        return json.loads(line.strip())
    except (ValueError, RecursionError):
        return None


def expected_id(line):
    """The ``id`` a response to *line* must carry."""
    payload = _payload(line)
    return payload.get("id") if isinstance(payload, dict) else None


def assert_one_response_each(lines):
    lines = [line for line in lines if line.strip()]
    responses, loop_errors = serve_lines(lines)
    assert loop_errors == []
    canon = lambda value: json.dumps(value, sort_keys=True)  # noqa: E731
    assert sorted(canon(r["id"]) for r in responses) == sorted(
        canon(expected_id(line)) for line in lines
    )
    for response in responses:
        assert response["ok"] or isinstance(response["error"], str)


@st.composite
def fuzzed_request(draw, request_id):
    op = draw(st.sampled_from(sorted(BASE)))
    request = json.loads(json.dumps(BASE[op]))
    params = SOLVE_PARAMS if op == "solve" else REPLAN_PARAMS
    if op == "replan":
        params += tuple(f"event.{field}" for field in EVENT_FIELDS)
    key = draw(st.sampled_from(params))
    value = draw(JSON)
    if key.startswith("event."):
        request["event"][key[len("event."):]] = value
    else:
        request[key] = value
    request["id"] = request_id
    return json.dumps(request)


@FUZZ
@given(st.data())
def test_arbitrary_parameter_values_get_one_response_each(data):
    count = data.draw(st.integers(1, 3))
    assert_one_response_each(
        [data.draw(fuzzed_request(k)) for k in range(count)]
    )


def _is_shutdown(line):
    payload = _payload(line)
    return isinstance(payload, dict) and payload.get("op") == "shutdown"


LINES = st.one_of(
    st.text(max_size=40).filter(lambda t: "\n" not in t and "\r" not in t),
    JSON.map(json.dumps),
    st.fixed_dictionaries(
        {"op": st.sampled_from([op for op in OPS if op != "shutdown"]) | JSON},
        optional={"id": JSON, "workload": JSON, "event": JSON,
                  "platform": JSON, "reset": JSON},
    ).map(json.dumps),
).filter(lambda line: not _is_shutdown(line))


@FUZZ
@given(st.lists(LINES, min_size=1, max_size=5))
def test_arbitrary_lines_get_one_response_each(lines):
    assert_one_response_each(lines)

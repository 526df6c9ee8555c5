"""CLI error paths: malformed input exits nonzero with one line, no traceback.

Every ``python -m repro`` subcommand funnels user-input failures through
``main()``'s except clause: one ``error: ...`` line on stderr, exit code
2.  A traceback leaking through means a new failure mode slipped past
the net (regression: ``--platform hom:bw=1/0`` used to raise a bare
``ZeroDivisionError``).
"""

import pytest

from repro.__main__ import main


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "nope"],
        ["solve", "random:n=bogus"],
        ["solve", "random:n=5,seed=1,zzz=3"],
        ["solve", "fig1", "--platform", "nope"],
        ["solve", "fig1", "--platform", "hom:n=bogus"],
        ["solve", "fig1", "--platform", "hom:bw=1/0"],
        ["solve", "fig1", "--platform", "het:n=4,seed=1,zzz=2"],
        ["solve", "fig1", "--platform", "tree:racks=0"],
        ["solve", "fig1", "--platform", "tree:racks=2,servers=2,up_bw=0"],
        ["solve", "fig1", "--platform", "tree:racks=2,servers=2,rack_bw=-1"],
        ["solve", "fig1", "--platform", "tree:rocks=2"],
        ["solve", "fig1", "--platform", "torus:dims=axb"],
        ["solve", "fig1", "--platform", "torus:dims="],
        ["solve", "fig1", "--platform", "torus:dims=4x0"],
        ["solve", "fig1", "--platform", "torus:dims=3x2,bw=0"],
        ["solve", "fig1", "--platform", "torus:dims=3x2,zzz=1"],
        ["solve", "fig1", "--method", "no-such-solver"],
        ["batch", "fig1", "--platform", "nope"],
        ["compare", "nope"],
        ["concurrent", "fig1+nope", "--platform", "hom:n=3"],
        ["concurrent", "fig1+fig1", "--platform", "nope"],
        ["concurrent", "fig1+fig1", "--platform", "hom:n=3",
         "--targets", "16,8,4"],
        ["concurrent", "fig1+fig1", "--platform", "hom:n=3",
         "--targets", "a0-fig1=16,8"],
        ["profile", "nope"],
    ],
)
def test_malformed_input_is_one_line_error_rc2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "Traceback" not in out


def test_zero_denominator_message_names_the_cause(capsys):
    code, _, err = run_cli(["solve", "fig1", "--platform", "hom:bw=1/0"], capsys)
    assert code == 2
    assert "zero denominator" in err


def test_serve_no_stdio_without_tcp_is_an_error(capsys):
    code, _, err = run_cli(["serve", "--no-stdio"], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert "--tcp" in err


def test_serve_bad_tcp_spec_is_an_error(capsys):
    code, _, err = run_cli(["serve", "--tcp", "nonsense"], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert "HOST:PORT" in err


@pytest.mark.parametrize(
    "flag", [["--snapshot"], ["--cache-entries", "5"], ["--cache-ttl", "1"]]
)
def test_removed_serve_cache_flags_are_usage_errors(flag, capsys, tmp_path):
    # The evaluation cache lives only as long as the daemon: no snapshot
    # file, no size or lifetime knobs.
    if flag == ["--snapshot"]:
        flag = flag + [str(tmp_path / "warm.pkl")]
    with pytest.raises(SystemExit) as exc:
        main(["serve", *flag])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    (line,) = [text for text in err.splitlines() if "error:" in text]
    assert line.endswith(f"error: unrecognized arguments: {' '.join(flag)}")


TRACE_HEADER = "time,kind,app,workload,rho,servers\n"


@pytest.mark.parametrize(
    "row,needle",
    [
        ("0,explode,a1,fig1,,", "row 2"),           # unknown event kind
        ("0,load,a1,,abc,", "row 2"),               # non-numeric rho
        ("0,load,a1,,-2,", "row 2"),                # non-positive rho
        ("0,admit,a1,fig1,,,extra", "row 2"),       # ragged row (extra column)
        ("0,admit,,fig1,,", "application name"),    # admit without an app
    ],
)
def test_replay_malformed_csv_is_one_line_error_rc2(
    row, needle, tmp_path, capsys
):
    """Satellite regression: a malformed scenario CSV must exit 2 with a
    single row-numbered ``error:`` line — never a traceback (a ragged row
    used to surface as a bare ``TypeError`` from sorting a ``None`` key)."""
    path = tmp_path / "trace.csv"
    path.write_text(TRACE_HEADER + row + "\n")
    code, out, err = run_cli(
        ["replay", str(path), "--platform", "hom:n=4"], capsys
    )
    assert code == 2
    assert err.startswith("error: ")
    assert needle in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "Traceback" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "fig1", "--robust", "pessimal:eps=1/10"],
        ["solve", "fig1", "--robust", "worst_case:zzz=1"],
        ["solve", "fig1", "--robust", "worst_case:eps=2"],
        ["solve", "fig1", "--robust", "quantile:eps=1/10"],
        ["solve", "fig1", "--robust", "worst_case:speed=1/10"],  # no platform
        ["calibrate"],
        ["calibrate", "nope"],
        ["calibrate", "--trace", "/nonexistent/trace.csv"],
    ],
)
def test_robust_and_calibrate_errors_are_one_line_rc2(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err and "Traceback" not in out


def test_good_invocation_still_exits_zero(capsys):
    code, out, err = run_cli(["solve", "fig1"], capsys)
    assert code == 0
    assert "workload: fig1" in out

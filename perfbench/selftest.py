"""Checks of the benchmark itself; run with ``python3 -m pytest perfbench/selftest.py``.

The file name keeps it out of the repository's own ``pytest`` run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import ops  # noqa: E402
import run  # noqa: E402

WORKLOADS = ("solve-mix", "serve-mix", "replan-churn")
GENERATORS = {"solve-mix": ops.solve_mix, "serve-mix": ops.serve_mix,
              "replan-churn": ops.replan_churn}


def _spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    make = GENERATORS[workload]
    assert ops.op_hash(make(7, 5)) == ops.op_hash(make(7, 5))
    assert ops.op_hash(make(7, 5)) != ops.op_hash(make(8, 5))


def test_solve_mix_panel_is_seed_independent():
    def key(op):
        return json.dumps(op, sort_keys=True)

    assert sorted(map(key, ops.solve_mix(1, 5))) == sorted(map(key, ops.solve_mix(2, 5)))


def test_end_to_end_metrics_are_emitted_with_units():
    result = _run("--workload", "replan-churn", "--seed", "1", "--seconds", "2",
                  "--trace", "0")
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_emitted_with_units(workload):
    result = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                  "--trace", "1")
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["metrics"]["bench.trace_overhead"]["value"] > 0


def test_exact_counts_repeat_under_other_hash_seeds():
    """The second run compares its counts with the first one's record."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "solve-mix",
             "--seed", "4242", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, env=env, timeout=120, check=True)
        outputs.append(done.stdout)
    assert "changed across runs" not in outputs[1]
    assert "differ between the untraced and the traced pass" not in outputs[1]
    stars = os.path.join(run.OUT, "stars-solve-mix-4242-traced.json")
    with open(stars) as handle:
        assert json.load(handle)["stars"]["optimize.bb.expanded"] > 0


def test_injected_failure_counts_against_success_rate(monkeypatch):
    import repro.planner as planner
    import runners

    monkeypatch.setattr(runners.SolveMix, "warm", lambda self: planner.clear_default_cache())
    real = planner.solve
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise RuntimeError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(planner, "solve", flaky)
    result = _run("--workload", "solve-mix", "--seed", "1", "--seconds", "4",
                  "--trace", "0")
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_wrong_served_value_is_a_failure():
    import runners
    from hostref import HostRef

    workload = runners.ServeMix(1, 1)
    workload.run(HostRef())
    shape = next(iter(workload.served))
    workload.served[shape] = "12345/7"
    assert any(shape in failure for failure in workload.verify())

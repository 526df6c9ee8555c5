"""Experiments Figs 9-12 + Prop 17: the executable NP-hardness gadgets.

For each reduction: the forward construction meets the threshold K on
solvable RN3DM instances, and the (structure-restricted or full) decision
procedure rejects unsolvable ones.  Prop 17 reports the measured negative
finding.
"""

import pytest

from repro.analysis import text_table
from repro.reductions import (
    forest_latency,
    minlatency,
    minperiod_oneport,
    minperiod_overlap,
    orchestration_latency,
    orchestration_period,
)
from repro.reductions.partition import PartitionInstance
from repro.reductions.rn3dm import RN3DMInstance, is_solvable

import bench_helpers
from bench_helpers import record

SOLVABLE = RN3DMInstance((2, 4, 6))
UNSOLVABLE = RN3DMInstance((2, 2, 8, 8))
#: The smaller no-instance the Fig-9 decision runs in a run that does not
#: name ``benchmarks/`` (the tier-1 gate): ~3 s against ~30 s for
#: UNSOLVABLE, which ``make bench`` keeps deciding for the committed table.
UNSOLVABLE_SMALL = RN3DMInstance((2, 2, 4))


def test_fig9_orchestration_period(benchmark):
    gadget = orchestration_period.build(SOLVABLE)

    def run():
        return orchestration_period.forward_period(gadget)

    fwd = benchmark(run)
    tracked = bench_helpers.RESULTS_DIR != bench_helpers.UNTRACKED_DIR
    instance = UNSOLVABLE if tracked else UNSOLVABLE_SMALL
    assert not is_solvable(instance)
    neg = orchestration_period.decision(orchestration_period.build(instance))
    rows = [
        ("forward period on solvable (K=2n+3)", gadget.K, fwd),
        (f"decision on unsolvable ({','.join(map(str, instance.A))})",
         "False", str(neg)),
    ]
    record("fig9_reduction", text_table(["check", "expected", "measured"], rows))
    assert fwd == gadget.K
    assert not neg


def test_fig10_minperiod_overlap(benchmark):
    gadget = minperiod_overlap.build(SOLVABLE)

    def run():
        return minperiod_overlap.forward_period(gadget)

    fwd = benchmark(run)
    bad = minperiod_overlap.build(UNSOLVABLE)
    neg = minperiod_overlap.structure_restricted_decision(bad)
    obs = minperiod_overlap.verify_observations(gadget)
    rows = [
        ("forward period <= K = 3/2", "True", str(fwd <= gadget.K)),
        ("structure decision on unsolvable", "False", str(neg)),
        ("proof observations violated", "0", len(obs)),
    ]
    record("fig10_reduction", text_table(["check", "expected", "measured"], rows))
    assert fwd <= gadget.K and not neg and not obs


def test_fig11_minperiod_oneport(benchmark):
    gadget = minperiod_oneport.build(SOLVABLE)

    def run():
        return minperiod_oneport.forward_period(gadget)

    fwd = benchmark(run)
    bad = minperiod_oneport.build(UNSOLVABLE)
    neg = minperiod_oneport.structure_restricted_decision(bad)
    obs = minperiod_oneport.verify_observations(gadget)
    rows = [
        ("forward period <= K = n+3", "True", str(fwd <= gadget.K)),
        ("structure decision on unsolvable", "False", str(neg)),
        ("proof observations violated", "0", len(obs)),
    ]
    record("fig11_reduction", text_table(["check", "expected", "measured"], rows))
    assert fwd <= gadget.K and not neg and not obs


def test_fig12_orchestration_latency(benchmark):
    gadget = orchestration_latency.build(SOLVABLE)

    def run():
        return orchestration_latency.optimal_latency(gadget)

    opt = benchmark(run)
    bad = orchestration_latency.build(UNSOLVABLE)
    bad_opt = orchestration_latency.optimal_latency(bad)
    rows = [
        ("optimal latency on solvable (K=n+4+n^2)", gadget.K, opt),
        ("optimal latency on unsolvable", f"> {bad.K}", bad_opt),
        ("matches generic branch-and-bound", "True",
         str(opt == orchestration_latency.optimal_latency_branch_and_bound(gadget))),
    ]
    record("fig12_reduction", text_table(["check", "expected", "measured"], rows))
    assert opt == gadget.K
    assert bad_opt > bad.K


def test_minlatency_gadget(benchmark):
    gadget = minlatency.build(SOLVABLE)

    def run():
        return minlatency.optimal_fork_join_latency(gadget)

    opt = benchmark(run)
    bad = minlatency.build(UNSOLVABLE)
    rows = [
        ("solvable optimum <= K", "True", str(opt <= gadget.K)),
        ("unsolvable optimum > K", "True",
         str(minlatency.optimal_fork_join_latency(bad) > bad.K)),
        ("wrong structures above K", "all", "all"
         if all(v > gadget.K for _, v in minlatency.structure_penalties(gadget))
         else "VIOLATION"),
    ]
    record("minlatency_reduction", text_table(["check", "expected", "measured"], rows))
    assert opt <= gadget.K
    assert minlatency.optimal_fork_join_latency(bad) > bad.K


def test_prop17_forest_latency(benchmark):
    """Reproduction finding: the printed Prop-17 gadget is monotone in the
    chained sum — it does not discriminate balanced subsets (see
    EXPERIMENTS.md)."""
    gadget = forest_latency.build(PartitionInstance((3, 5, 3, 5)))

    def run():
        return forest_latency.full_profile(gadget)

    profile = benchmark(run)
    best = min(lat for _, lat in profile)
    full = forest_latency.subset_latency(gadget, range(4))
    rows = [
        ("paper claim: balanced subset optimal", "True", "False (monotone)"),
        ("measured optimum = full chain", "-", str(full == best)),
        ("discriminates solvable vs unsolvable", "True", "False"),
    ]
    record("prop17_reduction", text_table(["check", "paper", "measured"], rows))
    assert full == best  # the measured (negative) finding, pinned

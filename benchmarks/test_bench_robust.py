"""Robust vs nominal planning under sampled parameter perturbations.

A seeded sweep over fragile catalog instances (``noisy:n=6`` — costs
spread over an order of magnitude, selectivities clustered around 1, so
the optimal tree hinges on small parameter differences).  Each instance
is solved three ways — nominal, ``worst_case`` robust and
``quantile(9/10)`` robust over the same seeded ±15% scenario set — and
every plan is exact-scored on every scenario.

Asserted shape — the PR's acceptance criteria, machine-independent:

* **soundness**: on every instance, each robust plan's robust score is
  <= the nominal-optimal plan's score under the same mode (guaranteed by
  construction: the nominal candidate is always certified);
* **separation**: on at least a third of the instances the worst-case
  robust plan differs from the nominal optimum AND is strictly better
  under perturbation — robust planning has something to win here, it is
  not a no-op.

Records ``benchmarks/results/BENCH_robust.json`` (uploaded as a CI
artifact and under ``compare_bench.py``, which compares every instance's
values, scores and ratios exactly; it holds no wall times) and the human
table to ``robust_degradation.txt``.
"""

import json
from fractions import Fraction

from repro.planner import load_workload, solve
from repro.robust import RobustSpec, degradation_report

from bench_helpers import RESULTS_DIR, record

N = 6
SEEDS = range(10)
SCENARIOS = 10
EPS = Fraction(15, 100)

#: At least this fraction of instances must show a strict robust win.
MIN_SEPARATION = 1 / 3


def _spec(mode, seed, q=None):
    return RobustSpec(
        mode=mode, q=q, scenarios=SCENARIOS, seed=seed,
        cost_rel=EPS, selectivity_rel=EPS,
    )


def test_robust_plans_never_degrade_more_than_nominal():
    rows = []
    strict_wins = 0
    for seed in SEEDS:
        app = load_workload(f"noisy:n={N},seed={seed}").application
        worst = _spec("worst_case", seed)
        quant = _spec("quantile", seed, q=Fraction(9, 10))

        report_w = degradation_report(app, worst)
        report_q = degradation_report(app, quant)

        # soundness: robust never scores worse than nominal, either mode
        assert report_w.robust_score <= report_w.nominal_score, seed
        assert report_q.robust_score <= report_q.nominal_score, seed
        if report_w.plans_differ and report_w.improvement > 0:
            strict_wins += 1

        nominal = solve(app, schedule=False)
        robust_w = solve(app, robust=worst, schedule=False)
        # the solver's certified value equals the report's robust score
        assert robust_w.value == report_w.robust_score, seed

        rows.append({
            "workload": f"noisy:n={N},seed={seed}",
            "nominal_value": str(nominal.value),
            "worst_case": {
                "spec": worst.label(),
                "plans_differ": report_w.plans_differ,
                "nominal_score": str(report_w.nominal_score),
                "robust_score": str(report_w.robust_score),
                "improvement": float(report_w.improvement),
                "nominal_worst_ratio": float(report_w.nominal_worst_ratio),
                "robust_worst_ratio": float(report_w.robust_worst_ratio),
            },
            "quantile_90": {
                "spec": quant.label(),
                "plans_differ": report_q.plans_differ,
                "nominal_score": str(report_q.nominal_score),
                "robust_score": str(report_q.robust_score),
                "improvement": float(report_q.improvement),
            },
        })

    # separation: the sweep must contain real robust wins, not ties only
    assert strict_wins >= len(list(SEEDS)) * MIN_SEPARATION, strict_wins

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_robust.json").write_text(
        json.dumps(
            {
                "sweep": {
                    "family": f"noisy:n={N}",
                    "seeds": len(list(SEEDS)),
                    "scenarios": SCENARIOS,
                    "eps": str(EPS),
                },
                "strict_wins": strict_wins,
                "instances": rows,
            },
            indent=2,
        )
        + "\n"
    )

    lines = [
        "robust vs nominal degradation (noisy:n=6 sweep, ±15%, "
        f"{SCENARIOS} scenarios/instance)",
        "",
        f"{'seed':>4} {'nominal':>10} {'wc nominal':>11} {'wc robust':>11} "
        f"{'win':>7} {'q90 win':>8} {'differs':>7}",
    ]
    for seed, row in zip(SEEDS, rows):
        wc = row["worst_case"]
        lines.append(
            f"{seed:>4} {float(Fraction(row['nominal_value'])):>10.4g} "
            f"{float(Fraction(wc['nominal_score'])):>11.4g} "
            f"{float(Fraction(wc['robust_score'])):>11.4g} "
            f"{wc['improvement']:>7.2%} "
            f"{row['quantile_90']['improvement']:>8.2%} "
            f"{'yes' if wc['plans_differ'] else 'no':>7}"
        )
    lines.append("")
    lines.append(
        f"strict worst-case wins: {strict_wins}/{len(list(SEEDS))} instances"
    )
    record("robust_degradation", "\n".join(lines))

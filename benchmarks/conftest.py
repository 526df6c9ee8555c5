"""Benchmark-suite conftest (helpers live in ``bench_helpers``).

Kept minimal on purpose: two ``conftest`` modules (this one and
``tests/conftest.py``) must never be imported *by name* from test code —
the benchmark helpers moved to :mod:`bench_helpers` so the import stays
unambiguous regardless of pytest's collection order.
"""

import pathlib

import bench_helpers

HERE = pathlib.Path(__file__).resolve().parent


def pytest_configure(config):
    """Rewrite the tracked tables only when the benchmarks were asked for.

    ``make bench`` and its ``bench-*`` siblings name this directory (or a
    file in it) on the command line and refresh ``benchmarks/results/``.
    A bare ``pytest`` — the tier-1 gate — runs the same benchmark
    assertions but writes its tables and JSON to the gitignored
    :data:`bench_helpers.UNTRACKED_DIR`, so it never rewrites a tracked file.
    """
    cwd = pathlib.Path(config.invocation_params.dir)
    for arg in config.args:
        path = (cwd / arg.split("::")[0]).resolve()
        if path == HERE or HERE in path.parents:
            return
    bench_helpers.RESULTS_DIR = bench_helpers.UNTRACKED_DIR

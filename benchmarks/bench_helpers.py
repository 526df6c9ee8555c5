"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table/figure/example of the paper, asserts
the *shape* of the result (who wins, by what factor, where thresholds sit)
and records a human-readable table under ``benchmarks/results/`` so the
paper-vs-measured comparison survives pytest's output capture (a bare
tier-1 ``pytest`` run writes to the gitignored :data:`UNTRACKED_DIR`).

This module is deliberately *not* named ``conftest``: benchmark modules
import it by name, and a plain ``import conftest`` is ambiguous once
``tests/conftest.py`` exists too (whichever directory pytest put on
``sys.path`` first would win).
"""

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Where a run that does not name ``benchmarks/`` (the tier-1 gate) writes
#: instead — see ``conftest.py``; gitignored.
UNTRACKED_DIR = pathlib.Path(__file__).parent / ".tier1-results"


def record(name: str, text: str) -> None:
    """Write a result table to ``RESULTS_DIR/<name>.txt`` and echo it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n[{name}]\n{text}")

"""Every layer the benchmark tracer wraps still exists where it looks.

``perfbench/spans.py::TARGETS`` names the functions and methods that a
traced benchmark run (``perfbench/run.py --trace 1``) wraps to report
per-layer time.  ``Tracer.install`` skips a method that is no longer
defined in its own class body, so a refactor that moves one into a base
class, or renames it, would silently drop that layer from the per-layer
numbers.  This test resolves every target the way ``install`` does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_spans().TARGETS


@pytest.mark.parametrize(
    "module_name,attr", [(module, attr) for _, module, attr, _ in TARGETS],
    ids=[f"{module}:{attr}" for _, module, attr, _ in TARGETS],
)
def test_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name)
        assert method in vars(cls), f"{cls_name}.{method} not in its class body"
    else:
        assert callable(getattr(owner, attr))


def test_batch_wait_hooks_resolve():
    from repro.serve.batcher import MicroBatcher
    from repro.serve.server import PlannerServer

    assert "submit" in vars(MicroBatcher)
    assert "_run_group" in vars(PlannerServer)


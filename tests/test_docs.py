"""The documentation executes: doctests + README/docs code blocks."""

import doctest
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent

#: Modules whose docstrings carry runnable examples (the docstring pass).
DOCTEST_MODULES = [
    "repro",
    "repro.concurrent",
    "repro.concurrent.multiapp",
    "repro.dynamic",
    "repro.core.numeric",
    "repro.core.platform",
    "repro.core.topology",
    "repro.core.ttlcache",
    "repro.optimize.hierarchy",
    "repro.optimize.placement",
    "repro.planner",
    "repro.planner.concurrent",
    "repro.planner.batch",
    "repro.planner.cache",
    "repro.planner.catalog",
    "repro.planner.facade",
    "repro.planner.registry",
    "repro.optimize.branch_and_bound",
    "repro.optimize.chains",
    "repro.optimize.evaluation",
    "repro.optimize.exhaustive",
    "repro.optimize.greedy",
    "repro.optimize.incremental",
    "repro.optimize.local_search",
    "repro.optimize.nocomm",
    "repro.scheduling.inorder",
    "repro.scheduling.latency",
    "repro.scheduling.oneport_overlap",
    "repro.scheduling.outorder",
    "repro.scheduling.overlap",
]


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_module_doctests(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.attempted > 0, f"{module_name} has no doctest examples"
    assert results.failed == 0


def _python_blocks(path: pathlib.Path):
    text = path.read_text()
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


@pytest.mark.parametrize("doc", ["README.md", "docs/api.md"])
def test_markdown_code_blocks_execute(doc):
    """Every ```python block in the docs runs (blocks share a namespace)."""
    blocks = _python_blocks(ROOT / doc)
    assert blocks, f"{doc} has no python examples"
    namespace = {}
    for i, block in enumerate(blocks):
        try:
            exec(compile(block, f"{doc}[block {i}]", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - diagnostic
            pytest.fail(f"{doc} block {i} failed: {exc}\n{block}")

"""Spans around calls into each layer, recorded from the benchmark's side.

``install`` wraps each layer function named in ``TARGETS`` and rebinds
every module attribute of the ``repro`` package that refers to it, so
callers that imported the name (``from ..cyclic import minimum_period``)
and callers that look it up late (``from .greedy import greedy_forest``
inside a function) both reach the wrapper.  Methods are wrapped on their
class.  Spans (name, start, end, parent, op id, count) stay in memory and
are turned into per-layer metrics when the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Operation the current span belongs to (asyncio tasks copy it; worker
#: threads of the serve daemon see the default, -1).
OP_ID: "contextvars.ContextVar[int]" = contextvars.ContextVar("op_id", default=-1)


def _rows(args: Tuple[Any, ...]) -> int:
    return len(args[1])


_EVALUATOR_METHODS = ("value", "mapping", "score_reassign", "apply_reassign",
                      "score_swap", "apply_swap")

#: (span name, module, attribute or Class.method, count function).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("planner.solve", "repro.planner.facade", "solve", None),
    ("planner.solve_key", "repro.planner.facade", "solve_key", None),
    ("planner.load_workload", "repro.planner.catalog", "load_workload", None),
    ("optimize.bb", "repro.optimize.branch_and_bound", "bb_minperiod", None),
    ("optimize.bb", "repro.optimize.branch_and_bound", "bb_minlatency", None),
    ("optimize.seed", "repro.optimize.greedy", "greedy_forest", None),
    ("optimize.seed", "repro.optimize.local_search", "local_search_forest", None),
    ("optimize.placement", "repro.optimize.placement", "optimize_mapping", None),
    ("optimize.placement", "repro.optimize.placement", "optimize_shared_mapping", None),
    ("optimize.placement_evaluator", "repro.optimize.incremental",
     "placement_evaluator", None),
    *(
        ("optimize.placement_evaluator", "repro.optimize.incremental",
         f"{cls}.{method}", None)
        for cls in ("IncrementalSharedCosts", "CertifiedPlacementCosts",
                    "FullPlacementCosts")
        for method in _EVALUATOR_METHODS
    ),
    *(
        ("core.exact", "repro.core.costs", f"CostModel.{method}", None)
        for method in ("__init__", "period_lower_bound", "latency_lower_bound")
    ),
    *(
        ("core.float", "repro.core.numeric", f"FloatCosts.{method}", None)
        for method in ("__init__", "period_lower_bound", "latency_lower_bound")
    ),
    ("core.batched", "repro.core.batched", "ForestBatch.periods", _rows),
    ("core.batched", "repro.core.batched", "MappingBatch.values", _rows),
    ("scheduling.period", "repro.scheduling.overlap", "schedule_period_overlap", None),
    ("scheduling.period", "repro.scheduling.inorder", "inorder_schedule", None),
    ("scheduling.period", "repro.scheduling.outorder", "outorder_schedule", None),
    ("scheduling.latency", "repro.scheduling.latency", "tree_latency_schedule", None),
    ("scheduling.latency", "repro.scheduling.latency", "best_latency_schedule", None),
    ("scheduling.latency", "repro.scheduling.latency", "oneport_latency_schedule", None),
    ("cyclic.mcr", "repro.cyclic.mcr", "minimum_period", None),
    ("serve.parse", "repro.serve.protocol", "parse_request", None),
    ("serve.resolve", "repro.serve.protocol", "resolve_solve", None),
    ("serve.encode", "repro.serve.protocol", "encode_response", None),
    ("serve.solve_thread", "repro.serve.server", "PlannerServer._solve_group", None),
    ("dynamic.replan", "repro.dynamic.replan", "replan", None),
    ("dynamic.apply_event", "repro.dynamic.replan", "apply_event", None),
    ("dynamic.cold_solve", "repro.dynamic.replan", "cold_solve", None),
    *(
        ("concurrent.costs", "repro.concurrent.costs", f"ConcurrentCosts.{method}", None)
        for method in ("__init__", "system_period", "max_utilisation", "is_feasible")
    ),
)

#: Span names whose metric is self time rather than inclusive time.
SELF_TIMED = ("planner.solve", "optimize.bb", "dynamic.replan")
#: Span names whose calls (or rows) are reported as counts.
COUNTED = {"core.exact": "calls", "core.float": "calls", "core.batched": "rows",
           "cyclic.mcr": "calls", "dynamic.cold_solve": "calls"}


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.active = False
        self._local = threading.local()
        self._patched: List[Tuple[Any, str, Any]] = []
        #: (submitted at, seconds waited) of each serve job in the micro-batcher.
        self.batch_waits: List[Tuple[float, float]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None,
                    OP_ID.get(), count(args) if count else 1]
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                self.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every target at every name the package binds it to."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "repro" or n.startswith("repro."))]
        for name, module_name, attr, count in TARGETS:
            owner: Any = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                if attr in vars(owner):
                    self._rebind(owner, attr, self.wrap(name, vars(owner)[attr], count))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        self._install_batch_wait()
        self.active = True

    def _install_batch_wait(self) -> None:
        """Time from ``MicroBatcher.submit`` to the start of the job's batch.

        The server hands ``_run_group`` to its batcher when it is built,
        so this must be installed before the traced server is created.
        """
        from repro.serve.batcher import MicroBatcher
        from repro.serve.server import PlannerServer

        submitted: Dict[int, float] = {}
        submit = vars(MicroBatcher)["submit"]
        run_group = vars(PlannerServer)["_run_group"]

        async def timed_submit(batcher, group, job):
            submitted[id(job)] = time.perf_counter()
            return await submit(batcher, group, job)

        async def timed_run_group(server, group, jobs):
            now = time.perf_counter()
            for job in jobs:
                since = submitted.pop(id(job), now)
                self.batch_waits.append((since, now - since))
            return await run_group(server, group, jobs)

        self._rebind(MicroBatcher, "submit", timed_submit)
        self._rebind(PlannerServer, "_run_group", timed_run_group)

    def _rebind(self, owner: Any, key: str, value: Any) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        self.active = False
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        """Write every span as CSV: name, start, end, parent row, op, count."""
        rows = {id(span): k for k, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            handle.write("name,start_s,end_s,parent,op,count\n")
            for span in self.spans:
                parent = rows.get(id(span[3]), -1)
                handle.write(f"{span[0]},{span[1]:.9f},{span[2]:.9f},{parent},"
                             f"{span[4]},{span[5]}\n")

    def metrics(self, scale: float, since: float) -> Dict[str, float]:
        """Per-layer ms (inclusive, or self for ``SELF_TIMED``) and counts
        over the spans that started at or after *since*.

        Inclusive time counts a span only when no ancestor carries the
        same name, so recursion and nested same-layer calls are not
        counted twice.  *scale* turns measured time into nominal time.
        """
        spans = [span for span in self.spans if span[1] >= since]
        children = defaultdict(float)
        for span in spans:
            if span[3] is not None:
                children[id(span[3])] += span[2] - span[1]
        inclusive: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        counts: Dict[str, int] = defaultdict(int)
        for span in spans:
            name, start, end, parent = span[0], span[1], span[2], span[3]
            duration = end - start
            own[name] += duration - children[id(span)]
            counts[name] += span[5]
            while parent is not None and parent[0] != name:
                parent = parent[3]
            if parent is None:
                inclusive[name] += duration
        out: Dict[str, float] = {}
        for name, _module, _attr, _count in TARGETS:
            if name in SELF_TIMED:
                out[f"{name}.self_ms"] = own[name] * 1000.0 * scale
            else:
                out[f"{name}.ms"] = inclusive[name] * 1000.0 * scale
            if name in COUNTED:
                out[f"{name}.{COUNTED[name]}"] = counts[name]
        waits = [wait for at, wait in self.batch_waits if at >= since]
        out["serve.batch_wait_ms"] = 1000.0 * scale * sum(waits) / max(1, len(waits))
        return out

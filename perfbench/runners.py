"""The three workloads, driven through the public API with per-op checks.

Each workload's ``run`` replays its generated list once: it builds the
layer's objects and warms up (set-up), then times every operation, checks
its output, and samples the host reference between operations.  An op fails
when it raises, when a well-formed request gets an error response or a
malformed one a success, when its plan is invalid or disagrees with its
own operation list, when a served result differs from the library's, or
when a replan leaves a live service unmapped or on a drained server.
Every failure is kept with its cause.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

import repro.dynamic as dynamic
import repro.planner as planner
import repro.serve.protocol as protocol
from repro.core import CostModel
from repro.dynamic import Event
from repro.optimize.placement import placement_memo_size
from repro.serve.server import PlannerServer, ServeConfig

import ops as opgen
from hostref import HostRef
from spans import OP_ID

#: Single-caller loops sample the host reference every this many ops.
REF_EVERY = 5


@dataclass
class PassResult:
    """What one pass over the list measured and found."""

    started_at: float = 0.0
    wall: float = 0.0
    latencies: List[float] = field(default_factory=list)
    labels: List[str] = field(default_factory=list)
    #: Host-reference samples taken before each op started.
    ref_index: List[int] = field(default_factory=list)
    #: Timed stretches of the pass: (seconds, samples taken before it).
    segments: List[Tuple[float, int]] = field(default_factory=list)
    values: List[Any] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    class_time: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    class_count: Counter = field(default_factory=Counter)
    #: Counts that must repeat exactly from run to run.
    stars: Dict[str, int] = field(default_factory=dict)
    #: Program-reported ratios (cache hit rates, batches).
    readouts: Dict[str, float] = field(default_factory=dict)

    def record(self, cls: str, elapsed: float, label: str, ref_index: int) -> None:
        self.attempted += 1
        self.latencies.append(elapsed)
        self.labels.append(label)
        self.ref_index.append(ref_index)
        self.class_time[cls] += elapsed
        self.class_count[cls] += 1


def _rate(hits: int, lookups: int) -> float:
    return hits / lookups if lookups else 0.0


def _plan_failure(result) -> Optional[str]:
    plan = result.plan
    if plan is None:
        return "no plan returned"
    if not plan.is_valid():
        return "plan fails Plan.is_valid()"
    own = plan.period if result.objective == "period" else plan.latency
    if own != result.value:
        return (f"returned {result.objective} {result.value} != its operation "
                f"list's {own}")
    return None


def _bb_stars(stars: Counter, extras: Dict[str, Any]) -> None:
    for key in ("expanded", "pruned", "evaluated"):
        if key in extras:
            stars[f"optimize.bb.{key}"] += int(extras[key])


class Workload:
    """Defaults for a workload whose ops are all checked as they complete."""

    def verify(self) -> List[str]:
        """Checks that need the whole pass; returns failure causes."""
        return []

    @staticmethod
    def quality_values(result: PassResult) -> List[float]:
        """The objective values ``plan_quality`` averages."""
        return result.values


# ---------------------------------------------------------------------------
# solve-mix
# ---------------------------------------------------------------------------

class SolveMix(Workload):
    """Closed loop, one caller: ``planner.solve`` with default caches."""

    tail_percentile = 95

    def __init__(self, seed: int, seconds: float) -> None:
        self.ops = self.listing = opgen.solve_mix(seed, seconds)
        self.platforms = {"het4": planner.load_platform("het4")}
        self.problems = []
        for op in self.ops:
            workload = planner.load_workload(op["spec"])
            self.problems.append(workload.graph if op.get("graph") else workload.application)

    def warm(self) -> None:
        """Untimed warm-up over every code path the list uses, then cold caches."""
        fig1 = planner.load_workload("fig1").graph
        for model in ("overlap", "inorder", "outorder"):
            planner.solve(fig1, model=model)
        small = planner.load_workload("random:n=6,seed=0").application
        planner.solve(small)
        planner.solve(small, objective="latency")
        planner.solve(small, platform=self.platforms["het4"])
        planner.clear_default_cache()

    def run(self, href: HostRef, timed: bool = True) -> PassResult:
        self.warm()
        out = PassResult(started_at=time.perf_counter())
        if not timed:
            return out
        stars: Counter = Counter()
        for i, (op, problem) in enumerate(zip(self.ops, self.problems)):
            if i % REF_EVERY == 0:
                href.sample()
            token = OP_ID.set(i)
            started = time.perf_counter()
            try:
                result = planner.solve(
                    problem, objective=op["objective"], model=op["model"],
                    platform=self.platforms.get(op.get("platform")),
                )
            except Exception as exc:  # a failed op is counted, never fatal
                result, cause = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            OP_ID.reset(token)
            out.record(op["cls"], elapsed, f"{op['cls']} {op['spec']} {op['model']}",
                       len(href.samples_ms))
            out.wall += elapsed
            out.segments.append((elapsed, len(href.samples_ms)))
            if result is not None:
                cause = _plan_failure(result)
                _bb_stars(stars, result.stats.extras)
                if cause is None:
                    out.values.append(float(result.value))
            if cause is not None:
                out.failures.append(f"op {i} {op['cls']} {op['spec']}: {cause}")
        cache = planner.default_cache().stats()
        stars["planner.eval_cache.entries"] = cache.entries
        stars["optimize.placement.memo_entries"] = placement_memo_size()
        out.stars = dict(stars)
        out.readouts["planner.eval_cache.hit_rate"] = _rate(cache.hits, cache.lookups)
        return out


# ---------------------------------------------------------------------------
# serve-mix
# ---------------------------------------------------------------------------

class ServeMix(Workload):
    """Closed loop, two request streams on one event loop, in-process daemon."""

    tail_percentile = 99

    def __init__(self, seed: int, seconds: float) -> None:
        self.data = self.listing = opgen.serve_mix(seed, seconds)
        self.served: Dict[str, str] = {}

    def run(self, href: HostRef, timed: bool = True) -> PassResult:
        return asyncio.run(self._run(href, timed))

    async def _run(self, href: HostRef, timed: bool) -> PassResult:
        server = PlannerServer(ServeConfig())
        try:
            for k, spec in enumerate(self.data["hot"]):
                response = await server.handle_request(
                    {"id": f"hot{k}", "op": "solve", "workload": spec})
                if not response["ok"]:
                    raise RuntimeError(f"hot shape {spec} failed: {response['error']}")
                self.served.setdefault(spec, response["result"]["value"])
            await server.handle_request({"id": "warm", "op": "ping"})
            out = PassResult(started_at=time.perf_counter())
            if timed:
                await self._timed(server, href, out)
        finally:
            await server.aclose()
        return out

    async def _timed(self, server: PlannerServer, href: HostRef, out: PassResult) -> None:
        stars: Counter = Counter()
        streams = self.data["streams"]
        counter = itertools.count()

        async def send(item: Dict[str, Any], line: str) -> None:
            op_id = next(counter)
            OP_ID.set(op_id)
            started = time.perf_counter()
            try:
                try:
                    request = protocol.parse_request(line)
                except protocol.ProtocolError as exc:
                    response = protocol.error_response(None, str(exc))
                else:
                    response = await server.handle_request(request)
                encoded = protocol.encode_response(response)
            except Exception as exc:  # a failed op is counted, never fatal
                out.record(item["cls"], time.perf_counter() - started, line,
                           len(href.samples_ms))
                out.failures.append(f"request {op_id} {item['cls']}: raised "
                                    f"{type(exc).__name__}: {exc}")
                return
            out.record(item["cls"], time.perf_counter() - started, line,
                       len(href.samples_ms))
            cause = self._check(item, json.loads(encoded), stars)
            if cause is not None:
                out.failures.append(f"request {op_id} {item['cls']} {line[:80]}: {cause}")

        async def stream(items: List[Dict[str, Any]]) -> None:
            for item in items:
                await asyncio.gather(*(send(item, line) for line in item["lines"]))

        for start in range(0, max(map(len, streams)), opgen.WAVE_ITEMS):
            href.sample()
            started = time.perf_counter()
            await asyncio.gather(*(stream(s[start:start + opgen.WAVE_ITEMS])
                                   for s in streams))
            elapsed = time.perf_counter() - started
            out.wall += elapsed
            out.segments.append((elapsed, len(href.samples_ms)))
        out.values = [float(Fraction(v)) for v in self.served.values()]
        stats = server.stats()
        for key in ("requests", "errors", "solves", "coalesced"):
            stars[f"serve.{key}"] = stats["server"][key]
        stars["planner.eval_cache.entries"] = stats["evaluation_cache"]["entries"]
        stars["optimize.placement.memo_entries"] = placement_memo_size()
        out.stars = dict(stars)
        evaluation, results = server.cache.stats(), server.results.stats()
        out.readouts.update({
            "planner.eval_cache.hit_rate": _rate(evaluation.hits, evaluation.lookups),
            "serve.result_cache.hit_rate": _rate(results.hits, results.lookups),
            "serve.batches": stats["server"]["batches"],
        })

    def _check(self, item: Dict[str, Any], response: Dict[str, Any],
               stars: Counter) -> Optional[str]:
        if not item["ok"]:
            return None if response.get("ok") is False else "malformed request got a success"
        if response.get("ok") is not True:
            return f"error response: {response.get('error')}"
        if item["shape"] is None:
            return None
        result = response["result"]
        if result.get("plan_valid") is not True:
            return "plan fails Plan.is_valid()"
        if result["scheduled_value"] != result["value"]:
            return (f"returned value {result['value']} != its operation list's "
                    f"{result['scheduled_value']}")
        if response.get("served") == "solve":
            _bb_stars(stars, result["stats"]["extras"])
        first = self.served.setdefault(item["shape"], result["value"])
        if first != result["value"]:
            return f"served {result['value']} after serving {first} for the same shape"
        return None

    def verify(self) -> List[str]:
        """Each distinct served shape against a fresh library ``solve()``."""
        failures = []
        for spec, value in sorted(self.served.items()):
            expected = planner.solve(planner.load_workload(spec).application,
                                     cache=planner.EvaluationCache())
            if str(expected.value) != value:
                failures.append(f"shape {spec}: served {value}, library solve() "
                                f"returns {expected.value}")
        return failures


# ---------------------------------------------------------------------------
# replan-churn
# ---------------------------------------------------------------------------

class ReplanChurn(Workload):
    """Closed loop, one caller: ``dynamic.replan`` over a steady churn trace."""

    tail_percentile = 90

    def __init__(self, seed: int, seconds: float) -> None:
        data = self.listing = opgen.replan_churn(seed, seconds)
        self.platform = planner.load_platform(opgen.REPLAN_PLATFORM)
        groups = [members for _label, members in self.platform.topology.groups()]
        self.setup = [self._event(e, groups) for e in data["setup"]]
        self.events = [self._event(e, groups) for e in data["events"]]
        self.kinds = [e["kind"] for e in data["events"]]

    @staticmethod
    def _event(raw: Dict[str, Any], groups) -> Event:
        if "group" in raw:
            return Event(raw["kind"], servers=groups[raw["group"]])
        rho = Fraction(raw["rho"]) if "rho" in raw else None
        return Event(raw["kind"], app=raw["app"], workload=raw.get("workload", ""),
                     rho=rho)

    def run(self, href: HostRef, timed: bool = True) -> PassResult:
        planner.clear_default_cache()
        state = dynamic.initial_state([], platform=self.platform)
        for event in self.setup:
            state = dynamic.replan(state, event, budget=opgen.REPLAN_BUDGET).state
        out = PassResult(started_at=time.perf_counter())
        if not timed:
            return out
        stars: Counter = Counter()
        for i, (kind, event) in enumerate(zip(self.kinds, self.events)):
            if i % REF_EVERY == 0:
                href.sample()
            token = OP_ID.set(i)
            started = time.perf_counter()
            try:
                result = dynamic.replan(state, event, budget=opgen.REPLAN_BUDGET)
            except Exception as exc:  # a failed op is counted, never fatal
                result, cause = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            OP_ID.reset(token)
            out.record(kind, elapsed, event.label(), len(href.samples_ms))
            out.wall += elapsed
            out.segments.append((elapsed, len(href.samples_ms)))
            if result is not None:
                cause = self._check(result)
                state = result.state
                stars["dynamic.moved"] += len(result.moved)
                stars["dynamic.forced"] += len(result.forced)
                stars["dynamic.fallbacks"] += int(result.fallback)
                stars["dynamic.infeasible"] += int(not result.feasible)
                if cause is None:
                    out.values.append(result)
            if cause is not None:
                out.failures.append(f"event {i} {event.label()}: {cause}")
        stars["planner.eval_cache.entries"] = planner.default_cache().stats().entries
        stars["optimize.placement.memo_entries"] = placement_memo_size()
        out.stars = dict(stars)
        cache = planner.default_cache().stats()
        out.readouts["planner.eval_cache.hit_rate"] = _rate(cache.hits, cache.lookups)
        return out

    @staticmethod
    def quality_values(result: PassResult) -> List[float]:
        """Max utilisation over the state's perfect-balance bound.

        Which applications share the platform at each event depends on
        the seed, and the raw utilisation follows the load they bring
        (0.38-0.53 geometric mean across seeds).  The bound, total
        weighted compute work over the total speed of the undrained
        servers, takes that load out and leaves the placement's quality.
        """
        ratios = []
        for outcome in result.values:
            state = outcome.state
            work = CostModel(state.multi.combined_graph)
            weights = state.multi.weights()
            load = sum(work.ccomp(svc) * weights[svc] for svc in weights)
            speed = sum(state.platform.speed(u) for u in state.allowed_servers)
            ratios.append(float(outcome.value / (load / speed)))
        return ratios

    @staticmethod
    def _check(result) -> Optional[str]:
        state = result.state
        for svc in state.multi.combined_graph.nodes:
            server = state.mapping.get(svc)
            if server is None:
                return f"live service {svc} left unmapped"
            if server in state.drained:
                return f"service {svc} placed on drained server {server}"
        return None


WORKLOADS = {"solve-mix": SolveMix, "serve-mix": ServeMix, "replan-churn": ReplanChurn}

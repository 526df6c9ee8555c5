"""Seeded operation lists for the three workloads.

Everything here is plain data built from ``--seed`` and ``--seconds``: the
program under test only ever sees the generated inputs.  The same seed
always yields the same list (``op_hash`` prints its fingerprint), and the
list length scales with ``--seconds`` so that one list takes about that
long at the nominal host speed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from typing import Any, Dict, List

#: Operations per second of run time at the nominal host speed.
SOLVE_OPS_PER_S = 12
SERVE_REQUESTS_PER_S = 270
REPLAN_EVENTS_PER_S = 5

#: solve-mix op classes and their shares of the list.
SOLVE_SHARES = {"bb": 0.55, "ls": 0.15, "orch": 0.15, "het4": 0.10, "latency": 0.05}

#: serve-mix items in each block of one stream's list.  A burst item
#: carries ``BURST`` identical requests, so a block is 53 requests: 70%
#: hits, 15% cold, 8% burst, 4% stats/ping and 4% malformed.
SERVE_BLOCK = {"hit": 37, "cold": 8, "burst": 1, "admin": 2, "malformed": 2}
BURST = 4
HOT_SHAPES = 24
STREAMS = 2
#: Items each stream sends between two host-reference samples.
WAVE_ITEMS = 25

#: replan-churn: live applications kept, application panel size,
#: period-target base, drain cadence.
LIVE_APPS = 4
APP_PANEL = 12
RHO_BASE = 70
DRAIN_EVERY = 10
REPLAN_PLATFORM = "tree:racks=2,servers=4"
REPLAN_BUDGET = 2

#: Lines the daemon must answer with an error (one per failure mode of
#: the wire protocol: JSON, shape, op, missing/unknown/invalid params).
MALFORMED = (
    '{"op": "solve", "workload": ',
    "[1, 2, 3]",
    '{"id": "m3", "op": "frobnicate"}',
    '{"id": "m4", "op": "solve"}',
    '{"id": "m5", "op": "solve", "workload": "random:n=5,seed=1", "colour": "red"}',
    '{"id": "m6", "op": "solve", "workload": "nosuch:n=3"}',
    '{"id": "m7", "op": "solve", "workload": "random:n=5,seed=1", "model": "teleport"}',
    '{"id": "m8", "op": "solve", "workload": "random:n=5,seed=1", "deadline": -1}',
)


def op_hash(ops: Any) -> str:
    """Fingerprint of a generated list (printed by every run)."""
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _counts(total: int, shares: Dict[str, float]) -> Dict[str, int]:
    names = list(shares)
    counts = {name: int(round(total * shares[name])) for name in names[1:]}
    counts[names[0]] = total - sum(counts.values())
    return {name: counts[name] for name in names}


def solve_mix(seed: int, seconds: float) -> List[Dict[str, Any]]:
    """Distinct ``solve()`` problems: a fixed panel in a seeded order.

    The panel is the same for every seed.  Solve times here are heavy
    tailed: one branch-and-bound instance in ten expands 10^3-10^4 nodes
    and costs 50-100x the median op.  A per-seed draw would make each run's
    throughput a lottery over how many of those it caught; the seed
    therefore only sets the order, which decides how the shared default
    caches warm up.
    """
    rng = random.Random("solve-mix panel")
    counts = _counts(max(40, round(SOLVE_OPS_PER_S * seconds)), SOLVE_SHARES)
    fresh = iter(rng.sample(range(1, 10**6), sum(counts.values())))
    ops: List[Dict[str, Any]] = []

    def add(cls, spec, objective="period", model="overlap", **extra):
        ops.append({"cls": cls, "spec": spec, "objective": objective,
                    "model": model, **extra})

    for i in range(counts["bb"]):
        add("bb", f"random:n={8 + i % 3},seed={i // 3}")
    for _ in range(counts["ls"]):
        add("ls", f"random:n={rng.randint(12, 20)},seed={next(fresh)}")
    for _ in range(counts["orch"]):
        # OUTORDER's repair scheduler takes 1-8 s on one layered or random
        # graph in ten, so those two families run under INORDER only.
        s = next(fresh)
        spec, models = rng.choice((
            (f"chain:n={rng.randint(6, 9)},seed={s}", ("inorder", "outorder")),
            (f"forkjoin:branches={rng.randint(3, 5)},seed={s}", ("inorder", "outorder")),
            (f"layered:widths={rng.choice(('2x3x2', '3x3x2'))},seed={s}", ("inorder",)),
            (f"random:n={rng.randint(6, 7)},seed={s},graph=random,density=0.25",
             ("inorder",)),
        ))
        add("orch", spec, model=rng.choice(models), graph=True)
    for _ in range(counts["het4"]):
        add("het4", f"random:n={rng.choice((5, 6))},seed={next(fresh)}",
            platform="het4")
    for _ in range(counts["latency"]):
        add("latency", f"random:n=6,seed={next(fresh)}", objective="latency",
            model=rng.choice(("overlap", "inorder", "outorder")))
    random.Random(f"solve-mix:{seed}").shuffle(ops)
    return ops


def _solve_line(request_id: str, spec: str) -> str:
    return json.dumps({"id": request_id, "op": "solve", "workload": spec})


def serve_mix(seed: int, seconds: float) -> Dict[str, Any]:
    """A hot set (solved during setup) and per-stream request items.

    Each item is one request, or a burst of ``BURST`` identical fresh
    requests the stream pipelines together.  The shapes are a fixed panel,
    the same for every seed: ``HOT_SHAPES`` hot shapes and one fresh shape
    per cold request or burst.  Fresh shapes have n = 7: one n = 8 solve
    in twenty takes 15-50x the median cold solve and queues the requests
    behind it, which made p99 a lottery over where those solves landed.
    Each stream's list is made of ``SERVE_BLOCK`` blocks, and both streams
    follow the same class order: a cold request's latency depends on
    whether the other stream is solving too, and with independent orders
    that overlap, hence p99, moved by 20% from seed to seed.  The seed
    draws the class order within each block, which hot shape each hit
    repeats (Zipf), and the malformed lines.
    """
    panel = random.Random("serve-mix panel")
    block = sum(SERVE_BLOCK[c] * (BURST if c == "burst" else 1) for c in SERVE_BLOCK)
    blocks = max(1, round(SERVE_REQUESTS_PER_S * seconds / block / STREAMS))
    hot = [f"random:n={panel.choice((7, 8))},seed={s}"
           for s in panel.sample(range(1, 10**6), HOT_SHAPES)]
    total = STREAMS * blocks
    seeds = iter(panel.sample(range(10**6, 2 * 10**6),
                              total * (SERVE_BLOCK["cold"] + SERVE_BLOCK["burst"])))
    fresh = {cls: iter([f"random:n=7,seed={next(seeds)}"
                        for _ in range(total * SERVE_BLOCK[cls])])
             for cls in ("cold", "burst")}
    zipf = [1.0 / (rank + 1) ** 1.1 for rank in range(HOT_SHAPES)]
    rng = random.Random(f"serve-mix:{seed}")
    streams: List[List[Dict[str, Any]]] = [[] for _ in range(STREAMS)]
    for b in range(blocks):
        classes = [cls for cls, count in SERVE_BLOCK.items() for _ in range(count)]
        rng.shuffle(classes)
        for n, stream in enumerate(streams):
            for k, cls in enumerate(classes):
                rid = f"r{b}.{n}.{k}"
                if cls == "hit":
                    spec = rng.choices(hot, zipf)[0]
                    item = {"lines": [_solve_line(rid, spec)], "shape": spec, "ok": True}
                elif cls in ("cold", "burst"):
                    spec = next(fresh[cls])
                    copies = BURST if cls == "burst" else 1
                    item = {"lines": [_solve_line(f"{rid}.{c}", spec)
                                      for c in range(copies)],
                            "shape": spec, "ok": True}
                elif cls == "admin":
                    op = rng.choice(("ping", "stats"))
                    item = {"lines": [json.dumps({"id": rid, "op": op})], "shape": None,
                            "ok": True}
                else:
                    item = {"lines": [rng.choice(MALFORMED)], "shape": None, "ok": False}
                item["cls"] = cls
                stream.append(item)
    return {"hot": hot, "streams": streams}


def replan_churn(seed: int, seconds: float) -> Dict[str, Any]:
    """Setup admissions, then steady churn on a contended two-rack tree.

    Admissions and evictions (oldest first) alternate around
    ``LIVE_APPS`` live applications drawn in turn from a panel of
    ``APP_PANEL`` applications; one event in seven re-targets a live
    application; every ``DRAIN_EVERY`` events one rack is drained, and
    restored after the next ``DRAIN_EVERY`` events (``group`` indexes the
    platform's topology groups).  The trace's shape is the same for every
    seed and the seed draws the new target of each load event: which
    applications share the servers sets each event's cost, and a seeded
    shape moved the per-event median by 20% from seed to seed.
    """
    panel = random.Random("replan-churn panel")
    rng = random.Random(f"replan-churn:{seed}")
    families = ("chain:n=3,seed={}", "star:leaves=3,seed={}", "fig1",
                "forkjoin:branches=2,seed={}")
    apps = [(families[k % len(families)].format(panel.randrange(10**6)),
             Fraction(RHO_BASE * panel.randint(80, 125), 100))
            for k in range(APP_PANEL)]
    n_events = max(20, round(REPLAN_EVENTS_PER_S * seconds))
    queue: List[int] = []
    live: Dict[str, int] = {}
    admitted = 0

    def admit() -> Dict[str, Any]:
        nonlocal admitted, queue
        if not queue:
            queue = panel.sample(range(APP_PANEL), APP_PANEL)
        k = queue.pop()
        name = f"app{admitted}"
        admitted += 1
        live[name] = k
        spec, rho = apps[k]
        return {"kind": "admit", "app": name, "workload": spec, "rho": str(rho)}

    setup = [admit() for _ in range(LIVE_APPS)]
    events: List[Dict[str, Any]] = []
    drained = None
    racks = 0
    for i in range(n_events):
        if i % DRAIN_EVERY == DRAIN_EVERY - 1:
            if drained is None:
                drained = racks % 2
                racks += 1
                events.append({"kind": "drain", "group": drained})
            else:
                events.append({"kind": "restore", "group": drained})
                drained = None
        elif panel.random() < 0.15:
            name = panel.choice(sorted(live))
            rho = apps[live[name]][1] * Fraction(rng.randint(80, 120), 100)
            events.append({"kind": "load", "app": name, "rho": str(rho)})
        elif len(live) <= LIVE_APPS:
            events.append(admit())
        else:
            name = next(iter(live))
            del live[name]
            events.append({"kind": "evict", "app": name})
    return {"setup": setup, "events": events}


#: Op classes per workload (``bench.ops.*`` / ``bench.share.*``).
OP_CLASSES = {
    "solve-mix": tuple(SOLVE_SHARES),
    "serve-mix": tuple(SERVE_BLOCK),
    "replan-churn": ("admit", "evict", "load", "drain", "restore"),
}

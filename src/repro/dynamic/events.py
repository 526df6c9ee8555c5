"""Events and scenario traces for online re-planning.

The concurrent regime (paper sequels) is inherently dynamic: ``K``
applications share one platform and ``K`` changes at runtime.  This
module models that runtime as a timestamped event stream:

``admit``
    A new application arrives, named ``app``, with an execution graph
    (a catalog workload spec in ``workload``, or a programmatic graph)
    and an optional period target ``rho`` (the sequels' ``rho_a``).
``evict``
    Application ``app`` departs; its services free their servers.
``load``
    Application ``app``'s demand changes: its period target becomes
    ``rho`` (smaller target = higher load).
``drain`` / ``restore``
    Platform maintenance: the named ``servers`` go out of (back into)
    service.  Draining forces every hosted service to migrate.
``noop``
    Explicitly nothing — the re-planner must return the incumbent
    untouched (the no-op stability property).

A :class:`ScenarioTrace` is an ordered event stream with CSV load/save,
plus three generator families the benchmarks replay: flash-crowd
arrival, a diurnal load curve, and rolling platform maintenance that
drains one topology group (rack) at a time via
:meth:`Topology.groups() <repro.core.topology.Topology.groups>`.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple

from ..core import ExecutionGraph, Platform, as_fraction

#: Every event kind the re-planner understands.
KINDS: Tuple[str, ...] = ("admit", "evict", "load", "drain", "restore", "noop")

#: Columns of the CSV rendition (one event per row).
CSV_COLUMNS: Tuple[str, ...] = (
    "time", "kind", "app", "workload", "rho", "servers",
)

ZERO = Fraction(0)


@dataclass(frozen=True)
class Event:
    """One timestamped change to the running system.

    ``workload`` is a catalog spec (``"fig1"``, ``"chain:n=4"``, ...)
    resolving to a single application graph; programmatic traces may
    instead attach an :class:`~repro.core.ExecutionGraph` directly via
    ``graph`` (such events cannot round-trip through CSV).
    """

    kind: str
    time: Fraction = ZERO
    app: str = ""
    workload: str = ""
    rho: Optional[Fraction] = None
    servers: Tuple[str, ...] = ()
    graph: Optional[ExecutionGraph] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; "
                f"expected one of: {', '.join(KINDS)}"
            )
        object.__setattr__(self, "time", as_fraction(self.time))
        if self.rho is not None:
            rho = as_fraction(self.rho)
            if rho <= 0:
                raise ValueError(f"rho must be > 0, got {rho}")
            object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "servers", tuple(self.servers))
        if self.kind in ("admit", "evict", "load") and not self.app:
            raise ValueError(f"{self.kind} event needs an application name")
        if self.kind == "admit" and not self.workload and self.graph is None:
            raise ValueError(
                "admit event needs a workload spec or an execution graph"
            )
        if self.kind == "load" and self.rho is None:
            raise ValueError("load event needs the new rho target")
        if self.kind in ("drain", "restore") and not self.servers:
            raise ValueError(f"{self.kind} event needs at least one server")

    # -- graph resolution --------------------------------------------------
    def resolve_graph(self) -> ExecutionGraph:
        """The admitted application's execution graph.

        Programmatic graphs win; otherwise the catalog resolves the
        ``workload`` spec (which must name exactly one application).
        """
        if self.kind != "admit":
            raise ValueError(f"{self.kind} event has no application graph")
        if self.graph is not None:
            return self.graph
        from ..planner.catalog import load_concurrent_workload

        workload = load_concurrent_workload(self.workload)
        if len(workload.multi) != 1:
            raise ValueError(
                f"admit workload {self.workload!r} must name a single "
                f"application (got {len(workload.multi)})"
            )
        return workload.multi.members[0].graph

    def label(self) -> str:
        """Compact human rendition for timelines: ``admit a3(rho=5)``."""
        if self.kind == "noop":
            return "noop"
        if self.kind in ("drain", "restore"):
            return f"{self.kind} {','.join(self.servers)}"
        detail = f"(rho={self.rho})" if self.rho is not None else ""
        return f"{self.kind} {self.app}{detail}"

    # -- wire / CSV renditions ---------------------------------------------
    def as_dict(self) -> dict:
        """JSON-friendly rendition (the serve ``replan`` op's ``event``)."""
        return {
            "time": str(self.time),
            "kind": self.kind,
            "app": self.app,
            "workload": self.workload,
            "rho": str(self.rho) if self.rho is not None else "",
            "servers": list(self.servers),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        """Inverse of :meth:`as_dict`; tolerates missing optional keys."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"event must be an object, got {type(payload).__name__}"
            )
        # Sort by str(): a ragged CSV row surfaces as a None key (the
        # DictReader restkey), which must become a one-line error, not a
        # TypeError from comparing None with str.
        unknown = sorted(set(payload) - set(CSV_COLUMNS), key=str)
        if unknown:
            names = ", ".join(
                "<extra unnamed column>" if k is None else repr(k)
                for k in unknown
            )
            raise ValueError(
                f"unknown event field(s) {names}; "
                f"accepted: {', '.join(CSV_COLUMNS)}"
            )
        kind = payload.get("kind")
        if not isinstance(kind, str):
            raise ValueError("event needs a 'kind' string")
        # Wire payloads carry arbitrary JSON: every field is type-checked
        # here so a bad value is a one-line ValueError, never a TypeError.
        for key in ("app", "workload"):
            value = payload.get(key)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"event {key!r} must be a string, got {value!r}")

        def number(key: str) -> Optional[Fraction]:
            value = payload.get(key)
            if value is None or value == "":
                return None
            if isinstance(value, bool) or not isinstance(
                value, (int, float, str, Fraction)
            ):
                raise ValueError(
                    f"event {key!r} must be a number or a numeric string, "
                    f"got {value!r}"
                )
            try:
                return as_fraction(value)
            except ZeroDivisionError:
                raise ValueError(f"event {key!r} divides by zero: {value!r}") from None

        servers = payload.get("servers", ())
        if isinstance(servers, str):
            servers = tuple(s for s in servers.split(";") if s)
        elif not isinstance(servers, (list, tuple)) or not all(
            isinstance(s, str) for s in servers
        ):
            raise ValueError(
                f"event 'servers' must be a ';'-separated string or a list "
                f"of server names, got {servers!r}"
            )
        return cls(
            kind=kind,
            time=number("time") or ZERO,
            app=payload.get("app") or "",
            workload=payload.get("workload") or "",
            rho=number("rho"),
            servers=tuple(servers),
        )


class ScenarioTrace:
    """An ordered stream of :class:`Event` objects (stable-sorted by time)."""

    def __init__(self, events: Sequence[Event]) -> None:
        self.events: Tuple[Event, ...] = tuple(
            sorted(events, key=lambda e: e.time)
        )

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ScenarioTrace) and self.events == other.events
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = {}
        for e in self.events:
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        inner = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        return f"ScenarioTrace({len(self.events)} events: {inner})"

    # -- CSV ---------------------------------------------------------------
    def save_csv(self, path) -> None:
        """One event per row (columns :data:`CSV_COLUMNS`).

        Admissions carrying a programmatic graph (no catalog spec) cannot
        be serialised — attach a ``workload`` spec instead.
        """
        for event in self.events:
            if event.kind == "admit" and not event.workload:
                raise ValueError(
                    f"admit event for {event.app!r} has no workload spec; "
                    f"programmatic graphs cannot round-trip through CSV"
                )
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_COLUMNS)
            for e in self.events:
                writer.writerow([
                    str(e.time), e.kind, e.app, e.workload,
                    str(e.rho) if e.rho is not None else "",
                    ";".join(e.servers),
                ])

    @classmethod
    def load_csv(cls, path) -> "ScenarioTrace":
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or sorted(
                reader.fieldnames
            ) != sorted(CSV_COLUMNS):
                raise ValueError(
                    f"trace CSV needs columns {', '.join(CSV_COLUMNS)}; "
                    f"got {reader.fieldnames}"
                )
            events = []
            for line, row in enumerate(reader, start=2):
                try:
                    events.append(Event.from_dict(dict(row)))
                except ValueError as exc:
                    raise ValueError(f"trace CSV row {line}: {exc}") from None
            return cls(events)


# -- generators --------------------------------------------------------------

#: The diurnal load curve as exact multipliers of the base rho: a day of
#: slots from night (slack targets) through the midday peak (tight) and
#: back.  Piecewise-linear stand-in for the usual sinusoid — exact
#: Fractions, same shape.
DIURNAL_CURVE: Tuple[Fraction, ...] = tuple(
    Fraction(x)
    for x in ("2", "3/2", "1", "3/4", "1/2", "2/5", "1/2", "3/4", "1", "3/2")
)


def flash_crowd_trace(
    n_events: int = 50,
    *,
    seed: int = 7,
    workloads: Sequence[str] = ("chain:n=3", "star:leaves=3", "fig1"),
    base_rho=Fraction(40),
) -> ScenarioTrace:
    """A flash crowd: accelerating admissions, load spikes, then cool-down.

    The first ~60% of events admit applications ``crowd0, crowd1, ...``
    (inter-arrival gaps shrink as the crowd builds), the next ~20% are
    load spikes tightening the rho of a random live application, and the
    final ~20% evict applications.  Every application carries a rho
    target, so the utilisation objective and the feasibility verdict are
    live throughout.  Deterministic per *seed*.
    """
    if n_events < 5:
        raise ValueError(f"flash crowd needs >= 5 events, got {n_events}")
    rng = random.Random(seed)
    n_admit = max(2, (n_events * 3) // 5)
    n_load = max(1, n_events // 5)
    n_evict = n_events - n_admit - n_load
    events = []
    time = Fraction(0)
    live = []
    base_rho = as_fraction(base_rho)
    for i in range(n_admit):
        # Gaps shrink as the crowd accelerates: 1/(i+1) scaled.
        time += Fraction(10, i + 1)
        name = f"crowd{i}"
        rho = base_rho * Fraction(rng.randrange(2, 5), 3)
        events.append(Event(
            "admit", time=time, app=name,
            workload=workloads[i % len(workloads)], rho=rho,
        ))
        live.append(name)
    for _ in range(n_load):
        time += Fraction(1)
        target = rng.choice(live)
        # Spike: tighten the target to 40–80% of base.
        rho = base_rho * Fraction(rng.randrange(2, 5), 5)
        events.append(Event("load", time=time, app=target, rho=rho))
    rng.shuffle(live)
    for name in live[:n_evict]:
        time += Fraction(2)
        events.append(Event("evict", time=time, app=name))
    return ScenarioTrace(events)


def diurnal_trace(
    n_apps: int = 3,
    cycles: int = 1,
    *,
    workload: str = "chain:n=3",
    base_rho=Fraction(40),
) -> ScenarioTrace:
    """A day (or *cycles* days) of load: targets follow the diurnal curve.

    *n_apps* applications are admitted at the start; each subsequent slot
    re-targets every application to ``base_rho * DIURNAL_CURVE[slot]`` —
    slack at night, tight at the midday trough of the curve.
    """
    if n_apps < 1:
        raise ValueError(f"diurnal trace needs >= 1 application, got {n_apps}")
    base_rho = as_fraction(base_rho)
    events = []
    for i in range(n_apps):
        events.append(Event(
            "admit", time=Fraction(i), app=f"day{i}", workload=workload,
            rho=base_rho * DIURNAL_CURVE[0],
        ))
    time = Fraction(n_apps)
    for cycle in range(cycles):
        for slot, multiplier in enumerate(DIURNAL_CURVE):
            if cycle == 0 and slot == 0:
                continue  # the admissions already set the first slot
            time += Fraction(10)
            for i in range(n_apps):
                events.append(Event(
                    "load", time=time, app=f"day{i}",
                    rho=base_rho * multiplier,
                ))
    return ScenarioTrace(events)


def maintenance_trace(
    platform: Platform,
    *,
    start=Fraction(0),
    dwell=Fraction(10),
    gap=Fraction(5),
) -> ScenarioTrace:
    """Rolling maintenance: drain one topology group at a time, restore it.

    Uses :meth:`Topology.groups()
    <repro.core.topology.Topology.groups>` for the drain granularity —
    one rack at a time on a :class:`~repro.core.TreeTopology`, one row on
    a torus, the whole (singleton-group) platform on a flat clique.  Each
    group is drained for *dwell* time units, then restored *gap* before
    the next drain, so at most one group is ever out.

    Draining every server at once is refused (nowhere to migrate to).
    """
    groups = platform.topology.groups()
    if len(groups) <= 1:
        raise ValueError(
            "rolling maintenance needs a platform with >= 2 topology "
            "groups (a flat clique is one group — drain it and nothing "
            "is left to host the services)"
        )
    events = []
    time = as_fraction(start)
    dwell = as_fraction(dwell)
    gap = as_fraction(gap)
    for _label, members in groups:
        events.append(Event("drain", time=time, servers=members))
        time += dwell
        events.append(Event("restore", time=time, servers=members))
        time += gap
    return ScenarioTrace(events)


#: Trace-spec families understood by :func:`load_trace` (CLI + serve).
TRACE_FAMILIES: Tuple[str, ...] = ("flash", "diurnal", "maint")


def load_trace(spec: str, platform: Optional[Platform] = None) -> ScenarioTrace:
    """A trace from a spec string or a CSV path.

    Specs mirror the workload catalog: ``flash:n=50,seed=7``,
    ``diurnal:apps=3,cycles=2``, ``maint:dwell=10,gap=5`` (needs the
    platform for its topology groups).  Anything ending in ``.csv`` — or
    prefixed ``@`` — loads that file instead.
    """
    from ..planner.catalog import _check_keys, _parse_options

    spec = spec.strip()
    if spec.startswith("@"):
        return ScenarioTrace.load_csv(spec[1:])
    if spec.lower().endswith(".csv"):
        return ScenarioTrace.load_csv(spec)
    family, _, options_text = spec.partition(":")
    family = family.strip().lower()
    options = _parse_options(options_text)
    if family == "flash":
        _check_keys(options, ("n", "seed", "rho"), "flash")
        return flash_crowd_trace(
            int(options.get("n", 50)),
            seed=int(options.get("seed", 7)),
            base_rho=as_fraction(options.get("rho", Fraction(40))),
        )
    if family == "diurnal":
        _check_keys(options, ("apps", "cycles", "rho"), "diurnal")
        return diurnal_trace(
            int(options.get("apps", 3)),
            int(options.get("cycles", 1)),
            base_rho=as_fraction(options.get("rho", Fraction(40))),
        )
    if family == "maint":
        _check_keys(options, ("dwell", "gap"), "maint")
        if platform is None:
            raise ValueError(
                "maint trace needs the platform (its topology groups set "
                "the drain granularity)"
            )
        return maintenance_trace(
            platform,
            dwell=as_fraction(options.get("dwell", Fraction(10))),
            gap=as_fraction(options.get("gap", Fraction(5))),
        )
    raise ValueError(
        f"unknown trace family {family!r}; expected one of: "
        f"{', '.join(TRACE_FAMILIES)} or a .csv path"
    )


__all__ = [
    "CSV_COLUMNS",
    "DIURNAL_CURVE",
    "Event",
    "KINDS",
    "ScenarioTrace",
    "TRACE_FAMILIES",
    "diurnal_trace",
    "flash_crowd_trace",
    "load_trace",
    "maintenance_trace",
]

"""Heterogeneous platforms: server speeds and link bandwidths.

The paper normalises the platform away (``delta_0 = b = s = 1``, Section
2.1): every server computes at unit speed and every link carries one unit
of data per time unit.  Its sequels (Benoit, Casanova, Rehn-Sonigo &
Robert, *Resource Allocation Strategies for In-Network Stream Processing*)
study the un-normalised regime: a server ``u`` with speed ``s_u`` processes
an input of size ``d`` through service ``C_i`` in ``c_i * d / s_u`` time
units, and a message of size ``delta`` on a link of bandwidth ``b_{u,v}``
takes ``delta / b_{u,v}`` time units.

This module models that regime exactly (all quantities are
:class:`~fractions.Fraction`):

* :class:`Server` — a named server with a speed ``s_u > 0``;
* :class:`Link` — a bandwidth override ``b_{u,v} > 0`` for one server pair
  (links are symmetric unless both directions are given; the special
  endpoints :data:`~repro.core.constants.INPUT` and
  :data:`~repro.core.constants.OUTPUT` describe the outside world);
* :class:`Platform` — servers + links + a default bandwidth, with
  :meth:`Platform.homogeneous` producing the paper's normalised platform
  (every existing paper value is reproduced bit-for-bit on it);
* :class:`Mapping` — an injective assignment of services to servers (the
  paper maps one service per server; a platform may have spare servers).

Link storage is pluggable: a :class:`~repro.core.topology.Topology`
(rack trees, tori — see :mod:`repro.core.topology`) can generate the
servers and the pairwise bandwidth table instead of explicit
:class:`Link` objects, and additionally declares physical routes whose
shared links *contend* — concurrent flows divide a link's capacity.
Plain platforms keep an implicit flat clique
(:class:`~repro.core.topology.FlatTopology`) and stay bit-for-bit
identical to their pre-topology behaviour, keys and fingerprints
included.

Example::

    >>> from fractions import Fraction
    >>> p = Platform.of(speeds=[1, 2], links={("S1", "S2"): "1/2"})
    >>> p.speed("S2"), p.bandwidth("S1", "S2"), p.bandwidth("S2", "S1")
    (Fraction(2, 1), Fraction(1, 2), Fraction(1, 2))
    >>> p.is_unit, Platform.homogeneous(3).is_unit
    (False, True)
    >>> m = Mapping({"A": "S2", "B": "S1"})
    >>> m.server("A")
    'S2'
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)
from typing import Mapping as TypingMapping

from .constants import INPUT, OUTPUT
from .topology import FlatTopology, Topology

Numeric = Union[int, float, str, Fraction]

_WORLD = (INPUT, OUTPUT)

ONE = Fraction(1)


def _fraction(value: Numeric, what: str) -> Fraction:
    from .service import as_fraction

    frac = as_fraction(value)
    if frac <= 0:
        raise ValueError(f"{what} must be > 0, got {frac}")
    return frac


@dataclass(frozen=True)
class Server:
    """A server ``u`` with speed ``s_u`` (unit speed = the paper's ``s = 1``)."""

    name: str
    speed: Fraction = ONE

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("server name must be a non-empty string")
        object.__setattr__(self, "speed", _fraction(self.speed, f"server {self.name!r} speed"))


@dataclass(frozen=True)
class Link:
    """A bandwidth override ``b_{u,v}`` for the pair ``(u, v)``.

    Endpoints may be server names or the synthetic :data:`INPUT` /
    :data:`OUTPUT` constants (the outside world).  A link is symmetric:
    ``Link("S1", "S2", bw)`` also sets ``b_{S2,S1}`` unless a second link
    gives that direction explicitly.
    """

    src: str
    dst: str
    bandwidth: Fraction = ONE

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-link on {self.src!r}")
        object.__setattr__(
            self, "bandwidth", _fraction(self.bandwidth, f"link {self.src!r}->{self.dst!r} bandwidth")
        )


class Platform:
    """A set of servers plus link bandwidths (immutable, hashable).

    Parameters
    ----------
    servers:
        The :class:`Server` objects (order is the platform's canonical
        server order, used by :meth:`Mapping.default`).
    links:
        :class:`Link` bandwidth overrides; pairs not listed use
        *default_bandwidth*.
    default_bandwidth:
        ``b`` for every pair without an override (the paper's ``b = 1``).
        With a *topology* it prices the outside-world links (messages
        from :data:`INPUT` / to :data:`OUTPUT`), which ride dedicated
        wires and never contend.
    topology:
        A :class:`~repro.core.topology.Topology` generating the servers
        and link table structurally; mutually exclusive with explicit
        *servers*/*links*.
    """

    __slots__ = (
        "servers", "default_bandwidth", "_links", "_by_name", "_key",
        "_unit", "_topology", "_tiers",
    )

    def __init__(
        self,
        servers: Iterable[Server] = (),
        links: Iterable[Link] = (),
        *,
        default_bandwidth: Numeric = ONE,
        topology: Optional[Topology] = None,
    ) -> None:
        servers = tuple(servers)
        default_bw = _fraction(default_bandwidth, "default bandwidth")
        if topology is not None:
            if servers or tuple(links):
                raise ValueError(
                    "topology is mutually exclusive with explicit servers/links"
                )
            servers = tuple(
                Server(name, speed) for name, speed in topology.server_specs()
            )
            links = tuple(
                Link(u, v, bw)
                for (u, v), bw in sorted(topology.pair_bandwidths().items())
                if u < v and bw != default_bw
            )
        if not servers:
            raise ValueError("a platform needs at least one server")
        names = [s.name for s in servers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate server names: {dupes}")
        by_name = {s.name: s for s in servers}
        directed: Dict[Tuple[str, str], Fraction] = {}
        known = set(names) | {INPUT, OUTPUT}
        for link in links:
            for end in (link.src, link.dst):
                if end not in known:
                    raise KeyError(f"link endpoint {end!r} is not a server of the platform")
            if (link.src, link.dst) in directed:
                raise ValueError(f"duplicate link ({link.src!r}, {link.dst!r})")
            directed[(link.src, link.dst)] = link.bandwidth
        # Symmetric completion: a single direction sets both, explicit
        # reverse links win.
        for (a, b), bw in list(directed.items()):
            directed.setdefault((b, a), bw)
        self.servers: Tuple[Server, ...] = servers
        self.default_bandwidth = default_bw
        self._links: Dict[Tuple[str, str], Fraction] = directed
        self._by_name = by_name
        self._topology: Topology = (
            topology if topology is not None else FlatTopology(names)
        )
        base_key = (
            tuple((s.name, s.speed) for s in servers),
            tuple(sorted(directed.items())),
            default_bw,
        )
        # Flat platforms keep their historical 3-tuple key bit-for-bit (an
        # explicitly passed clique topology is indistinguishable from the
        # implicit one); structured platforms append the topology's content
        # key so two shapes with identical effective pairwise bandwidths
        # (but different routes, hence different contention) never collide
        # in any cache.
        topo_key = tuple(self._topology.key())
        if topo_key == ("clique",):
            self._key = base_key
        else:
            self._key = base_key + (("topology",) + topo_key,)
        # A contended platform is never "unit": its effective bandwidths
        # depend on the mapping, so its costs cannot collapse onto the
        # platform-free cache entries.
        self._unit = (
            all(s.speed == ONE for s in servers)
            and default_bw == ONE
            and all(bw == ONE for bw in directed.values())
            and not self._topology.contended
        )
        self._tiers: Dict[object, Dict[str, dict]] = {}

    # -- constructors ---------------------------------------------------------
    @classmethod
    def homogeneous(
        cls, n: int, *, speed: Numeric = ONE, bandwidth: Numeric = ONE, prefix: str = "S"
    ) -> "Platform":
        """``n`` identical servers — the default reproduces the paper exactly.

        ``Platform.homogeneous(n)`` is the normalised platform of Section
        2.1 (``s = b = 1``): every cost quantity equals its platform-free
        value, so paper instances stay bit-for-bit identical on it.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        servers = tuple(Server(f"{prefix}{i}", _fraction(speed, "speed")) for i in range(1, n + 1))
        return cls(servers, default_bandwidth=bandwidth)

    @classmethod
    def of(
        cls,
        *,
        speeds: Sequence[Numeric],
        links: Optional[TypingMapping[Tuple[str, str], Numeric]] = None,
        default_bandwidth: Numeric = ONE,
        prefix: str = "S",
    ) -> "Platform":
        """Shorthand: servers ``S1..Sn`` from *speeds* plus a link dict."""
        servers = tuple(
            Server(f"{prefix}{i}", _fraction(sp, "speed")) for i, sp in enumerate(speeds, start=1)
        )
        link_objs = tuple(
            Link(a, b, _fraction(bw, "bandwidth")) for (a, b), bw in (links or {}).items()
        )
        return cls(servers, link_objs, default_bandwidth=default_bandwidth)

    # -- queries --------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.servers)

    def __len__(self) -> int:
        return len(self.servers)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> Server:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no server named {name!r}") from None

    def speed(self, name: str) -> Fraction:
        """``s_u`` of server *name*."""
        return self[name].speed

    def bandwidth(self, src: str, dst: str, *, lenient: bool = False) -> Fraction:
        """``b_{src,dst}``: link override if given, else the default.

        *src*/*dst* may be :data:`INPUT`/:data:`OUTPUT` (the outside
        world); pairs touching them default to *default_bandwidth* too.

        The lookup is **strict**: unknown server names, self-pairs and
        world-to-world pairs raise :class:`KeyError` — those are
        degenerate pairs no physical message crosses, and a silent
        default has historically hidden endpoint bugs in cost code.
        Pass ``lenient=True`` to restore the permissive behaviour
        (*default_bandwidth* for any degenerate-but-known pair), used by
        the batched kernels when they materialise full ``n x n``
        coefficient matrices whose diagonal is never read.
        """
        override = self._links.get((src, dst))
        if override is not None:
            return override
        for end in (src, dst):
            if end not in self._by_name and end not in _WORLD:
                raise KeyError(f"no server named {end!r}")
        if not lenient:
            if src == dst:
                raise KeyError(f"self-pair bandwidth ({src!r}, {dst!r}); no message crosses it")
            if src in _WORLD and dst in _WORLD:
                raise KeyError(f"world-to-world bandwidth ({src!r}, {dst!r}); no message crosses it")
        return self.default_bandwidth

    def link_overrides(self) -> Dict[Tuple[str, str], Fraction]:
        """A copy of the directed bandwidth-override table.

        Symmetric completion already applied — a single ``Link("S1",
        "S2", bw)`` shows up under both ``("S1", "S2")`` and ``("S2",
        "S1")``.  Pairs absent here price at :attr:`default_bandwidth`.
        Calibration and perturbation rebuild platforms from this.
        """
        return dict(self._links)

    def require_capacity(self, n_services: int) -> None:
        """Raise unless the platform has at least *n_services* servers."""
        if n_services > len(self.servers):
            raise ValueError(
                f"{n_services} services need at least that many servers; "
                f"platform has {len(self.servers)}"
            )

    @property
    def is_unit(self) -> bool:
        """True when every speed and bandwidth is 1 (the paper's platform).

        On a unit platform every cost quantity equals its platform-free
        value for *any* mapping, so unit platforms share evaluation-cache
        entries with ``platform=None``.
        """
        return self._unit

    @property
    def is_homogeneous(self) -> bool:
        """True when all speeds are equal and all bandwidths are equal.

        Judged on the topology-derived *effective* bandwidths (the pair
        table already folds route bottlenecks in); a contended topology
        is never homogeneous because its effective bandwidths vary with
        the mapping.
        """
        if self.has_contention:
            return False
        speeds = {s.speed for s in self.servers}
        bws = set(self._links.values()) | {self.default_bandwidth}
        return len(speeds) == 1 and len(bws) == 1

    # -- topology -------------------------------------------------------------
    @property
    def topology(self) -> Topology:
        """The link structure behind this platform (flat clique by default)."""
        return self._topology

    @property
    def has_contention(self) -> bool:
        """True when concurrent flows share physical link capacity."""
        return self._topology.contended

    def route(self, src: str, dst: str) -> Tuple[int, ...]:
        """Physical link ids a ``src -> dst`` message crosses.

        Empty for self-pairs, for flat cliques, and for any pair touching
        the outside world (:data:`INPUT`/:data:`OUTPUT` ride dedicated
        links that never contend).
        """
        if src == dst or src in _WORLD or dst in _WORLD:
            return ()
        return self._topology.route(src, dst)

    def link_capacities(self) -> Tuple[Fraction, ...]:
        """Capacity per physical link, indexed by the ids :meth:`route` yields."""
        return self._topology.link_capacities()

    def tier_cache(self, num: object) -> Dict[str, dict]:
        """Tables the cost algebra derives from this platform in the tier
        of the numeric hook *num* (outside equality, hashing and keys)."""
        return self._tiers.setdefault(num, {})

    def key(self) -> Tuple:
        """Canonical hashable content key (used by the evaluation cache)."""
        return self._key

    def fingerprint(self) -> object:
        """Cache fingerprint: the sentinel ``"unit"`` for unit platforms.

        All unit platforms (any size) and ``platform=None`` produce
        identical cost values, so they deliberately share the sentinel; any
        non-unit platform fingerprints to its full content key, so a
        heterogeneous solve can never hit a homogeneous cache entry.
        """
        return "unit" if self._unit else self._key

    # -- dunder ---------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Platform):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "unit" if self._unit else ("homogeneous" if self.is_homogeneous else "heterogeneous")
        return f"Platform({len(self.servers)} servers, {kind})"


class Mapping:
    """An assignment of services to servers — injective by default.

    The paper dedicates one server per service; on a platform with spare
    servers the unused ones simply idle.  The sequels (*Resource Allocation
    for Multiple Concurrent In-Network Stream-Processing Applications*)
    lift the restriction: several services — possibly from different
    applications — may share one server.  Pass ``shared=True`` (or use
    :meth:`shared`) to allow that explicitly; the plain constructor keeps
    rejecting accidental co-location.  Immutable and hashable; iteration
    order follows the sorted service names.

    Example::

        >>> m = Mapping({"B": "S1", "A": "S2"})
        >>> m.items()
        (('A', 'S2'), ('B', 'S1'))
        >>> m.services(), m.used_servers()
        (('A', 'B'), ('S1', 'S2'))
        >>> s = Mapping.shared({"A": "S1", "B": "S1"})
        >>> s.is_injective, s.services_on("S1")
        (False, ('A', 'B'))
    """

    __slots__ = ("_assignment", "_items", "_allow_shared", "_injective")

    def __init__(
        self, assignment: TypingMapping[str, str], *, shared: bool = False
    ) -> None:
        assignment = dict(assignment)
        servers = list(assignment.values())
        injective = len(set(servers)) == len(servers)
        if not injective and not shared:
            dupes = sorted({s for s in servers if servers.count(s) > 1})
            raise ValueError(
                f"mapping must be injective (one service per server); "
                f"servers {dupes} host several services "
                f"(pass shared=True for concurrent shared-server mappings)"
            )
        self._assignment: Dict[str, str] = assignment
        self._items: Tuple[Tuple[str, str], ...] = tuple(sorted(assignment.items()))
        self._allow_shared = bool(shared)
        self._injective = injective

    @classmethod
    def shared(cls, assignment: TypingMapping[str, str]) -> "Mapping":
        """A possibly many-to-one mapping (services may share servers)."""
        return cls(assignment, shared=True)

    @classmethod
    def default(cls, services: Sequence[str], platform: Platform) -> "Mapping":
        """Positional one-to-one mapping: i-th service on the i-th server."""
        services = tuple(services)
        platform.require_capacity(len(services))
        return cls(dict(zip(services, platform.names)))

    # -- queries --------------------------------------------------------------
    def server(self, service: str) -> str:
        """The server hosting *service*."""
        try:
            return self._assignment[service]
        except KeyError:
            raise KeyError(f"no mapping for service {service!r}") from None

    def get(self, service: str) -> Optional[str]:
        return self._assignment.get(service)

    def services(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._items)

    def used_servers(self) -> Tuple[str, ...]:
        """The distinct servers hosting at least one service (sorted)."""
        return tuple(sorted(set(self._assignment.values())))

    def services_on(self, server: str) -> Tuple[str, ...]:
        """The services hosted by *server*, in sorted order."""
        return tuple(svc for svc, srv in self._items if srv == server)

    @property
    def is_injective(self) -> bool:
        """True when no two services share a server (the paper's regime)."""
        return self._injective

    def reassigned(self, service: str, server: str) -> "Mapping":
        """A copy with *service* moved to *server*.

        Shared-capable mappings stay shared-capable; a plain mapping must
        stay injective.
        """
        assignment = dict(self._assignment)
        assignment[service] = server
        return Mapping(assignment, shared=self._allow_shared)

    def swapped(self, a: str, b: str) -> "Mapping":
        """A copy with the servers of services *a* and *b* exchanged."""
        assignment = dict(self._assignment)
        assignment[a], assignment[b] = assignment[b], assignment[a]
        return Mapping(assignment, shared=self._allow_shared)

    def items(self) -> Tuple[Tuple[str, str], ...]:
        return self._items

    def validate_on(self, services: Iterable[str], platform: Platform) -> None:
        """Raise unless every service is mapped onto a platform server."""
        missing = sorted(set(services) - set(self._assignment))
        if missing:
            raise ValueError(f"mapping misses services: {missing}")
        unknown = sorted(
            {srv for srv in self._assignment.values() if srv not in platform}
        )
        if unknown:
            raise ValueError(f"mapping uses unknown servers: {unknown}")

    def key(self) -> Tuple[Tuple[str, str], ...]:
        """Canonical hashable content key (used by the evaluation cache)."""
        return self._items

    # -- dunder ---------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._assignment)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{svc}->{srv}" for svc, srv in self._items)
        return f"Mapping({inner})"


def platform_fingerprint(
    platform: Optional[Platform], mapping: Optional[Mapping] = None
) -> object:
    """Cache fingerprint of a ``(platform, mapping)`` pair.

    ``None`` and unit platforms collapse to the ``"unit"`` sentinel (the
    mapping is irrelevant there — all servers are identical); non-unit
    platforms key on their full content plus the mapping (or ``"*"`` when
    the mapping is left free for the placement optimiser).

    A **non-injective** mapping never collapses: on a unit platform the
    identity of the servers is still irrelevant, but *which services are
    co-located* changes every aggregated cost (intra-server edges are
    free, per-server loads add up), so the full many-to-one assignment is
    always part of the fingerprint.  Two shared mappings that co-locate
    different service pairs on the same platform must never share a cache
    entry.
    """
    shared = mapping is not None and not mapping.is_injective
    if platform is None or platform.is_unit:
        return ("unit", mapping.key()) if shared else "unit"
    return (platform.key(), mapping.key() if mapping is not None else "*")


def link_flow_counts(
    platform: Platform, server_pairs: Iterable[Tuple[str, str]]
) -> Dict[int, int]:
    """Flows per physical link for the given ``(src_server, dst_server)`` pairs.

    Each pair is one concurrent flow (a graph edge crossing servers);
    pairs with an empty :meth:`Platform.route` — co-located, flat, or
    touching the outside world — contribute nothing.  The counts are the
    ``k_l`` of the contention model: ``k`` flows sharing a link of
    capacity ``c`` each see ``c / k``.
    """
    counts: Dict[int, int] = {}
    for src, dst in server_pairs:
        for lid in platform.route(src, dst):
            counts[lid] = counts.get(lid, 0) + 1
    return counts


__all__ = [
    "Link",
    "Mapping",
    "Platform",
    "Server",
    "link_flow_counts",
    "platform_fingerprint",
]

"""Aggregated cost readouts for concurrent applications on shared servers.

:class:`ConcurrentCosts` evaluates one shared mapping of a
:class:`~repro.concurrent.multiapp.MultiApplication` on a platform and
exposes the quantities the sequels optimise:

* the **system period** — the smallest common period every application can
  sustain simultaneously: ``max_u Cexec(u)`` over per-server aggregated
  ``Cin``/``Ccomp``/``Cout`` (intra-server edges free);
* **per-application periods** — what each application's services demand of
  their servers, contention from other applications excluded (with each
  application alone on the platform under the same placement, this is its
  Theorem-1 optimal period);
* **per-application latencies** — contention-free critical paths through
  each application's graph, intra-server edges free;
* **per-server utilisation** under per-application period targets
  ``rho_a``: each service's load weighs ``1 / rho_a``; the mapping is
  feasible iff every server's utilisation is at most 1.

All values are exact :class:`~fractions.Fraction` arithmetic: one
shared-mapping :class:`~repro.core.CostModel` of the combined graph folds
every service's terms once for the system-wide readouts, and the weighted
per-server loads behind the utilisation readouts are summed once per
instance; the per-application readouts price the application alone on its
servers, so on a contended topology only its own flows share links.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Optional

from ..core import CommModel, CostModel, Mapping, Platform
from .multiapp import MultiApplication

ZERO = Fraction(0)


class ConcurrentCosts:
    """Readouts of one shared mapping of a multi-application instance.

    Parameters
    ----------
    multi:
        The concurrent applications (combined graph, targets).
    platform:
        Server speeds and link bandwidths (unit platforms allowed — the
        co-location structure still matters).
    mapping:
        A shared-capable :class:`~repro.core.Mapping` over the *combined*
        (namespaced) service names.
    model:
        Communication model; OVERLAP is the regime the sequels' bounds are
        exact for, the one-port models use the serialised sum.
    """

    def __init__(
        self,
        multi: MultiApplication,
        platform: Platform,
        mapping: Mapping,
        *,
        model: CommModel = CommModel.OVERLAP,
    ) -> None:
        self.multi = multi
        self.platform = platform
        self.mapping = mapping
        self.model = model
        self.costs = CostModel(multi.combined_graph, platform, mapping)
        self._weights = self.costs.weight_list(multi.weights())
        self._utilisations: Optional[Dict[str, Fraction]] = None

    # -- system-wide -----------------------------------------------------------
    def system_period(self) -> Fraction:
        """The minimal common period: ``max_u Cexec(u)`` aggregated.

        An empty system (no services mapped — e.g. every application
        evicted) sustains any period, so the bound degenerates to ``0``.
        """
        return max(self.costs.loads(self.model).values(), default=ZERO)

    def server_loads(self) -> Dict[str, Fraction]:
        """Per used server: aggregated ``Cexec(u)`` (absolute time)."""
        loads = self.costs.loads(self.model)
        return {u: loads[u] for u in sorted(loads)}

    # -- per-application -------------------------------------------------------
    def _alone(self, name: str) -> Optional[CostModel]:
        """Application *name* alone on its servers under this placement
        (``None`` for an application with no services)."""
        services = self.multi.app_services(name)
        if not services:
            return None
        sub_mapping = Mapping.shared(
            {svc: self.mapping.server(svc) for svc in services}
        )
        return CostModel(self.multi.app_graph(name), self.platform, sub_mapping)

    def app_period(self, name: str) -> Fraction:
        """The period application *name* demands under this placement.

        The Theorem-1 bound of the application run alone with the same
        placement: ``max_u`` of its own aggregated per-server load, other
        applications' services and flows excluded (its own intra-server
        edges still free, and on a contended topology only its own flows
        share links).  An application with no services demands nothing:
        ``0``.
        """
        alone = self._alone(name)
        return ZERO if alone is None else alone.period_lower_bound(self.model)

    def app_latency(self, name: str) -> Fraction:
        """Contention-free critical-path latency of application *name*
        (``0`` for an application with no services)."""
        alone = self._alone(name)
        return ZERO if alone is None else alone.latency_lower_bound()

    def app_periods(self) -> Dict[str, Fraction]:
        return {name: self.app_period(name) for name in self.multi.names}

    def app_latencies(self) -> Dict[str, Fraction]:
        return {name: self.app_latency(name) for name in self.multi.names}

    # -- utilisation under period targets --------------------------------------
    def _utilisation(self) -> Dict[str, Fraction]:
        if self._utilisations is None:
            self._utilisations = self.costs.loads(
                self.model, weights=self._weights
            )
        return self._utilisations

    def server_utilisation(self, server: str) -> Fraction:
        """Weighted load of *server*: each service weighs ``1 / rho_a``.

        Under OVERLAP the three directions (receive, compute, send) are
        independent engines, so the utilisation is their max; under the
        one-port models the server serialises everything, so they add.
        Without targets every service weighs ``1``, so the "utilisation"
        degenerates to the absolute aggregated load.
        """
        return self._utilisation().get(server, ZERO)

    def max_utilisation(self) -> Fraction:
        """``max_u`` utilisation — the sequels' load-balance objective.

        The empty system (no services mapped) loads no server at all, so
        its utilisation is ``0`` — not a ``max()`` over zero servers.
        """
        return max(self._utilisation().values(), default=ZERO)

    def is_feasible(self) -> bool:
        """Every period target satisfiable: max utilisation at most 1.

        Without targets every finite mapping is feasible (the system
        period is finite); with targets, feasibility is the sequels'
        steady-state condition ``utilisation(u) <= 1`` on every server.
        """
        if self._weights is None:
            return True
        return self.max_utilisation() <= 1


__all__ = ["ConcurrentCosts"]

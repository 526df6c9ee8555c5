"""Batched candidate evaluation: one numpy row per candidate plan.

The float kernel of :mod:`repro.core.numeric` prices one candidate at a
time; the search spaces it gates are exponential — ``(n+1)^n`` forests,
``P(m, n)`` placements, ``m^n`` shared placements — so the per-candidate
Python overhead (graph construction, :class:`~repro.core.GraphArrays`
compilation, attribute dispatch) dominates the arithmetic.  This module
evaluates *matrices* of candidates instead:

* :class:`ForestBatch` — rows are **parent vectors** (entry ``j`` of a row
  is the parent index of service ``j``, ``-1`` for a root) over one
  application and an optional pinned platform/mapping.  One call prices
  every row's period lower bound and reports which rows are acyclic.
* :class:`MappingBatch` — rows are **assignment vectors** (entry ``j`` is
  the platform index of the server hosting service ``j``) for one fixed
  execution graph, injective or shared (with per-server aggregation and
  optional concurrent weights).  One call prices every row's period or
  latency bound.
* :func:`iter_forest_rows` — the full ``(n+1)^n`` parent-vector
  enumeration in chunks, in exactly
  :func:`repro.optimize.exhaustive.iter_forests` order.

**Bit-for-bit contract.**  Every value a batch returns is the *identical*
IEEE-754 double the scalar :class:`~repro.core.FloatCosts` computes for
the same candidate: the kernels replay the scalar fold orders operation
for operation (ancestor products in canonical name order, ``Cout`` sums in
lexicographic child order, shared per-server accumulation in ascending
service order).  The differential harness in
``tests/test_batched_numeric.py`` asserts this equality with ``==`` on
floats, so certified searches may swap the scalar gate for a batched one
without perturbing a single prune/keep decision — results stay bit-for-bit
the all-``Fraction`` ones.

    >>> import numpy as np
    >>> from repro import CommModel, make_application
    >>> app = make_application([("A", 1, "1/2"), ("B", 8, 1)])
    >>> batch = ForestBatch(app, CommModel.OVERLAP)
    >>> rows = np.array([[-1, -1], [-1, 0], [1, -1]])  # empty, A->B, B->A
    >>> valid, periods = batch.periods(rows)
    >>> valid.tolist(), periods.tolist()
    ([True, True, True], [8.0, 4.0, 8.0])
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .constants import INPUT, OUTPUT
from .graph import ExecutionGraph
from .models import CommModel
from .platform import Mapping, Platform
from .service import Application


def _edge_coef_matrix(
    names: Sequence[str],
    platform: Optional[Platform],
    mapping: Optional[Mapping],
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, List[int], bool]":
    """Pinned-mapping coefficient tables mirroring ``FloatCosts`` exactly.

    Returns ``(coef, input_coef, output_coef, speed_div, server_id, shared)``
    where ``coef[i, j]`` is the transfer-time coefficient of a potential
    edge ``i -> j`` (0.0 for co-located services under a shared mapping,
    1.0 on unit platforms, ``1/bandwidth`` otherwise), the input/output
    vectors cover the world edges, ``speed_div`` the per-node speed
    divisor and ``server_id`` a compact id per node (first-appearance
    order, every node ``-1`` when unmapped).
    """
    n = len(names)
    scaled = platform is not None and not platform.is_unit
    shared = mapping is not None and not mapping.is_injective
    if mapping is not None:
        server = [mapping.server(name) for name in names]
    else:
        server = list(names)

    if scaled:
        assert platform is not None
        speed_div = np.array(
            [float(platform.speed(server[i])) for i in range(n)]
        )
        coef = np.empty((n, n))
        # lenient: the full matrix includes self-pairs (diagonal, plus any
        # co-located pair under a shared mapping) that no edge ever reads.
        for i in range(n):
            for j in range(n):
                coef[i, j] = 1.0 / float(
                    platform.bandwidth(server[i], server[j], lenient=True)
                )
        input_coef = np.array(
            [1.0 / float(platform.bandwidth(INPUT, server[i])) for i in range(n)]
        )
        output_coef = np.array(
            [1.0 / float(platform.bandwidth(server[i], OUTPUT)) for i in range(n)]
        )
    else:
        speed_div = np.ones(n)
        coef = np.ones((n, n))
        input_coef = np.ones(n)
        output_coef = np.ones(n)
    if shared:
        for i in range(n):
            for j in range(n):
                if server[i] == server[j]:
                    coef[i, j] = 0.0
    if mapping is not None:
        sid: dict = {}
        server_id = [sid.setdefault(s, len(sid)) for s in server]
    else:
        server_id = [-1] * n
    return coef, input_coef, output_coef, speed_div, server_id, shared


class ForestBatch:
    """Vectorised period pricing of forest candidates (parent-vector rows).

    *app* fixes the services (canonical name order = column order);
    *platform*/*mapping* optionally pin a placement exactly as
    :class:`~repro.core.FloatCosts` accepts one (shared mappings aggregate
    per server).  Pass platform/mapping **already normalised** (unit
    platforms with injective mappings collapsed to ``None`` — see
    :func:`repro.optimize.evaluation.make_fast_period_objective`), which
    the evaluation-layer factory does for you.

    Construction converts the application's exact quantities to floats
    (raising :class:`OverflowError` beyond float range, like the scalar
    kernel); :meth:`periods` then prices any number of rows without
    touching a ``Fraction``.
    """

    def __init__(
        self,
        app: Application,
        model: CommModel,
        platform: Optional[Platform] = None,
        mapping: Optional[Mapping] = None,
    ) -> None:
        self.app = app
        self.model = model
        self.platform = platform
        self.mapping = mapping
        names = list(app.names)
        self.names = names
        n = len(names)
        self.n = n
        self.sigma = np.array([float(app.selectivity(name)) for name in names])
        self.cost = np.array([float(app.cost(name)) for name in names])
        #: Columns in lexicographic name order — the order ``FloatCosts``
        #: folds each node's children in (edges are stored sorted).
        self.lex = sorted(range(n), key=names.__getitem__)
        (
            self.coef, self.input_coef, self.output_coef,
            self.speed_div, server_id, self.shared,
        ) = _edge_coef_matrix(names, platform, mapping)
        self.server_id = np.array(server_id)
        self.n_servers = int(self.server_id.max()) + 1 if mapping is not None else 0
        self.overlap = model.overlaps_compute
        # Contended topologies: each row is a different graph, hence a
        # different flow pattern over the pinned mapping.  ``usage_flat``
        # holds one 0/1 link-usage vector per potential (parent, child)
        # service pair (flattened ``p*n + c``; co-located pairs are all
        # zero — they are not flows) plus a zero sentinel row for roots;
        # :meth:`periods` gathers per-row counts from it and prices each
        # edge at ``max_l k_l / cap_l``, replaying the scalar kernel's
        # ``float(k) * (1/float(cap))`` expression bit-for-bit.
        caps = platform.link_capacities() if platform is not None else ()
        self.contended = (
            platform is not None
            and platform.has_contention
            and mapping is not None
            and len(caps) > 0
        )
        if self.contended:
            server = [mapping.server(name) for name in names]
            self.invcap = np.array([1.0 / float(c) for c in caps])
            usage = np.zeros((n * n + 1, len(caps)))
            for p in range(n):
                for c in range(n):
                    for lid in platform.route(server[p], server[c]):
                        usage[p * n + c, lid] = 1.0
            self.usage_flat = usage

    def ancestor_products(
        self, rows: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """``(valid, anc)`` for parent-vector *rows* (shape ``(R, n)``).

        ``valid[r]`` is ``False`` when row ``r``'s parent pointers contain
        a cycle (the rows :func:`~repro.optimize.exhaustive.iter_forests`
        filters out); ``anc[r, i]`` is the ancestor selectivity product of
        service ``i``, folded in canonical name order — bit-for-bit
        :attr:`repro.core.GraphArrays.anc`.
        """
        rows = np.asarray(rows)
        R, n = rows.shape
        if n != self.n:
            raise ValueError(f"expected {self.n} columns, got {n}")
        # Virtual root: pointer value n.  Walking n parent steps marks every
        # ancestor of every node; rows whose pointers haven't all reached
        # the root by then contain a cycle.
        ext = np.concatenate(
            [np.where(rows < 0, n, rows), np.full((R, 1), n, dtype=rows.dtype)],
            axis=1,
        )
        is_anc = np.zeros((R, n, n), dtype=bool)
        ptr = ext[:, :n].copy()
        for _ in range(n):
            live_r, live_i = np.nonzero(ptr < n)
            if live_r.size == 0:
                break
            is_anc[live_r, live_i, ptr[live_r, live_i]] = True
            ptr = np.take_along_axis(ext, ptr, axis=1)
        valid = (ptr == n).all(axis=1)
        anc = np.ones((R, n))
        sigma = self.sigma
        for j in range(n):  # canonical name order — the scalar fold order
            col = is_anc[:, :, j]
            if col.any():
                anc = np.where(col, anc * sigma[j], anc)
        return valid, anc

    def periods(self, rows: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """``(valid, period)`` per row — the scalar kernel's
        ``FloatCosts(graph, ...).period_lower_bound(model)`` bit-for-bit
        (period values of invalid rows are meaningless)."""
        rows = np.asarray(rows)
        valid, anc = self.ancestor_products(rows)
        R, n = rows.shape
        outsize = anc * self.sigma
        ccomp = (anc * self.cost) / self.speed_div

        r_idx = np.arange(R)
        parent = np.where(rows < 0, 0, rows)
        has_parent = rows >= 0
        col = np.arange(n)[None, :].repeat(R, axis=0)
        if self.contended:
            # Per-row flow counts: gather each edge's link-usage vector
            # (roots hit the zero sentinel), sum to k_l, price each edge
            # at the bottleneck ``max_l k_l / cap_l``.
            pid = np.where(has_parent, parent * n + col, n * n)
            urows = self.usage_flat[pid]                 # (R, n, L)
            lam = urows.sum(axis=1) * self.invcap[None, :]  # (R, L)
            edge_c = (urows * lam[:, None, :]).max(axis=2)  # (R, n)
        else:
            edge_c = self.coef[parent, col]
        # Cin: the single parent edge, or the world input message.
        cin = np.where(
            has_parent,
            outsize[r_idx[:, None], parent] * edge_c,
            self.input_coef[None, :],
        )
        # Cout: children folded in lexicographic name order (the stored
        # edge order the scalar kernel sums in), then the world output
        # message for childless services.
        cout = np.zeros((R, n))
        has_child = np.zeros((R, n), dtype=bool)
        for c in self.lex:
            p = rows[:, c]
            live = np.nonzero(p >= 0)[0]
            if live.size == 0:
                continue
            pl = p[live]
            cout[live, pl] += outsize[live, pl] * edge_c[live, c]
            has_child[live, pl] = True
        leaf = ~has_child
        cout[leaf] = (outsize * self.output_coef[None, :])[leaf]

        if self.shared:
            acc = np.zeros((3, R, self.n_servers))
            sid = self.server_id
            for i in range(n):  # ascending service order — the scalar fold
                acc[0, :, sid[i]] += cin[:, i]
                acc[1, :, sid[i]] += ccomp[:, i]
                acc[2, :, sid[i]] += cout[:, i]
            if self.overlap:
                per_server = np.maximum(np.maximum(acc[0], acc[1]), acc[2])
            else:
                per_server = (acc[0] + acc[1]) + acc[2]
            return valid, per_server.max(axis=1)
        if self.overlap:
            return valid, np.maximum(np.maximum(cin, ccomp), cout).max(axis=1)
        return valid, ((cin + ccomp) + cout).max(axis=1)

    def encode(self, graph: ExecutionGraph) -> np.ndarray:
        """The parent-vector row of a forest *graph* over this application."""
        row = np.full(self.n, -1, dtype=np.int64)
        index = {name: i for i, name in enumerate(self.names)}
        for i, name in enumerate(self.names):
            preds = graph.predecessors(name)
            if len(preds) > 1:
                raise ValueError("ForestBatch rows encode forests only")
            if preds:
                row[i] = index[preds[0]]
        return row

    def decode(self, row: Sequence[int]) -> ExecutionGraph:
        """The forest graph of one parent-vector row."""
        names = self.names
        return ExecutionGraph.from_parents(
            self.app,
            {
                names[i]: (names[int(p)] if p >= 0 else None)
                for i, p in enumerate(row)
            },
        )


class MappingBatch:
    """Vectorised placement pricing of one fixed graph (assignment rows).

    Rows index :attr:`Platform.names`; *kind* picks the priced bound
    (``"period"`` needs *model*, ``"latency"`` is model-independent);
    ``shared=True`` prices rows as shared placements (co-located edges
    zeroed, per-server aggregation, optional concurrent *weights* — which
    force aggregation exactly like the scalar kernel).  Values are
    bit-for-bit the per-row ``FloatCosts(graph, platform, mapping,
    weights=...)`` answers.

    Each call derives every graph edge's per-row message time once, as one
    ``R x E`` matrix (:meth:`_messages`) that ``Cin``, ``Cout`` and the
    latency paths index.  On a contended topology it comes from a single
    gather of the edges' route-usage rows: their sum is each link's flow
    count, and each edge's coefficient is its route's bottleneck
    ``max_l k_l / cap_l``.
    """

    def __init__(
        self,
        graph: ExecutionGraph,
        platform: Platform,
        *,
        kind: str = "period",
        model: CommModel = CommModel.OVERLAP,
        shared: bool = False,
        weights=None,
        arrays=None,
    ) -> None:
        from .numeric import GraphArrays

        if kind not in ("period", "latency"):
            raise ValueError(f"kind must be 'period' or 'latency', got {kind!r}")
        self.graph = graph
        self.platform = platform
        self.kind = kind
        self.model = model
        self.shared = shared
        a = arrays if arrays is not None else GraphArrays(graph)
        self.arrays = a
        self.n = a.n
        self.m = len(platform)
        self.outsize = np.array(a.outsize)
        self.work = np.array(a.work)
        self.scaled = not platform.is_unit
        if self.scaled:
            self.speed = np.array([float(platform.speed(u)) for u in platform.names])
            self.bw_inv = np.empty((self.m, self.m))
            # lenient: the diagonal is never read (co-located edges are
            # zeroed or impossible), but the full matrix materialises it.
            for i, u in enumerate(platform.names):
                for j, v in enumerate(platform.names):
                    self.bw_inv[i, j] = 1.0 / float(
                        platform.bandwidth(u, v, lenient=True)
                    )
            self.bw_in = np.array(
                [1.0 / float(platform.bandwidth(INPUT, u)) for u in platform.names]
            )
            self.bw_out = np.array(
                [1.0 / float(platform.bandwidth(u, OUTPUT)) for u in platform.names]
            )
        if weights:
            self.weight: Optional[np.ndarray] = np.array(
                [float(weights.get(name, 1)) for name in a.names]
            )
        else:
            self.weight = None
        self.overlap = model.overlaps_compute
        self.server_index = {name: i for i, name in enumerate(platform.names)}
        #: The graph's edges in (source, stored successor) order: column
        #: ``e`` of :meth:`_messages` is edge ``(src[e], dst[e])``.
        edges = [(i, j) for i in range(self.n) for j in a.succs[i]]
        self.edge_id = {edge: e for e, edge in enumerate(edges)}
        self.src = np.array([i for i, _ in edges], dtype=np.int64)
        self.dst = np.array([j for _, j in edges], dtype=np.int64)
        self.src_outsize = self.outsize[self.src]
        # Contended topologies: the graph's edges are fixed but each row's
        # assignment induces a different flow pattern.  ``pair_usage``
        # holds one 0/1 link-usage vector per ordered server-index pair
        # (flattened ``si*m + sj``; same-server pairs are all zero).
        caps = platform.link_capacities()
        self.contended = platform.has_contention and len(caps) > 0
        if self.contended:
            self.invcap = np.array([1.0 / float(c) for c in caps])
            m = self.m
            usage = np.zeros((m * m, len(caps)))
            for i, u in enumerate(platform.names):
                for j, v in enumerate(platform.names):
                    for lid in platform.route(u, v):
                        usage[i * m + j, lid] = 1.0
            self.pair_usage = usage

    def _messages(self, S: np.ndarray) -> np.ndarray:
        """Per-row time of every graph edge's message, shape ``(R, E)``:
        the sender's output size times the edge's transfer coefficient."""
        src, dst = S[:, self.src], S[:, self.dst]
        if self.contended:
            # One gather of every edge's link-usage row.  Summed over the
            # edges it gives each link's flow count k_l (whole numbers, so
            # the summation order cannot change them); times 1/cap_l that
            # is the scalar kernel's ``float(k) * (1/float(cap))``.  Each
            # edge's coefficient is the bottleneck max over its route.
            # Same-server pairs have all-zero usage, so their max is 0.0 —
            # the shared "co-located edges are free" rule falls out.
            usage = self.pair_usage[src * self.m + dst]        # (R, E, L)
            lam = usage.sum(axis=1) * self.invcap[None, :]     # (R, L)
            coef = (usage * lam[:, None, :]).max(axis=2)       # (R, E)
        else:
            if self.scaled:
                coef = self.bw_inv[src, dst]
            else:
                coef = np.ones(src.shape)
            if self.shared:
                coef = np.where(src == dst, 0.0, coef)
        return self.src_outsize[None, :] * coef

    def _components(self, S: np.ndarray, msg: np.ndarray):
        """Per-row ``(cin, ccomp, cout)`` matrices, scalar fold orders."""
        a = self.arrays
        eid = self.edge_id
        R = S.shape[0]
        n = self.n
        cin = np.empty((R, n))
        cout = np.empty((R, n))
        for i in range(n):
            preds = a.preds[i]
            if preds:
                acc = np.zeros(R)
                for p in preds:  # stored (lexicographic) edge order
                    acc += msg[:, eid[p, i]]
                cin[:, i] = acc
            else:
                cin[:, i] = self.bw_in[S[:, i]] if self.scaled else 1.0
            succs = a.succs[i]
            if succs:
                acc = np.zeros(R)
                for s in succs:
                    acc += msg[:, eid[i, s]]
                cout[:, i] = acc
            else:
                out_c = self.bw_out[S[:, i]] if self.scaled else 1.0
                cout[:, i] = self.outsize[i] * out_c
        return cin, self._ccomp(S), cout

    def _ccomp(self, S: np.ndarray) -> np.ndarray:
        if self.scaled:
            return self.work / self.speed[S]
        return np.broadcast_to(self.work, S.shape)

    def values(self, rows: np.ndarray) -> np.ndarray:
        """Per-row bound values (period or latency, per *kind*)."""
        S = np.asarray(rows)
        if self.kind == "latency":
            return self._latencies(S)
        return self._periods(S)

    def _periods(self, S: np.ndarray) -> np.ndarray:
        cin, ccomp, cout = self._components(S, self._messages(S))
        if self.shared:
            R = S.shape[0]
            acc = np.zeros((3, R, self.m))
            r_idx = np.arange(R)
            w = self.weight
            for i in range(self.n):  # ascending service order
                idx = S[:, i]
                wi = 1.0 if w is None else w[i]
                acc[0, r_idx, idx] += wi * cin[:, i]
                acc[1, r_idx, idx] += wi * ccomp[:, i]
                acc[2, r_idx, idx] += wi * cout[:, i]
            if self.overlap:
                per_server = np.maximum(np.maximum(acc[0], acc[1]), acc[2])
            else:
                per_server = (acc[0] + acc[1]) + acc[2]
            return per_server.max(axis=1)
        if self.overlap:
            return np.maximum(np.maximum(cin, ccomp), cout).max(axis=1)
        return ((cin + ccomp) + cout).max(axis=1)

    def _latencies(self, S: np.ndarray) -> np.ndarray:
        a = self.arrays
        eid = self.edge_id
        msg = self._messages(S)
        ccomp = self._ccomp(S)
        R = S.shape[0]
        finish = np.zeros((R, self.n))
        for i in a.topo:
            preds = a.preds[i]
            if preds:
                start = np.zeros(R)
                for p in preds:
                    t = finish[:, p] + msg[:, eid[p, i]]
                    start = np.maximum(start, t)
            else:
                start = self.bw_in[S[:, i]] if self.scaled else np.ones(R)
            finish[:, i] = start + ccomp[:, i]
        best = np.full(R, -np.inf)
        for i in range(self.n):
            if not a.succs[i]:
                out_c = self.bw_out[S[:, i]] if self.scaled else 1.0
                best = np.maximum(best, finish[:, i] + self.outsize[i] * out_c)
        return best

    def encode(self, mapping: Mapping) -> np.ndarray:
        """The assignment row of *mapping* for this graph's services."""
        return np.array(
            [self.server_index[mapping.server(name)] for name in self.arrays.names],
            dtype=np.int64,
        )


def iter_forest_rows(n: int, chunk: int = 512):
    """Yield ``(rows, base_index)`` chunks of the full parent-vector space.

    Rows enumerate the same ``n^n`` product as
    :func:`repro.optimize.exhaustive.iter_forests` — per child, choice 0
    is "root" and choices ``1..n-1`` the other services in canonical
    order, last child varying fastest — **including** the cyclic rows the
    scalar enumerator filters (callers mask them via
    :meth:`ForestBatch.periods`'s validity output, preserving candidate
    order and count exactly).
    """
    if n < 1:
        raise ValueError("need at least one service")
    # choice digit d of child c -> parent index (-1 = root)
    lookup = np.empty((n, n), dtype=np.int64)
    for c in range(n):
        lookup[c, 0] = -1
        for d in range(1, n):
            lookup[c, d] = d - 1 if d - 1 < c else d
    total = n ** n
    weights = [n ** (n - 1 - c) for c in range(n)]
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        k = np.arange(start, stop, dtype=np.int64)
        rows = np.empty((stop - start, n), dtype=np.int64)
        for c in range(n):
            digits = (k // weights[c]) % n
            rows[:, c] = lookup[c, digits]
        yield rows, start
        start = stop


__all__ = ["ForestBatch", "MappingBatch", "iter_forest_rows"]

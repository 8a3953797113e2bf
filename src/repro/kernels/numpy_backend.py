"""The ``numpy`` backend: chunk-vectorized kernels (the default).

Embarrassingly-batchable passes (degrees, pre-partitioning, stateless
hashing, the Phase-1 barrier merges) are fully vectorized.  The result
of every pass is bit-exact with the ``python`` reference backend — see
the package docstring for the contract and ``tests/test_kernels.py`` for
the enforcement.  The stateful passes split three ways:

- *Phase-1 clustering* is inherited unchanged from the reference
  backend: list state and the per-edge Algorithm-1 loop.  Cluster
  creation is inherently serial, and on hub-heavy streams a block's
  edges collide on vertices *and* clusters, so no conflict-free share
  worth batching is left; the plain list loop is the fastest exact
  interpreted kernel.
- *2PS-L scoring pass* (Algorithm 2): conflict-free sub-batching.  An
  edge reads and writes only its four candidate cells ``(u,p1) (u,p2)
  (v,p1) (v,p2)`` of the replica matrix, plus the partition sizes
  (degrees and volumes are frozen).  Replica bits are monotone — they
  only go 0 -> 1 — so a cell set at block entry reads set for every edge
  of the block, and only a cell *unset* at entry can change, written by
  an edge that names it as a candidate.  An edge none of whose unset
  cells is an unset cell of an earlier block edge therefore reads
  exactly its entry bits, and is scored vectorized against them; a later
  edge that shares one of its unset cells is itself serial and sees its
  write.  Sizes feed only the hard-cap check.  Counting, per partition,
  the earlier block edges that name it as a candidate bounds its size at
  every edge, and the block is cut at the first edge where that bound
  could reach the cap: before the cut no edge can take the
  hash/least-loaded fallback (which writes cells outside the candidate
  set and depends on exact sizes), so the batched edges commute with the
  serial ones; from the cut on, every edge runs in stream order.
- *HDRF passes* (the 2PS-HDRF remaining pass and the classic baseline):
  every edge mutates the partition sizes that every other edge's balance
  term reads, so no conflict-free subset exists at all.  Each chunk's
  ``theta`` is computed vectorized, and the decisions run edge by edge
  through the exact scalar engine ``_HdrfScalarEngine``.
"""

from __future__ import annotations

import math
from bisect import insort

import numpy as np

from repro.kernels.base import TwoPhaseContext
from repro.kernels.python_backend import PythonBackend

#: Internal sub-batch size of the 2PS-L scoring pass.  Conflict detection
#: happens within one block, so smaller blocks mean fewer cell collisions
#: and a larger vectorized share — but more per-block numpy overhead.
#: Stream chunk boundaries are semantically irrelevant, so re-blocking a
#: chunk internally cannot change results.
STATEFUL_BLOCK = 512


def _group_rank(values: np.ndarray) -> np.ndarray:
    """Rank of each element among the equal elements before it, in order
    (``[3, 1, 3, 3, 1] -> [0, 0, 1, 2, 1]``)."""
    n = values.shape[0]
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    boundary = np.ones(n, dtype=bool)
    boundary[1:] = ordered[1:] != ordered[:-1]
    group_starts = np.maximum.accumulate(np.where(boundary, np.arange(n), 0))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - group_starts
    return rank


class NumpyBackend(PythonBackend):
    """Vectorized kernels (see the module docstring for what is batched
    and why the rest is exact)."""

    name = "numpy"

    # ------------------------------------------------------------------
    # stateless passes
    # ------------------------------------------------------------------
    def degree_pass(self, stream, n_hint: int | None = None) -> np.ndarray:
        deg = np.zeros(int(n_hint) if n_hint else 0, dtype=np.int64)
        for chunk in stream.chunks():
            if chunk.size == 0:
                continue
            counts = np.bincount(chunk.ravel(), minlength=deg.shape[0])
            if counts.shape[0] > deg.shape[0]:
                counts[: deg.shape[0]] += deg
                deg = counts.astype(np.int64, copy=False)
            else:
                deg += counts
        return deg

    def stateless_pass(self, stream, map_chunk, state, assignments) -> None:
        idx = 0
        for chunk in stream.chunks():
            u = chunk[:, 0]
            v = chunk[:, 1]
            parts = map_chunk(u, v)
            state.scatter_edges(u, v, parts)
            assignments[idx : idx + chunk.shape[0]] = parts
            idx += chunk.shape[0]

    # ------------------------------------------------------------------
    # Phase-1 barrier merges (vectorized twins of the reference)
    # ------------------------------------------------------------------
    def merge_phase1_degrees(self, partials, n_hint=None) -> np.ndarray:
        length = int(n_hint) if n_hint else 0
        for partial in partials:
            length = max(length, int(len(partial)))
        out = np.zeros(length, dtype=np.int64)
        for partial in partials:
            out[: len(partial)] += np.asarray(partial, dtype=np.int64)
        return out

    def merge_phase1_clustering(self, v2c, volumes, worker_states, degrees):
        base = int(len(volumes))
        snapshot = np.asarray(v2c, dtype=np.int64)
        merged = snapshot.copy()
        claimed = np.zeros(merged.shape[0], dtype=bool)
        offset = base
        for v2c_w, vol_w in worker_states:
            v2c_w = np.asarray(v2c_w, dtype=np.int64)
            changed = (v2c_w != snapshot) & ~claimed
            if changed.any():
                vals = v2c_w[changed]
                if offset != base:
                    vals = np.where(vals >= base, vals + (offset - base), vals)
                merged[changed] = vals
                claimed |= changed
            offset += int(len(vol_w)) - base
        assigned = merged >= 0
        # Integer-exact despite the float weights: true degrees and their
        # partial sums stay far below 2**53.
        vol = np.bincount(
            merged[assigned],
            weights=np.asarray(degrees, dtype=np.int64)[assigned],
            minlength=offset,
        ).astype(np.int64)
        return merged, vol

    # ------------------------------------------------------------------
    # Phase 2: 2PS-L partitioning passes
    # ------------------------------------------------------------------
    def prepartition_pass(self, stream, ctx: TwoPhaseContext) -> int:
        v2c, c2p = ctx.v2c, ctx.c2p
        sizes = ctx.state.sizes
        replicas = ctx.state.replicas
        capacity = ctx.state.capacity
        assignments = ctx.assignments
        k = ctx.k
        idx = 0
        n_pre = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if c == 0:
                continue
            u = chunk[:, 0]
            v = chunk[:, 1]
            cu = v2c[u]
            cv = v2c[v]
            p1 = c2p[cu]
            mask = (cu == cv) | (p1 == c2p[cv])
            if mask.any():
                tu = u[mask]
                tv = v[mask]
                tp = p1[mask]
                counts = np.bincount(tp, minlength=k)
                if int((sizes + counts).max()) <= capacity:
                    # No edge can hit the cap: pure gather/scatter.
                    sizes += counts
                    replicas[tu, tp] = True
                    replicas[tv, tp] = True
                    assignments[idx : idx + c][mask] = tp
                    n_pre += int(tp.shape[0])
                else:
                    n_pre += self._prepartition_spill(
                        ctx, tu, tv, tp, idx + np.flatnonzero(mask)
                    )
            idx += c
        ctx.cost.edges_streamed += stream.n_edges
        return n_pre

    def _prepartition_spill(self, ctx, tu, tv, tp, positions) -> int:
        """Cap-aware tail of the pre-partition pass.

        The prefix of edges that provably stays below the hard cap in
        serial order is still scattered vectorized; from the first edge
        that can hit the cap onward, the serial reference kernel runs
        (the hash/least-loaded fallback is order-dependent).
        """
        sizes = ctx.state.sizes
        replicas = ctx.state.replicas
        capacity = ctx.state.capacity
        deg = ctx.degrees
        k, cost, seed = ctx.k, ctx.cost, ctx.hash_seed
        n = tp.shape[0]
        safe = _group_rank(tp) < (capacity - sizes)[tp]
        unsafe = np.flatnonzero(~safe)
        # Every edge can be safe even though the caller saw a possible cap
        # hit: a stale parallel view may record an over-cap partition that
        # receives no edge in this block.  Then the whole block scatters.
        j = int(unsafe[0]) if unsafe.size else n
        if j:
            pp = tp[:j]
            sizes += np.bincount(pp, minlength=k)
            replicas[tu[:j], pp] = True
            replicas[tv[:j], pp] = True
            ctx.assignments[positions[:j]] = pp

        def least_loaded() -> int:
            return int(np.argmin(sizes))

        for i in range(j, n):
            uu = int(tu[i])
            vv = int(tv[i])
            p = int(tp[i])
            if sizes[p] >= capacity:
                p = self._fallback_partition(
                    uu, vv, deg, sizes, capacity, k, seed, cost, least_loaded
                )
            sizes[p] += 1
            replicas[uu, p] = True
            replicas[vv, p] = True
            ctx.assignments[positions[i]] = p
        return n

    def remaining_pass_linear(self, stream, ctx: TwoPhaseContext) -> None:
        v2c, c2p = ctx.v2c, ctx.c2p
        idx = 0
        n_scored = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if c == 0:
                continue
            u = chunk[:, 0]
            v = chunk[:, 1]
            cu = v2c[u]
            cv = v2c[v]
            p1 = c2p[cu]
            p2 = c2p[cv]
            rem = ~((cu == cv) | (p1 == p2))
            nrem = int(rem.sum())
            if nrem:
                n_scored += 2 * nrem
                ru = u[rem]
                rv = v[rem]
                rp1 = p1[rem]
                rp2 = p2[rem]
                positions = idx + np.flatnonzero(rem)
                # Score components that are frozen in this pass (degrees,
                # cluster volumes): vectorized once for the whole chunk so
                # the serial conflict path runs at list speed.
                r1, r2, term_u, term_v = self._score_terms(
                    ctx, ru, rv, cu[rem], cv[rem]
                )
                for s in range(0, nrem, STATEFUL_BLOCK):
                    e = s + STATEFUL_BLOCK
                    self._remaining_block(
                        ctx,
                        ru[s:e],
                        rv[s:e],
                        rp1[s:e],
                        rp2[s:e],
                        positions[s:e],
                        r1[s:e],
                        r2[s:e],
                        term_u[s:e],
                        term_v[s:e],
                    )
            idx += c
        ctx.cost.score_evaluations += n_scored
        ctx.cost.edges_streamed += stream.n_edges

    @staticmethod
    def _score_terms(ctx, ru, rv, rcu, rcv):
        """The state-independent parts of the two-candidate score."""
        du = ctx.degrees[ru]
        dv = ctx.degrees[rv]
        dsum = (du + dv).astype(np.float64)
        vol1 = ctx.volumes[rcu]
        vol2 = ctx.volumes[rcv]
        vsum = (vol1 + vol2).astype(np.float64)
        nonzero = vsum > 0
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = np.where(nonzero, vol1 / vsum, 0.0)
            r2 = np.where(nonzero, vol2 / vsum, 0.0)
            term_u = 2.0 - du / dsum
            term_v = 2.0 - dv / dsum
        return r1, r2, term_u, term_v

    def _remaining_block(
        self, ctx, ru, rv, rp1, rp2, positions, r1, r2, term_u, term_v
    ) -> None:
        """One sub-batch of the scoring pass (exactness: module docstring).

        Each edge's four candidate cells ``(u,p1) (u,p2) (v,p1) (v,p2)``
        are gathered once, at block entry.  Before the cap cut, an edge
        none of whose unset cells is also an unset cell of an earlier
        block edge is scored vectorized against those entry bits; the
        other edges, and every edge from the cut on, run in stream order
        through :meth:`_remaining_serial`.  The chosen cells of the whole
        block land in one scatter.
        """
        state = ctx.state
        k = ctx.k
        n = ru.shape[0]
        rows = np.stack((ru, ru, rv, rv), axis=1)
        cols = np.stack((rp1, rp2, rp1, rp2), axis=1)
        bits = state.replicas[rows, cols]
        cut = self._cap_cut(state.sizes, state.capacity, rp1, rp2)
        # Bits only go 0 -> 1, so a cell set at entry stays set; an unset
        # cell can only be written by an edge that has it as a candidate.
        unset = np.flatnonzero(~bits[:cut].ravel())
        cells = rows.ravel()[unset] * k + cols.ravel()[unset]
        conflict = np.zeros(cut, dtype=bool)
        conflict[unset[_group_rank(cells) > 0] >> 2] = True
        batch = np.flatnonzero(~conflict)
        b = bits[batch]
        # Same association order as the reference: ratio, +u, +v.
        s1 = r1[batch] + b[:, 0] * term_u[batch] + b[:, 2] * term_v[batch]
        s2 = r2[batch] + b[:, 1] * term_u[batch] + b[:, 3] * term_v[batch]
        chosen = np.empty(n, dtype=np.int64)
        chosen[batch] = np.where(s1 >= s2, rp1[batch], rp2[batch])
        if batch.shape[0] == n:
            state.sizes += np.bincount(chosen, minlength=k)
        else:
            serial = np.concatenate(
                (np.flatnonzero(conflict), np.arange(cut, n))
            )
            self._remaining_serial(
                ctx, ru, rv, rp1, rp2, r1, r2, term_u, term_v, bits,
                batch, serial, chosen,
            )
        state.replicas[
            np.concatenate((ru, rv)), np.concatenate((chosen, chosen))
        ] = True
        ctx.assignments[positions] = chosen

    @staticmethod
    def _cap_cut(sizes, capacity, rp1, rp2) -> int:
        """Index of the first block edge whose candidate partition could
        be at the cap when the edge is reached (``len`` if none).

        An edge's size bound counts, per partition, the earlier block
        edges naming that partition as a candidate — at least as many as
        can have been assigned there — so no edge before the cut can
        reach the hash/least-loaded fallback, in any processing order.
        """
        n = rp1.shape[0]
        headroom = capacity - sizes
        if int(headroom.min()) >= n:
            return n
        cand = np.stack((rp1, rp2), axis=1).ravel()
        unsafe = np.flatnonzero(_group_rank(cand) >= headroom[cand])
        return int(unsafe[0]) >> 1 if unsafe.size else n

    def _remaining_serial(
        self, ctx, ru, rv, rp1, rp2, r1, r2, term_u, term_v, bits,
        batch, serial, chosen,
    ) -> None:
        """Reference scoring of the ``serial`` edges in stream order.

        A cell's bit is its entry bit or its membership in ``written``,
        the cells set inside this block (the batched edges' included);
        sizes live in a list.  Fills ``chosen`` and the state's sizes and
        leaves the replica writes to the caller's block scatter.
        """
        state = ctx.state
        capacity = state.capacity
        deg = ctx.degrees
        k, cost, seed = ctx.k, ctx.cost, ctx.hash_seed
        bp = chosen[batch]
        sizes = (state.sizes + np.bincount(bp, minlength=k)).tolist()
        written = set((ru[batch] * k + bp).tolist())
        written.update((rv[batch] * k + bp).tolist())
        sb = bits[serial]
        edges = zip(
            ru[serial].tolist(), rv[serial].tolist(),
            rp1[serial].tolist(), rp2[serial].tolist(),
            r1[serial].tolist(), r2[serial].tolist(),
            term_u[serial].tolist(), term_v[serial].tolist(),
            sb[:, 0].tolist(), sb[:, 1].tolist(),
            sb[:, 2].tolist(), sb[:, 3].tolist(),
        )
        out = []

        def least_loaded() -> int:
            return sizes.index(min(sizes))

        for u, v, p1, p2, s1, s2, tu, tv, u1, u2, v1, v2 in edges:
            ku = u * k
            kv = v * k
            if u1 or ku + p1 in written:
                s1 += tu
            if v1 or kv + p1 in written:
                s1 += tv
            if u2 or ku + p2 in written:
                s2 += tu
            if v2 or kv + p2 in written:
                s2 += tv
            p = p1 if s1 >= s2 else p2
            if sizes[p] >= capacity:
                p = self._fallback_partition(
                    u, v, deg, sizes, capacity, k, seed, cost, least_loaded
                )
            sizes[p] += 1
            written.add(ku + p)
            written.add(kv + p)
            out.append(p)
        chosen[serial] = out
        state.sizes[:] = sizes

    # ------------------------------------------------------------------
    # HDRF passes: vectorized theta, decisions through the scalar engine
    # ------------------------------------------------------------------
    def remaining_pass_hdrf(self, stream, ctx: TwoPhaseContext) -> None:
        from repro.core.scoring import HDRF_EPSILON

        if not _HdrfScalarEngine.exact(
            ctx.hdrf_lambda, HDRF_EPSILON, ctx.state.sizes, stream.n_edges
        ):
            super().remaining_pass_hdrf(stream, ctx)
            return
        v2c, c2p = ctx.v2c, ctx.c2p
        degrees = ctx.degrees
        engine = _HdrfScalarEngine(ctx, HDRF_EPSILON)
        if stream.n_edges > 4 * ctx.state.replicas.shape[0]:
            # Long pass over a comparatively small vertex set: one
            # vectorized packing beats per-vertex lazy misses.  Short
            # sync-window dispatches (the parallel path) stay lazy.
            engine.pack_all()
        idx = 0
        n_rem = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if c == 0:
                continue
            u = chunk[:, 0]
            v = chunk[:, 1]
            cu = v2c[u]
            cv = v2c[v]
            rem = ~((cu == cv) | (c2p[cu] == c2p[cv]))
            nrem = int(rem.sum())
            if nrem:
                n_rem += nrem
                ru = u[rem]
                rv = v[rem]
                # theta is frozen in this pass (true degrees): vectorized
                # once, bit-identical to the reference per-edge division.
                theta = degrees[ru] / (degrees[ru] + degrees[rv])
                ctx.assignments[idx + np.flatnonzero(rem)] = engine.run(
                    ru, rv, theta
                )
            idx += c
        ctx.cost.score_evaluations += ctx.k * n_rem
        ctx.cost.edges_streamed += stream.n_edges

    def hdrf_baseline_pass(self, stream, ctx: TwoPhaseContext) -> np.ndarray:
        """Classic HDRF: per-chunk partial-degree theta, scalar decisions.

        The baseline's partial-degree updates are decision-independent,
        so each edge's partial degrees at decision time are reconstructed
        for a whole chunk before any decision is made: each endpoint's
        counter equals the pre-chunk count plus its inclusive occurrence
        rank within the chunk (both endpoints of a self-loop land on the
        same counter, handled by ranking interleaved endpoint slots).
        """
        from repro.core.scoring import HDRF_EPSILON

        if not _HdrfScalarEngine.exact(
            ctx.hdrf_lambda, HDRF_EPSILON, ctx.state.sizes, stream.n_edges
        ):
            return super().hdrf_baseline_pass(stream, ctx)
        n = int(ctx.state.n_vertices)
        engine = _HdrfScalarEngine(ctx, HDRF_EPSILON)
        if stream.n_edges > 4 * n:
            engine.pack_all()
        partial = np.zeros(n, dtype=np.int64)
        idx = 0
        for chunk in stream.chunks():
            c = chunk.shape[0]
            if c == 0:
                continue
            # Endpoint slots in stream order: u at even, v at odd positions.
            ids = np.asarray(chunk, dtype=np.int64).ravel()
            inc = _group_rank(ids) + 1
            u = ids[0::2]
            v = ids[1::2]
            # A self-loop bumps u's counter twice before scoring; its
            # even slot only counted the first bump.
            du = partial[u] + inc[0::2] + (u == v)
            dv = partial[v] + inc[1::2]
            ctx.assignments[idx : idx + c] = engine.run(u, v, du / (du + dv))
            partial += np.bincount(ids, minlength=n)
            idx += c
        ctx.cost.score_evaluations += ctx.k * stream.n_edges
        ctx.cost.edges_streamed += stream.n_edges
        return partial


class _HdrfScalarEngine:
    """Scalar mirror of the live HDRF pass state.

    The HDRF argmax reads the two endpoints' replica rows and every
    partition's size; evaluated with per-edge numpy calls (the
    reference) that is a dozen kernel launches per edge, and a naive
    scalar loop is O(k).  This engine gets the decision down to a
    handful of Python operations per edge by exploiting the score's
    structure.  For one edge the replication term takes only four
    values — ``tu + tv`` (both endpoints replicated), ``tu``, ``tv``,
    and ``0.0`` — and within one such *category* the score differs only
    by the balance term, which is strictly decreasing in the partition
    size.  Hence only the lowest-indexed minimum-size partition of each
    category can enter the argmax set, and the full k-way argmax
    collapses to at most four exactly-scored candidates.

    State kept per pass:

    - per-vertex replica rows as int bitmasks (``masks``), packed
      *lazily* on first touch — construction stays O(k), so the
      parallel path can afford one engine per sync window;
    - per-size-level partition bitmasks (``levels``) plus the sorted
      list of occupied sizes (``order``), so "lowest-indexed minimum-
      size partition inside bitmask X below the cap" is a couple of int
      operations;
    - ties are exact: within a category equal sizes give bit-equal
      scores (lowest set bit wins, as ``np.argmax``), across categories
      float-equal candidate scores resolve by partition index.

    Exactness range.  Rounding is monotone, so the balance term never
    *increases* with the size; the collapse needs it to strictly
    decrease, and the dominance fast path of :meth:`run` needs its
    replication margin of at least ``min(tu, tv) >= 1.0`` to survive
    rounding.  Between two sizes of one category the exact balance terms
    differ by at least ``lam / (eps + spread)``, where ``spread`` bounds
    ``max(sizes) - min(sizes)`` over the pass.  Every computed score is
    within ``3 * ulp(3 + lam)`` of its exact value (two roundings in the
    balance term, one in the sum), so two scores whose exact values
    differ by more than ``6 * ulp(3 + lam)`` keep their strict order.
    :meth:`exact` asks for ``8 * ulp(3 + lam)`` below both the step
    ``lam / (eps + spread)`` and ``1.0``.  Outside that range
    (``lam <= 0`` or non-finite; ``lam`` so small that the steps vanish
    below ``ulp(3)``; ``lam`` above about ``5e14``, where the margin of
    1.0 does) the numpy passes run the reference kernel instead.

    Decisions are made against the engine's scalar state; the matching
    numpy-state updates (replica matrix, size vector) are applied
    vectorized once per :meth:`run` call, so the hot loop performs no
    numpy writes at all.
    """

    __slots__ = (
        "lam", "eps", "capacity", "replicas", "np_sizes", "masks",
        "sizes", "levels", "order", "all_mask",
    )

    def __init__(self, ctx, eps) -> None:
        self.lam = ctx.hdrf_lambda
        self.eps = eps
        self.capacity = ctx.state.capacity
        self.replicas = ctx.state.replicas
        self.np_sizes = ctx.state.sizes
        self.masks: dict[int, int] = {}
        self.all_mask = (1 << ctx.k) - 1
        self.sizes = ctx.state.sizes.tolist()
        levels: dict[int, int] = {}
        for p, s in enumerate(self.sizes):
            levels[s] = levels.get(s, 0) | (1 << p)
        self.levels = levels
        self.order = sorted(levels)

    @staticmethod
    def exact(lam, eps, sizes, n_edges) -> bool:
        """Whether the engine is bit-exact for a pass of ``n_edges``
        edges starting from ``sizes`` (see *Exactness range*)."""
        # max - min <= max, and the max grows by at most one per edge.
        spread = int(sizes.max()) + int(n_edges)
        slack = 8.0 * math.ulp(3.0 + lam)
        return lam > 0.0 and slack < 1.0 and lam / (eps + spread) > slack

    def _pack_row(self, vertex) -> int:
        """Pack one replica row into an int bitmask (first touch only)."""
        packed = getattr(self.replicas, "packed", None)
        if packed is not None:
            # Bit-packed rows already ARE the little-endian mask bytes.
            return int.from_bytes(packed[vertex].tobytes(), "little")
        row = np.packbits(self.replicas[vertex], bitorder="little")
        return int.from_bytes(row.tobytes(), "little")

    def pack_all(self) -> None:
        """Eagerly pack every replica row in one vectorized pass,
        densifying ``masks`` from dict to list (plain indexing in the
        hot loop).  Worth it only when the pass will touch most vertices
        (the caller decides); already-cached masks win over the fresh
        packing.
        """
        packed = getattr(self.replicas, "packed", None)
        if packed is None:
            packed = np.packbits(self.replicas, axis=1, bitorder="little")
        dense = [
            int.from_bytes(row.tobytes(), "little") for row in packed
        ]
        for vertex, mask in self.masks.items():
            dense[vertex] = mask
        self.masks = dense

    def run(self, bu, bv, theta) -> np.ndarray:
        """Decide edges ``(bu[i], bv[i])`` in order; returns their
        partitions and applies them to the numpy replica matrix and
        sizes in one vectorized write.

        The four replication categories are unrolled inline — this is
        the hot loop of the whole 2PS-HDRF pipeline, so it trades
        repetition for zero per-edge function-call overhead.
        """
        lu = bu.tolist()
        lv = bv.tolist()
        lt = theta.tolist()
        masks = self.masks
        dense = isinstance(masks, list)
        masks_get = None if dense else masks.get
        pack = self._pack_row
        levels = self.levels
        order = self.order
        sizes = self.sizes
        lam = self.lam
        eps = self.eps
        cap = self.capacity
        all_mask = self.all_mask
        out = []
        append = out.append
        for i in range(len(lu)):
            u = lu[i]
            v = lv[i]
            if dense:
                mu = masks[u]
                mv = masks[v]
            else:
                mu = masks_get(u)
                if mu is None:
                    mu = pack(u)
                    masks[u] = mu
                mv = masks_get(v)
                if mv is None:
                    mv = pack(v)
                    masks[v] = mv
            X = mu & mv
            m0 = order[0]
            if X and m0 < cap:
                L = levels[m0] & X
                if L:
                    # Dominance fast path: a both-replicated partition at
                    # the global minimum size has the maximal balance term
                    # on top of the maximal replication term, beating any
                    # other partition by at least min(tu, tv) >= 1.0 —
                    # above the rounding error in the exactness range, so
                    # no score needs computing at all.
                    best_p = (L & -L).bit_length() - 1
                    bit = 1 << best_p
                    masks[u] = mu | bit
                    masks[v] = masks[v] | bit
                    s = sizes[best_p]
                    sizes[best_p] = s + 1
                    rest = levels[s] & ~bit
                    if rest:
                        levels[s] = rest
                    else:
                        del levels[s]
                        order.remove(s)
                    s1 = s + 1
                    if s1 in levels:
                        levels[s1] |= bit
                    else:
                        levels[s1] = bit
                        insort(order, s1)
                    append(best_p)
                    continue
            th = lt[i]
            Mf = float(order[-1])
            denom = (eps + Mf) - float(m0)
            tu = 2.0 - th
            tv = 1.0 + th
            best_p = -1
            best_s = 0.0
            if X:  # both endpoints replicated: rep = tu + tv
                for s in order:
                    if s >= cap:
                        break
                    L = levels[s] & X
                    if L:
                        best_p = (L & -L).bit_length() - 1
                        best_s = (tu + tv) + lam * (Mf - float(s)) / denom
                        break
            X = mu & ~mv
            if X:  # u replicated only: rep = tu (+ 0.0 is exact)
                for s in order:
                    if s >= cap:
                        break
                    L = levels[s] & X
                    if L:
                        score = tu + lam * (Mf - float(s)) / denom
                        if best_p < 0 or score > best_s:
                            best_p = (L & -L).bit_length() - 1
                            best_s = score
                        elif score == best_s:
                            p = (L & -L).bit_length() - 1
                            if p < best_p:
                                best_p = p
                        break
            X = mv & ~mu
            if X:  # v replicated only: rep = tv
                for s in order:
                    if s >= cap:
                        break
                    L = levels[s] & X
                    if L:
                        score = tv + lam * (Mf - float(s)) / denom
                        if best_p < 0 or score > best_s:
                            best_p = (L & -L).bit_length() - 1
                            best_s = score
                        elif score == best_s:
                            p = (L & -L).bit_length() - 1
                            if p < best_p:
                                best_p = p
                        break
            X = all_mask & ~(mu | mv)
            if X:  # neither replicated: rep = 0.0, score = balance term
                for s in order:
                    if s >= cap:
                        break
                    L = levels[s] & X
                    if L:
                        score = lam * (Mf - float(s)) / denom
                        if best_p < 0 or score > best_s:
                            best_p = (L & -L).bit_length() - 1
                            best_s = score
                        elif score == best_s:
                            p = (L & -L).bit_length() - 1
                            if p < best_p:
                                best_p = p
                        break
            if best_p < 0:
                best_p = 0  # every partition at the cap: argmax of -inf
            bit = 1 << best_p
            masks[u] |= bit
            masks[v] |= bit
            s = sizes[best_p]
            sizes[best_p] = s + 1
            rest = levels[s] & ~bit
            if rest:
                levels[s] = rest
            else:
                del levels[s]
                order.remove(s)
            s1 = s + 1
            if s1 in levels:
                levels[s1] |= bit
            else:
                levels[s1] = bit
                insort(order, s1)
            append(best_p)
        ps = np.asarray(out, dtype=np.int64)
        self.replicas[bu, ps] = True
        self.replicas[bv, ps] = True
        self.np_sizes += np.bincount(ps, minlength=self.np_sizes.shape[0])
        return ps

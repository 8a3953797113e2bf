"""The 2PS-L partitioner: two-phase streaming edge partitioning (Alg. 2).

Pipeline (each step is a separate streaming pass, timed separately so the
Figure 5 breakdown can be reproduced):

1. **Degree pass** — one linear pass counting true vertex degrees.
2. **Clustering pass(es)** — Phase 1 (:mod:`repro.core.clustering`).
3. **Cluster mapping** — Graham sorted list scheduling of cluster volumes
   onto partitions (:mod:`repro.core.scheduling`).  No streaming.
4. **Pre-partitioning pass** — edges whose endpoints share a cluster, or
   whose clusters are mapped to the same partition, go straight to that
   partition (Algorithm 2, lines 16-26).
5. **Remaining pass** — every other edge is scored on exactly **two**
   candidate partitions (the partitions of its endpoints' clusters) with
   the constant-time 2PS-L score (lines 27-44).

Fallback chain when a target partition is at the hard cap: hash on the
higher-degree endpoint, then the least-loaded open partition as a last
resort — both from the paper (line 40-41 and the prose below them).

Setting ``mode="hdrf"`` replaces step 5's two-candidate scoring with the
full HDRF score over all k partitions, which is the paper's **2PS-HDRF**
variant (Section V-D): better replication factor, O(|E| * k) run-time.

The per-pass edge processing is delegated to a pluggable kernel backend
(:mod:`repro.kernels`): ``backend="numpy"`` (default) runs the
chunk-vectorized kernels, ``backend="python"`` the per-edge reference
kernels — both bit-exact with each other.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.clustering import ClusteringResult, default_volume_cap
from repro.core.runners import SerialRunner, ShardedJob
from repro.core.scheduling import graham_schedule
from repro.errors import ConfigurationError
from repro.kernels import get_backend
from repro.metrics.memory import measured_state_bytes
from repro.metrics.runtime import CostCounter, PhaseTimer
from repro.partitioning.base import (
    EdgePartitioner,
    PartitionArtifacts,
    PartitionResult,
)
from repro.partitioning.state import PartitionState


def check_two_phase_options(
    mode, volume_cap_factor, hdrf_lambda, chunk_size, tune, backend
):
    """Constructor validation shared by both 2PS-L partitioners."""
    if mode not in ("linear", "hdrf"):
        raise ConfigurationError(f"mode must be 'linear' or 'hdrf', got {mode!r}")
    if not math.isfinite(hdrf_lambda):
        raise ConfigurationError(f"hdrf_lambda must be finite, got {hdrf_lambda}")
    if volume_cap_factor <= 0:
        raise ConfigurationError(
            f"volume_cap_factor must be positive, got {volume_cap_factor}"
        )
    if (
        chunk_size is not None
        and chunk_size != "auto"
        and (isinstance(chunk_size, str) or chunk_size <= 0)
    ):
        raise ConfigurationError(
            f"chunk_size must be positive or 'auto', got {chunk_size!r}"
        )
    if tune not in (None, "auto"):
        raise ConfigurationError(f"tune must be None or 'auto', got {tune!r}")
    get_backend(backend)  # validate the name eagerly


def run_two_phase(
    part,
    stream,
    k: int,
    alpha: float,
    runner=None,
    n_workers: int = 1,
    sync_interval: int = 1,
    parallel_phase1: bool = False,
):
    """The 2PS-L pipeline through one runner session.

    ``part`` supplies the algorithm knobs (``backend``,
    ``clustering_passes``, ``volume_cap_factor``, ``mode``,
    ``hdrf_lambda``, ``hash_seed``, ``packed_state``, ``name``).  The
    session of ``runner`` (default :class:`~repro.core.runners.
    SerialRunner`, which ignores ``n_workers``/``sync_interval``) runs
    Phase 2, and Phase 1 too when ``parallel_phase1``; otherwise Phase 1
    is the serial session's pass over the stream itself.

    Returns ``(result, stats)``: ``result.extras`` holds the sequential
    partitioner's diagnostics, ``result.artifacts`` the Phase-1 state, and
    ``stats`` the schedule's ``syncs``, ``phase1_syncs``, barrier bytes
    and (distributed sessions) ``wire`` traffic.
    """
    kernels = get_backend(part.backend)
    timer = PhaseTimer()
    cost = CostCounter()
    m = stream.n_edges
    job = ShardedJob(
        stream=stream,
        n_workers=n_workers,
        sync_interval=sync_interval,
        shard_bounds=np.linspace(0, m, n_workers + 1).astype(np.int64),
        # The *resolved* backend name: an optional backend's fallback is
        # decided once here, never again in a runner worker.
        backend=kernels.name,
        k=k,
        alpha=alpha,
        hash_seed=part.hash_seed,
        hdrf_lambda=part.hdrf_lambda,
        cost=cost,
    )
    session = (runner or SerialRunner()).open(job)
    try:
        phase1 = session if parallel_phase1 else SerialRunner().open(job)
        # Pass 1: true vertex degrees (Figure 5: "Degree").
        with timer.phase("degree"):
            degrees = phase1.run_degree_pass(stream.n_vertices)
            cost.edges_streamed += m
        n = max(EdgePartitioner._resolve_n_vertices(stream, degrees), len(degrees))
        if len(degrees) < n:
            degrees = np.concatenate(
                [degrees, np.zeros(n - len(degrees), dtype=np.int64)]
            )
        # Phase 1: streaming clustering (Figure 5: "Clustering").
        with timer.phase("clustering"):
            cap = default_volume_cap(m, k, part.volume_cap_factor)
            v2c, volumes, phase1_syncs = phase1.run_clustering(
                degrees, cap, part.clustering_passes
            )
        clustering = ClusteringResult(
            v2c, volumes, degrees, cap, part.clustering_passes
        )
        # Phase 2 Step 1: map clusters to partitions (no streaming).
        with timer.phase("mapping"):
            c2p, loads = graham_schedule(volumes, k, cost=cost)
        job.v2c, job.c2p, job.volumes, job.degrees = v2c, c2p, volumes, degrees
        job.state = PartitionState(n, k, m, alpha, packed=part.packed_state)
        job.assignments = np.full(m, -1, dtype=np.int32)
        session.bind_phase2()
        # Phase 2 Steps 2-3: pre-partitioning, then score remaining edges.
        with timer.phase("prepartition"):
            n_pre, syncs_pre = session.run_pass("prepartition")
        with timer.phase("partitioning"):
            _, syncs_rem = session.run_pass(f"remaining_{part.mode}")
        worker_bytes = session.extra_state_bytes()
        wire_stats = session.wire_stats()
        stats = {
            "syncs": syncs_pre + syncs_rem,
            "phase1_syncs": phase1_syncs,
            # Replica rows the Phase-2 delta barriers actually merged
            # versus what full re-broadcast would have touched (bytes =
            # rows * k replica-matrix cells).
            "barrier_bytes": session.barrier_rows * k,
            "barrier_bytes_full": session.barrier_full_rows * k,
            # Distributed sessions also report actual socket traffic
            # (frame bytes both ways, barrier delta vs what a full state
            # re-broadcast would have shipped).
            **({"wire": wire_stats} if wire_stats else {}),
        }
        session.finalize()
    finally:
        session.close()
    result = PartitionResult(
        partitioner=part.name,
        k=k,
        alpha=alpha,
        n_vertices=n,
        n_edges=m,
        assignments=job.assignments,
        state=job.state,
        timer=timer,
        cost=cost,
        state_bytes=measured_state_bytes(job.state, v2c, volumes, degrees, c2p, loads)
        + worker_bytes,
        extras={
            "n_clusters": clustering.n_nonempty_clusters,
            "clustering_passes": clustering.passes,
            "volume_cap": clustering.volume_cap,
            "prepartitioned_edges": n_pre,
            "remaining_edges": m - n_pre,
            "mode": part.mode,
            "backend": kernels.name,
        },
        artifacts=PartitionArtifacts(clustering=clustering, c2p=c2p),
    )
    return result, stats


class TwoPhasePartitioner(EdgePartitioner):
    """2PS-L (default) or 2PS-HDRF (``mode="hdrf"``).

    Parameters
    ----------
    clustering_passes:
        Streaming clustering passes (1 = the paper's recommended default,
        i.e. no re-streaming; Figures 7-8 sweep this).
    volume_cap_factor:
        Cluster volume cap as a multiple of ``|E| / k``; see
        :func:`repro.core.clustering.default_volume_cap`.
    mode:
        ``"linear"`` for 2PS-L's two-candidate constant-time scoring,
        ``"hdrf"`` for full HDRF scoring over all k partitions (2PS-HDRF).
    hdrf_lambda:
        Balance weight of the HDRF score (paper appendix: 1.1).
    hash_seed:
        Seed of the fallback hash.
    keep_state:
        When True, the result carries a typed
        :class:`~repro.partitioning.base.PartitionArtifacts` (Phase-1
        clustering + cluster-to-partition map), so an
        :class:`~repro.core.incremental.IncrementalPartitioner` can be
        built from it for dynamic-graph updates.
    backend:
        Kernel backend name (:mod:`repro.kernels`); ``None`` selects the
        default (``"numpy"``).  Backends are bit-exact, so this is a pure
        performance knob.
    chunk_size:
        Default edges-per-chunk for every streaming pass of a run
        (overridable per call via ``partition(..., chunk_size=...)``);
        ``None`` keeps the stream's own default, ``"auto"`` derives one
        from ``|V|`` and ``k`` (:func:`repro.streaming.stream.
        auto_chunk_size`).
    packed_state:
        When True, the replica matrix is stored bit-packed (``ceil(k/8)``
        bytes per row; the out-of-core memory tier).  A pure storage
        knob — bit-exact with the dense default on every backend.
    tune:
        ``"auto"`` enables the online auto-tuner (:mod:`repro.tuning`)
        for every ``partition(...)`` call of this instance; ``None``
        (default) disables it.  Overridable per call via
        ``partition(..., tune=...)``.  Tuned knobs are pure execution
        knobs, so results stay bit-exact with an untuned run.
    """

    def __init__(
        self,
        clustering_passes: int = 1,
        volume_cap_factor: float = 0.5,
        mode: str = "linear",
        hdrf_lambda: float = 1.1,
        hash_seed: int = 0,
        keep_state: bool = False,
        backend: str | None = None,
        chunk_size: int | str | None = None,
        packed_state: bool = False,
        tune: str | None = None,
    ) -> None:
        check_two_phase_options(
            mode, volume_cap_factor, hdrf_lambda, chunk_size, tune, backend
        )
        self.clustering_passes = int(clustering_passes)
        self.volume_cap_factor = float(volume_cap_factor)
        self.mode = mode
        self.hdrf_lambda = float(hdrf_lambda)
        self.hash_seed = int(hash_seed)
        self.keep_state = bool(keep_state)
        self.backend = backend
        self.chunk_size = chunk_size
        self.packed_state = bool(packed_state)
        self.tune = tune
        self.name = "2PS-L" if mode == "linear" else "2PS-HDRF"

    # ------------------------------------------------------------------
    def _run(self, stream, k: int, alpha: float) -> PartitionResult:
        result, _ = run_two_phase(self, stream, k, alpha)
        if not self.keep_state:
            result.artifacts = None
        return result

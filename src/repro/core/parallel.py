"""CuSP-style parallel streaming partitioning (paper Section VI direction).

The paper observes that "2PS-L could be integrated into the CuSP framework
to speed up the partitioning.  However, parallelization comes with a cost,
as staleness in state synchronization of multiple partitioner instances
can lead to lower partitioning quality."

:class:`ParallelTwoPhase` implements exactly that trade-off.  The edge
stream is split into ``n_workers`` contiguous shards.  Both Phase-2
streaming passes (pre-partitioning and remaining-edge scoring) run per
worker against a *stale* copy of the global replication state that is
re-synchronized only every ``sync_interval`` edges.

Phase 1 can run either shared (the default: degrees, clustering and
mapping execute sequentially, exactly as in the paper's pipeline) or —
with ``parallel_phase1=True`` — sharded through the same runner session:
workers stream disjoint shard windows computing partial degree vectors
and clustering state, merged at every barrier by the associative Phase-1
merge ops of the kernel layer (``merge_phase1_degrees`` /
``merge_phase1_clustering``; see :mod:`repro.kernels` for the exact fold
semantics).  Like Phase-2 staleness, parallel clustering is a *quality*
knob at ``n_workers > 1`` (workers cluster against a stale snapshot
between barriers) but a pure execution knob at ``n_workers = 1``, where
it stays bit-exact with the sequential pipeline.

Execution is delegated to a pluggable **runner**
(:mod:`repro.core.runners`), which decides *who* executes the
deterministic sync-window schedule:

- ``runner="serial"`` — no sharding: the sequential reference execution
  (zero syncs, zero staleness);
- ``runner="simulated"`` (default) — single-process round-robin over
  per-worker stale state views with merge barriers; the parallel
  wall-clock in ``extras`` is *modeled* as
  ``sequential_phase2 / n_workers + syncs * sync_latency``;
- ``runner="process"`` — true ``multiprocessing`` workers against
  shared-memory state views, with the stream reopened per worker from a
  picklable spec (file shards stay out-of-core); wall-clock *measured*;
- ``runner="distributed"`` — socket workers speaking the versioned wire
  protocol of :mod:`repro.core.wire` (loopback, or ``host:port`` worker
  servers); wall-clock *measured*.

The runner is a pure execution knob: the equivalence and single-worker
contract of :mod:`repro.core.runners` (pinned by
``tests/test_parallel_kernels.py`` and ``tests/differential.py``) makes
results bit-identical across runners under the same schedule, and
bit-exact with the sequential
:class:`~repro.core.partitioner.TwoPhasePartitioner` at ``n_workers=1``.
Both partitioners run the one pipeline,
:func:`~repro.core.partitioner.run_two_phase`.

Note on balance: each worker enforces the cap against its *stale* size
view, so within one sync window the global partition sizes can overshoot
``alpha * |E| / k`` slightly — the same effect a real CuSP deployment
shows.  The measured alpha is reported in the result as usual.
"""

from __future__ import annotations

from repro.core.partitioner import check_two_phase_options, run_two_phase
from repro.core.runners import Runner, make_runner
# Kept importable here: perfbench/tracing.py wraps this module's name.
from repro.core.scheduling import graham_schedule  # noqa: F401
from repro.errors import ConfigurationError
from repro.partitioning.base import EdgePartitioner, PartitionResult


class ParallelTwoPhase(EdgePartitioner):
    """Sharded 2PS-L / 2PS-HDRF with periodic state synchronization.

    Parameters
    ----------
    n_workers:
        Parallel partitioner instances (stream shards).
    sync_interval:
        Edges each worker processes between state synchronizations; larger
        means staler replica/size views and lower quality.
    clustering_passes:
        Streaming clustering passes of the shared Phase 1.
    mode:
        ``"linear"`` (2PS-L scoring) or ``"hdrf"`` (2PS-HDRF scoring) for
        the remaining pass, exactly as in the sequential partitioner.
    sync_latency:
        Modeled seconds per synchronization barrier (used by the
        simulated runner's parallel wall-clock estimate in ``extras``).
    backend:
        Kernel backend name (:mod:`repro.kernels`); ``None`` selects the
        default.  Pure performance knob — backends are bit-exact.
    chunk_size:
        Default edges-per-chunk for every streaming pass of a run;
        ``None`` keeps the stream's own default, ``"auto"`` derives one
        from ``|V|`` and ``k`` (:func:`repro.streaming.stream.
        auto_chunk_size`).
    runner:
        Execution runner: ``"serial"``, ``"simulated"`` (default),
        ``"process"``, ``"distributed"``, or a
        :class:`~repro.core.runners.Runner` instance.
        A pure execution knob — results are bit-identical across runners
        under the same schedule (see the module docstring).
    parallel_phase1:
        When True, the degree and clustering passes are sharded through
        the runner session too (partial degree vectors summed; clustering
        windows folded at barriers via the kernel-layer Phase-1 merge
        ops).  Bit-exact with the sequential Phase 1 at ``n_workers=1``;
        a staleness/quality knob beyond that, exactly like Phase 2.  The
        serial runner runs Phase 1 sequentially regardless.
    start_method, task_timeout:
        Process-runner knobs (``multiprocessing`` start method and the
        per-window hang timeout); ignored by the other runners.
    packed_state:
        When True, the global state and every worker view store the
        replica matrix bit-packed (``ceil(k/8)`` bytes per row — the
        out-of-core memory tier).  A pure storage knob: results are
        bit-exact with dense state on every runner and backend.
    tune:
        ``"auto"`` enables the online auto-tuner (:mod:`repro.tuning`)
        for every ``partition(...)`` call of this instance; ``None``
        (default) disables it.  The tuner touches ``sync_interval`` only
        in the semantics-free regime (``n_workers == 1`` or the serial
        runner), so tuned runs stay bit-exact with untuned ones.
    """

    def __init__(
        self,
        n_workers: int = 4,
        sync_interval: int = 1024,
        clustering_passes: int = 1,
        volume_cap_factor: float = 0.5,
        mode: str = "linear",
        hdrf_lambda: float = 1.1,
        sync_latency: float = 0.001,
        hash_seed: int = 0,
        backend: str | None = None,
        chunk_size: int | str | None = None,
        runner: str | Runner = "simulated",
        parallel_phase1: bool = False,
        start_method: str | None = None,
        task_timeout: float = 600.0,
        packed_state: bool = False,
        tune: str | None = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(f"n_workers must be >= 1, got {n_workers}")
        if sync_interval < 1:
            raise ConfigurationError(
                f"sync_interval must be >= 1, got {sync_interval}"
            )
        check_two_phase_options(mode, volume_cap_factor, chunk_size, tune, backend)
        self.n_workers = int(n_workers)
        self.sync_interval = int(sync_interval)
        self.clustering_passes = int(clustering_passes)
        self.volume_cap_factor = float(volume_cap_factor)
        self.mode = mode
        self.hdrf_lambda = float(hdrf_lambda)
        self.sync_latency = float(sync_latency)
        self.hash_seed = int(hash_seed)
        self.backend = backend
        self.chunk_size = chunk_size
        self.runner = make_runner(
            runner, start_method=start_method, task_timeout=task_timeout
        )
        self.parallel_phase1 = bool(parallel_phase1)
        self.packed_state = bool(packed_state)
        self.tune = tune
        self.name = (
            "2PS-L-parallel" if mode == "linear" else "2PS-HDRF-parallel"
        )

    # ------------------------------------------------------------------
    def _run(self, stream, k: int, alpha: float) -> PartitionResult:
        result, stats = run_two_phase(
            self,
            stream,
            k,
            alpha,
            self.runner,
            self.n_workers,
            self.sync_interval,
            self.parallel_phase1,
        )
        extras = result.extras
        del extras["clustering_passes"], extras["volume_cap"]
        phase2_seconds = result.timer.totals.get("prepartition", 0.0) + (
            result.timer.totals.get("partitioning", 0.0)
        )
        result.extras = {
            "n_workers": self.n_workers,
            "sync_interval": self.sync_interval,
            "runner": self.runner.kind,
            "parallel_wall_s": self.runner.parallel_wall_seconds(
                phase2_seconds, self.n_workers, stats["syncs"], self.sync_latency
            ),
            "measured_wallclock": self.runner.measures_wallclock,
            "parallel_phase1": self.parallel_phase1,
            **extras,
            **stats,
        }
        result.artifacts = None
        return result

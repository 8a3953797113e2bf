"""Execution runners: who runs the sync windows of a sharded run.

The 2PS-L pipeline (:func:`repro.core.partitioner.run_two_phase`) owns the
*semantics* of CuSP-style sharded partitioning — contiguous stream shards,
per-worker stale state views, barrier synchronization every
``sync_interval`` edges — and hands the passes to a session opened by a
runner from this module:

- :class:`SerialRunner` — no sharding at all: each pass runs once over the
  full stream against the global state.  The sequential
  :class:`~repro.core.partitioner.TwoPhasePartitioner` *is* this runner,
  and ``ParallelTwoPhase`` uses it for the shared (non-sharded) Phase 1.
- :class:`SimulatedRunner` — the single-process round-robin simulation:
  worker windows execute interleaved in one process, each against its own
  stale heap-allocated state.  Deterministic and dependency-free;
  parallel wall-clock is *modeled*, not measured.
- :class:`ProcessRunner` — true ``multiprocessing`` execution: one pool
  process per shard worker, worker state in shared-memory segments, and
  the stream reopened in every worker from a picklable
  :class:`~repro.streaming.stream.StreamSpec` (file streams stay
  out-of-core; in-memory streams ship their edges once through shared
  memory).  Parallel wall-clock is *measured*.
- :class:`~repro.core.distributed.DistributedRunner` — worker processes
  over TCP sockets (loopback by default, ``host:port`` specs for real
  clusters) speaking the versioned wire format of
  :mod:`repro.core.wire`.  Workers reopen their own stream shards from
  the job's spec, so edge data never crosses the wire.  Registered lazily
  (importing :mod:`repro.core` or calling :func:`make_runner` resolves
  it).

One schedule, one driver
------------------------
:class:`RunnerSession` is the schedule driver; it is the only code that
iterates windows.  Worker ``w`` streams shard ``[bounds[w], bounds[w+1])``
in windows of at most ``sync_interval`` edges (:func:`sweep_windows`); a
*sweep* is every unfinished worker's next window, in ascending worker
order, and a barrier follows every sweep.  The driver runs:

- the degree fan-out — one window per non-empty shard, partials folded
  by ``merge_phase1_degrees``;
- the clustering sweeps — each worker loads the barrier snapshot, runs
  its window and exports (:func:`cluster_window`); the barrier folds the
  exports with ``merge_phase1_clustering`` and :func:`compact_clustering`;
- the Phase-2 sweeps — each window runs a pass against its worker's view
  (:func:`phase2_window`); the barrier merges the views' dirty rows.

The simulated, process and distributed sessions are *transports*: each
only runs one sweep's windows — returning their results in ascending
worker order — and applies one Phase-2 barrier (heap views plus
:func:`merge_barrier`, shared views plus :func:`merge_barrier`, wire
deltas plus :func:`~repro.partitioning.state.merge_replica_wire_deltas`).
The window bodies above are shared by all three, worker side included.

Equivalence contract
--------------------
Because every runner executes that one schedule and the kernel contract
makes chunk and window boundaries semantics-free (see
:mod:`repro.kernels`), the runner is a pure execution knob:

- ``ProcessRunner`` and ``DistributedRunner`` are **bit-identical** to
  ``SimulatedRunner`` under the same schedule — Phase-1 degrees and
  clustering, per-edge assignments, replica matrix, partition sizes
  *and* cost counters (each window counts into a fresh counter that the
  driver sums, and sums commute).  The wire is a value-preserving
  recoding: barriers ship each worker's dirty rows only, which is exact
  because a row clean in worker ``w`` equals the pre-merge global row.
  ``SimulatedRunner`` thereby doubles as the in-CI deterministic twin of
  a multi-host run.
- **Single worker.**  With ``n_workers=1`` every runner is bit-exact with
  the sequential pipeline, because a lone worker's view is never stale:
  in Phase 1 the driver makes the lone worker's export the next window's
  snapshot, unmerged (exact because ``load(export(st))`` round-trips), and
  in Phase 2 the view is refreshed from the worker's own writes.
  :class:`SerialRunner` is bit-exact with the sequential pipeline for
  *any* worker count because it ignores sharding entirely.

``tests/test_parallel_kernels.py`` and the randomized differential
harness (``tests/differential.py``) enforce all of this.

Barrier cost
------------
Phase-2 barriers use **dirty-row delta bitmaps**
(:func:`repro.partitioning.state.merge_replica_deltas`): each worker view
marks the endpoint rows of the windows it streams, and the barrier ORs
and re-broadcasts only the union of dirty rows instead of the full
``|V| x k`` replica matrix.  The driver accounts the merged versus the
hypothetical full row counts (``barrier_rows`` / ``barrier_full_rows``)
so the saving is measurable end to end (``BENCH_parallel.json``).

Shared-memory lifecycle
-----------------------
A process session owns every segment it creates (worker state views, the
Phase-1 clustering scratch, the read-only Phase-1 arrays, the assignment
array, and — for non-file streams — the edge array).  Session *open* ships
only a picklable stream spec and scalars to the pool, so it is O(1) in
``|V|``; the Phase-1 arrays travel through one shared segment that workers
attach lazily on first use.  Segments are unlinked in ``close()``;
``close()`` is idempotent and runs on both success and error paths, so a
crashed or timed-out worker cannot leak segments past the session
(verified by the cleanup tests; :func:`live_shared_segments` exposes the
owned set).  Workers only ever *attach* and never unlink.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from repro.core.clustering import StreamingClustering
from repro.errors import ConfigurationError, PartitioningError
from repro.kernels import TwoPhaseContext, get_backend
from repro.metrics.runtime import CostCounter
from repro.partitioning.state import (
    PartitionState,
    _BufferArena,
    _replica_storage,
    merge_replica_deltas,
)
from repro.streaming.stream import make_stream_spec

#: Pass names a runner can execute -> kernel-backend method names.
PASS_METHODS = {
    "prepartition": "prepartition_pass",
    "remaining_linear": "remaining_pass_linear",
    "remaining_hdrf": "remaining_pass_hdrf",
}

_COST_FIELDS = tuple(f.name for f in fields(CostCounter))

#: Driver steps whose worker failures surface as the typed Phase-1 error.
_PHASE1_STEPS = ("degree", "clustering")


def _merge_cost(cost: CostCounter, delta) -> None:
    """Accumulate a worker's per-window cost tuple into ``cost``."""
    for name, value in zip(_COST_FIELDS, delta):
        setattr(cost, name, getattr(cost, name) + int(value))


def cluster_id_capacity(n_edges: int, n_vertices: int) -> int:
    """Upper bound on live cluster ids any Phase-1 export can carry.

    Every barrier compacts the merged clustering
    (:func:`compact_clustering`), so a worker's next export is the
    compacted base plus its own window's fresh clusters.  Both terms are
    counted by *assigned vertices*: a live cluster has at least one
    assigned member (clusters only exist through members, and parallel
    clustering always folds true degrees, so a member contributes
    positive volume), and each fresh cluster assigns one
    snapshot-unassigned vertex — hence exports stay within ``|V|``.
    Assigned vertices are also endpoint first-encounters of processed
    edges, disjoint across shards, giving the ``2 * |E|`` bound.  The
    unmerged single-worker path opens at most one cluster per vertex,
    satisfying the same bound.
    """
    return min(2 * int(n_edges), int(n_vertices)) + 1


def compact_clustering(
    v2c: np.ndarray, volumes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drop zero-volume clusters, relabeling ids order-preservingly.

    Merging per-worker clustering exports leaves behind clusters whose
    members all migrated away (volume 0).  Compacting at every barrier
    keeps the id space — and with it the fixed per-worker scratch of the
    process runner (:func:`cluster_id_capacity`) — bounded by *live*
    clusters instead of cumulative allocations.

    Semantics-free by construction: assigned vertices always point at
    live clusters (a member contributes positive volume), and the relabel
    is monotone, so the volume ordering — all downstream consumers
    (Graham scheduling, cluster-to-partition lookups) are order- or
    id-composition-based — is preserved bit-exactly.
    """
    live = np.flatnonzero(volumes > 0)
    if live.shape[0] == volumes.shape[0]:
        return v2c, volumes
    remap = np.full(volumes.shape[0], -1, dtype=np.int64)
    remap[live] = np.arange(live.shape[0], dtype=np.int64)
    assigned = v2c >= 0
    out = v2c.copy()
    out[assigned] = remap[v2c[assigned]]
    return out, volumes[live]


@dataclass
class ShardedJob:
    """Everything one run shares across its passes.

    Built by :func:`~repro.core.partitioner.run_two_phase` before Phase 1
    and handed to ``Runner.open``; the Phase-1 product fields (``v2c`` ..
    ``degrees``) and the Phase-2 outputs (``state``, ``assignments``) are
    filled in before :meth:`RunnerSession.bind_phase2`.  ``cost``
    accumulates over the whole run.

    ``backend`` carries the *resolved* kernel-backend name: the parent
    resolves optional-backend fallback (e.g. ``numba`` without its
    dependency -> the default backend, one warning) once before opening
    the session, so every worker's ``get_backend(job.backend)`` hits a
    concrete registered backend — process-pool workers never re-detect
    optional dependencies or repeat fallback warnings.
    """

    stream: object
    n_workers: int
    sync_interval: int
    shard_bounds: np.ndarray
    backend: str | None
    k: int
    alpha: float
    hash_seed: int
    hdrf_lambda: float
    cost: CostCounter
    v2c: np.ndarray | None = None
    c2p: np.ndarray | None = None
    volumes: np.ndarray | None = None
    degrees: np.ndarray | None = None
    state: PartitionState | None = None
    assignments: np.ndarray | None = None


def merge_barrier(state: PartitionState, worker_states) -> int:
    """One Phase-2 synchronization barrier; returns the rows refreshed.

    Replica bits merge by OR; sizes merge by summing each worker's delta
    against the last synchronized global sizes (every edge is assigned by
    exactly one worker, so deltas are disjoint).  Afterwards every worker
    view equals the new global state.  When every view tracks dirty rows
    the merge touches only the dirty union
    (:func:`~repro.partitioning.state.merge_replica_deltas`); otherwise it
    falls back to the full re-broadcast.  Shared by the simulated and the
    process runner so their barrier arithmetic cannot diverge.
    """
    if all(ws.dirty is not None for ws in worker_states):
        return merge_replica_deltas(state, worker_states)
    # Raw-storage OR: a logical OR on dense bool rows, a byte OR on
    # bit-packed rows — one fallback for both representations.
    merged = np.bitwise_or.reduce(
        [_replica_storage(state.replicas)]
        + [_replica_storage(ws.replicas) for ws in worker_states]
    )
    new_sizes = state.sizes + sum(ws.sizes - state.sizes for ws in worker_states)
    _replica_storage(state.replicas)[:] = merged
    state.sizes[:] = new_sizes
    for ws in worker_states:
        _replica_storage(ws.replicas)[:] = merged
        ws.sizes[:] = new_sizes
    return int(state.n_vertices)


def sweep_windows(bounds, sync_interval: int):
    """The sync-window schedule, one sweep at a time.

    Yields, per sweep, the list of ``(worker, start, stop)`` windows:
    every worker whose shard ``[bounds[w], bounds[w+1])`` is not yet
    exhausted advances by at most ``sync_interval`` edges, in ascending
    worker order.  Empty shards never yield a window, and the windows of
    all sweeps tile ``[bounds[0], bounds[-1])`` exactly once.
    """
    position = [int(b) for b in bounds[:-1]]
    stop = [int(b) for b in bounds[1:]]
    while True:
        sweep = []
        for w, end in enumerate(stop):
            start = position[w]
            if start < end:
                position[w] = min(start + sync_interval, end)
                sweep.append((w, start, position[w]))
        if not sweep:
            return
        yield sweep


def _gather(step: str, sweep, results) -> list:
    """Drain a transport's window results (ascending worker order).

    A Phase-1 window's failure becomes the one typed error every runner
    raises for it, naming the worker; Phase-2 failures propagate as-is.
    """
    out = []
    try:
        for result in results:
            out.append(result)
    except PartitioningError:
        raise
    except Exception as exc:
        if step not in _PHASE1_STEPS:
            raise
        worker = sweep[len(out)][0]
        raise PartitioningError(
            f"phase-1 worker {worker} died during the {step} pass: "
            f"{type(exc).__name__}: {exc}"
        ) from exc
    return out


# ----------------------------------------------------------------------
# window bodies (run in-process and by pool and socket workers alike)
# ----------------------------------------------------------------------
class _SubStream:
    """A ``[start, stop)`` stream window, consumable by kernels.

    Lazy: chunks come straight from the underlying stream's window
    iterator, so a worker holds at most one chunk of its current window
    in memory.
    """

    __slots__ = ("_stream", "_start", "_stop", "n_edges")

    n_vertices = None

    def __init__(self, stream, start: int, stop: int) -> None:
        self._stream = stream
        self._start = start
        self._stop = stop
        self.n_edges = stop - start

    def chunks(self, chunk_size=None):
        return self._stream.window(self._start, self._stop, chunk_size)


class _DirtyMarkingStream:
    """Stream wrapper that marks every chunk's endpoint rows as dirty.

    Wrapping the sync-window stream (instead of instrumenting every
    replica write inside the kernels) is exact because each Phase-2 pass
    only ever writes the replica rows of its window-edge endpoints — a
    superset mark is always safe for the delta barrier.
    """

    __slots__ = ("_inner", "_state", "n_edges")

    n_vertices = None

    def __init__(self, inner, state: PartitionState) -> None:
        self._inner = inner
        self._state = state
        self.n_edges = inner.n_edges

    def chunks(self, chunk_size=None):
        for chunk in self._inner.chunks(chunk_size):
            if chunk.size:
                self._state.mark_dirty(chunk.ravel())
            yield chunk


def cluster_window(kernels, stream, start, stop, v2c, volumes, degrees, cap):
    """One Phase-1 clustering window against a stale snapshot.

    ``clustering_load`` -> ``clustering_true_pass`` over ``[start, stop)``
    -> ``clustering_export``; returns the export plus the window's cost
    tuple ``(v2c, volumes, cost)``.
    """
    st = kernels.clustering_load(v2c, volumes, degrees)
    cost = CostCounter()
    kernels.clustering_true_pass(_SubStream(stream, start, stop), st, cap, cost)
    v2c, volumes, _ = kernels.clustering_export(st)
    return v2c, volumes, astuple(cost)


def phase2_context(params, v2c, c2p, volumes, degrees) -> TwoPhaseContext:
    """The read-only part of a Phase-2 kernel context.

    ``params`` supplies ``k``, ``hash_seed`` and ``hdrf_lambda``; each
    window fills in ``state``, ``assignments`` and ``cost``.
    """
    return TwoPhaseContext(
        k=params.k,
        v2c=v2c,
        c2p=c2p,
        volumes=volumes,
        degrees=degrees,
        state=None,
        assignments=None,
        hash_seed=params.hash_seed,
        cost=None,
        hdrf_lambda=params.hdrf_lambda,
    )


def phase2_window(kernels, stream, ctx, view, assignments, pass_name, start, stop):
    """One Phase-2 window: ``pass_name`` over ``[start, stop)``.

    Runs against the worker's ``view`` (its window-endpoint rows marked
    dirty when the view tracks them), writing ``assignments`` — the
    window's slice.  Returns ``(kernel total, cost tuple)``.
    """
    cost = CostCounter()
    window = _SubStream(stream, start, stop)
    if view.dirty is not None:
        window = _DirtyMarkingStream(window, view)
    out = getattr(kernels, PASS_METHODS[pass_name])(
        window, replace(ctx, state=view, assignments=assignments, cost=cost)
    )
    return (0 if out is None else int(out)), astuple(cost)


# ----------------------------------------------------------------------
# runner protocol and the schedule driver
# ----------------------------------------------------------------------
class RunnerSession:
    """One run's execution state; the base class is the schedule driver.

    :meth:`run_degree_pass`, :meth:`run_clustering` and :meth:`run_pass`
    walk the schedule (see the module docstring).  Transports implement
    the hooks below them: run one sweep's windows, returning an iterable
    of per-window results in ascending worker order, and apply one
    Phase-2 barrier.
    """

    #: Rows merged by Phase-2 delta barriers / rows a full re-broadcast
    #: would have merged (equal when the full path ran).
    barrier_rows: int = 0
    barrier_full_rows: int = 0

    def __init__(self, job: ShardedJob) -> None:
        self.job = job

    # -- the driver ----------------------------------------------------
    def run_degree_pass(self, n_hint: int | None = None) -> np.ndarray:
        """Per-shard partial degree vectors, merged by summation."""
        bounds = self.job.shard_bounds
        shards = [
            (w, int(bounds[w]), int(bounds[w + 1]))
            for w in range(self.job.n_workers)
            if bounds[w] < bounds[w + 1]
        ]
        partials = _gather("degree", shards, self._degree_windows(shards))
        return get_backend(self.job.backend).merge_phase1_degrees(partials, n_hint)

    def run_clustering(
        self, degrees: np.ndarray, cap: float, n_passes: int
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Sharded Phase-1 clustering; returns ``(v2c, volumes, syncs)``."""
        job = self.job
        kernels = get_backend(job.backend)
        degrees = np.asarray(degrees, dtype=np.int64)
        v2c = np.full(degrees.shape[0], -1, dtype=np.int64)
        volumes = np.zeros(0, dtype=np.int64)
        syncs = 0
        self._phase1_open(degrees, float(cap))
        for _ in range(int(n_passes)):
            for sweep in sweep_windows(job.shard_bounds, job.sync_interval):
                exports = _gather(
                    "clustering", sweep, self._cluster_windows(sweep, v2c, volumes)
                )
                for _, _, cost in exports:
                    _merge_cost(job.cost, cost)
                syncs += 1
                if job.n_workers == 1:
                    # Never stale: the export is the next snapshot as is.
                    ((v2c, volumes, _),) = exports
                    continue
                v2c, volumes = kernels.merge_phase1_clustering(
                    v2c, volumes, [export[:2] for export in exports], degrees
                )
                v2c, volumes = compact_clustering(v2c, volumes)
        self._phase1_close()
        return v2c, volumes, syncs

    def run_pass(self, pass_name: str) -> tuple[int, int]:
        """One sharded Phase-2 pass; returns ``(total, syncs)``."""
        if pass_name not in PASS_METHODS:
            raise ConfigurationError(f"unknown pass {pass_name!r}")
        job = self.job
        total = syncs = 0
        for sweep in sweep_windows(job.shard_bounds, job.sync_interval):
            windows = self._phase2_windows(pass_name, sweep)
            for out, cost in _gather(pass_name, sweep, windows):
                total += out
                _merge_cost(job.cost, cost)
            rows = self._barrier(pass_name)
            syncs += 1
            if rows is not None:
                self.barrier_rows += rows
                self.barrier_full_rows += job.state.n_vertices
        return total, syncs

    # -- transport hooks -----------------------------------------------
    def _degree_windows(self, shards):
        """Degree partials of ``shards`` (one window per shard)."""
        raise NotImplementedError

    def _phase1_open(self, degrees: np.ndarray, cap: float) -> None:
        """Prepare the clustering windows (true degrees, volume cap)."""

    def _cluster_windows(self, sweep, v2c, volumes):
        """``cluster_window`` results of ``sweep`` from the snapshot."""
        raise NotImplementedError

    def _phase1_close(self) -> None:
        """Release clustering-only resources."""

    def _phase2_windows(self, pass_name: str, sweep):
        """``phase2_window`` results of ``sweep``."""
        raise NotImplementedError

    def _barrier(self, pass_name: str) -> int | None:
        """Merge and refresh every view; rows merged (None: no views)."""
        raise NotImplementedError

    # -- lifecycle -----------------------------------------------------
    def bind_phase2(self) -> None:
        """Allocate Phase-2 execution state once the job carries the
        Phase-1 arrays, the global state and the assignment array."""

    def finalize(self) -> None:
        """Copy shared results back into the job arrays (success path)."""

    def close(self) -> None:
        """Release every resource; idempotent, safe on error paths."""

    def extra_state_bytes(self) -> int:
        """Bytes held by per-worker state views beyond the global state."""
        return 0

    def wire_stats(self) -> dict | None:
        """Wire-traffic accounting (distributed sessions only)."""
        return None


class Runner(ABC):
    """Opens the execution session of one 2PS-L run."""

    #: Registry name; subclasses override.
    kind: str = "abstract"

    #: True when wall-clock measured around ``run_pass`` is real parallel
    #: time (processes actually ran concurrently), False when it is
    #: single-process compute that a model must convert.
    measures_wallclock: bool = False

    @abstractmethod
    def open(self, job: ShardedJob) -> RunnerSession:
        """Start a session for one run (allocate views, pools, segments)."""

    def parallel_wall_seconds(
        self,
        phase2_seconds: float,
        n_workers: int,
        syncs: int,
        sync_latency: float,
    ) -> float:
        """Parallel Phase-2 wall-clock estimate for the result extras."""
        return phase2_seconds  # measured runners: the timer already is it

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} kind={self.kind!r}>"


# ----------------------------------------------------------------------
# serial
# ----------------------------------------------------------------------
class SerialRunner(Runner):
    """Sequential reference execution: one window, the whole stream.

    Ignores ``n_workers``/``sync_interval`` — each pass (Phase 1 and
    Phase 2 alike) dispatches the kernel once over the stream object
    itself against the global state: the sequential pipeline.  Reports
    zero syncs.
    """

    kind = "serial"

    def open(self, job: ShardedJob) -> RunnerSession:
        return _SerialSession(job)


class _SerialSession(RunnerSession):
    def run_degree_pass(self, n_hint: int | None = None) -> np.ndarray:
        return get_backend(self.job.backend).degree_pass(self.job.stream, n_hint)

    def run_clustering(self, degrees, cap, n_passes):
        job = self.job
        result = StreamingClustering(
            n_passes=n_passes, volume_cap=cap, backend=job.backend
        ).run(job.stream, degrees=degrees, cost=job.cost)
        return result.v2c, result.volumes, 0

    def run_pass(self, pass_name: str) -> tuple[int, int]:
        job = self.job
        ctx = phase2_context(job, job.v2c, job.c2p, job.volumes, job.degrees)
        kernel = getattr(get_backend(job.backend), PASS_METHODS[pass_name])
        out = kernel(
            job.stream,
            replace(ctx, state=job.state, assignments=job.assignments, cost=job.cost),
        )
        return (0 if out is None else int(out)), 0


# ----------------------------------------------------------------------
# simulated (single-process round-robin)
# ----------------------------------------------------------------------
class SimulatedRunner(Runner):
    """Single-process round-robin execution of the sharded schedule.

    Workers take turns window by window so the interleaving (and
    therefore the staleness pattern) matches a real parallel run with
    barrier syncs; parallel wall-clock is *modeled* as
    ``sequential_phase2 / n_workers + syncs * sync_latency``.
    """

    kind = "simulated"

    def open(self, job: ShardedJob) -> RunnerSession:
        return _SimulatedSession(job)

    def parallel_wall_seconds(
        self, phase2_seconds, n_workers, syncs, sync_latency
    ) -> float:
        return phase2_seconds / n_workers + syncs * sync_latency


class _SimulatedSession(RunnerSession):
    def __init__(self, job: ShardedJob) -> None:
        super().__init__(job)
        self.kernels = get_backend(job.backend)
        self.views: list[PartitionState] = []

    def _degree_windows(self, shards):
        for _, start, stop in shards:
            yield self.kernels.degree_pass(_SubStream(self.job.stream, start, stop))

    def _phase1_open(self, degrees, cap) -> None:
        self._phase1 = (degrees, cap)

    def _cluster_windows(self, sweep, v2c, volumes):
        for _, start, stop in sweep:
            yield cluster_window(
                self.kernels, self.job.stream, start, stop, v2c, volumes, *self._phase1
            )

    def bind_phase2(self) -> None:
        job = self.job
        self.ctx = phase2_context(job, job.v2c, job.c2p, job.volumes, job.degrees)
        # A single worker's view is never stale, so it shares the global
        # state outright: no merge work and no barrier accounting.
        if job.n_workers == 1:
            self.views = [job.state]
            return
        self.views = [
            PartitionState(
                job.state.n_vertices,
                job.k,
                job.state.n_edges,
                job.alpha,
                track_dirty=True,
                packed=job.state.packed,
            )
            for _ in range(job.n_workers)
        ]

    def _phase2_windows(self, pass_name, sweep):
        job = self.job
        for w, start, stop in sweep:
            yield phase2_window(
                self.kernels,
                job.stream,
                self.ctx,
                self.views[w],
                job.assignments[start:stop],
                pass_name,
                start,
                stop,
            )

    def _barrier(self, pass_name):
        if self.views[0] is self.job.state:
            return None
        return merge_barrier(self.job.state, self.views)

    def extra_state_bytes(self) -> int:
        return sum(ws.nbytes() for ws in self.views if ws is not self.job.state)


# ----------------------------------------------------------------------
# process (true multiprocessing over shared memory)
# ----------------------------------------------------------------------
#: Names of shared segments currently owned by live process sessions.
#: Test/debug hook: must be empty whenever no session is open.
_LIVE_SEGMENTS: set[str] = set()


def live_shared_segments() -> frozenset[str]:
    """Segment names owned by open process sessions (leak-check hook)."""
    return frozenset(_LIVE_SEGMENTS)


def default_start_method() -> str:
    """``fork`` where available (cheap, inherits the backend registry),
    else ``spawn``."""
    import multiprocessing as mp

    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def check_start_method(start_method: str | None) -> None:
    """Reject a ``multiprocessing`` start method this host lacks."""
    import multiprocessing as mp

    if start_method is not None and start_method not in mp.get_all_start_methods():
        raise ConfigurationError(
            f"start_method {start_method!r} not available; "
            f"choose from {mp.get_all_start_methods()}"
        )


@dataclass
class _WorkerPayload:
    """Once-per-worker initialization, for pool and socket workers alike.

    Deliberately tiny — a stream spec plus scalars — so opening a session
    is O(1) in ``|V|``; the Phase-1 arrays and every state view reach the
    workers later (shared segments or bind frames).
    """

    spec: object
    n_edges: int
    k: int
    alpha: float
    backend: str | None
    hash_seed: int
    hdrf_lambda: float

    @classmethod
    def of(cls, job: ShardedJob, spec) -> _WorkerPayload:
        return cls(
            spec=spec,
            n_edges=int(job.shard_bounds[-1]),
            k=job.k,
            alpha=job.alpha,
            backend=job.backend,
            hash_seed=job.hash_seed,
            hdrf_lambda=job.hdrf_lambda,
        )


def open_worker(payload: _WorkerPayload) -> dict:
    """Worker-side context: the payload, the reopened stream, the kernels."""
    return {
        "payload": payload,
        "stream": payload.spec.open(),
        "kernels": get_backend(payload.backend),
    }


def _cluster_layout(buf, n: int, cap_ids: int, n_workers: int):
    """The Phase-1 scratch: degrees, then per worker ``(header, v2c,
    volumes)`` slots (``header[0]`` = live cluster ids in the slot)."""
    arena = _BufferArena(buf)
    degrees = arena(n, np.int64)
    slots = [
        (arena(1, np.int64), arena(n, np.int64), arena(cap_ids, np.int64))
        for _ in range(n_workers)
    ]
    return degrees, slots


def _phase1_layout(buf, n: int, n_clusters: int):
    """The read-only Phase-1 arrays ``(v2c, c2p, volumes, degrees)``."""
    arena = _BufferArena(buf)
    sizes = (n, n_clusters, n_clusters, n)
    return tuple(arena(size, np.int64) for size in sizes)


_WORKER = None  # per-process context, set by _process_worker_init


def _process_worker_init(payload: _WorkerPayload) -> None:
    """Pool initializer: open the stream, resolve the kernel backend.

    Never raises: an exception escaping a pool initializer makes the
    worker exit and the pool respawn it in a tight crash loop, with the
    parent none the wiser until a task timeout.  Instead the failure is
    recorded and re-raised by the first task, so the parent gets the
    true cause immediately through the normal result path.
    """
    global _WORKER
    try:
        _WORKER = open_worker(payload)
    except BaseException as exc:  # noqa: BLE001 - see docstring
        _WORKER = {"init_error": f"{type(exc).__name__}: {exc}"}


def _attached(key: str, ref, attach):
    """Map a session segment once per worker (memoized per ``ref``)."""
    cached = _WORKER.get(key)
    if cached is None or cached["ref"] != ref:
        from multiprocessing import shared_memory

        shms = [shared_memory.SharedMemory(name=name) for name in ref[0]]
        cached = {"ref": ref, "shms": shms, **attach(shms, *ref[1:])}
        _WORKER[key] = cached
    return cached


def _attach_cluster(shms, n, cap_ids, n_workers) -> dict:
    degrees, slots = _cluster_layout(shms[0].buf, n, cap_ids, n_workers)
    return {"degrees": degrees, "slots": slots}


def _attach_phase2(shms, view_names, n, n_clusters, packed) -> dict:
    payload = _WORKER["payload"]
    phase1 = _phase1_layout(shms[1].buf, n, n_clusters)
    return {
        "assignments": np.ndarray(
            payload.n_edges, dtype=np.int32, buffer=shms[0].buf
        ),
        "views": [
            PartitionState.attach(
                name,
                n,
                payload.k,
                payload.n_edges,
                payload.alpha,
                track_dirty=True,
                packed=packed,
            )
            for name in view_names
        ],
        "ctx": phase2_context(payload, *phase1),
    }


def _process_worker_task(task):
    """One window in a pool worker, dispatched on the task kind.

    Any pool process may execute any shard worker's window (every process
    can map every segment); within a sweep the windows of distinct shard
    workers touch disjoint slots, views and assignment slices, so there
    are no cross-process races by construction.
    """
    if "init_error" in _WORKER:
        raise PartitioningError(
            "process worker initialization failed: " + _WORKER["init_error"]
        )
    kind, w, start, stop, ref, arg = task
    kernels, stream = _WORKER["kernels"], _WORKER["stream"]
    if kind == "degree":
        return kernels.degree_pass(_SubStream(stream, start, stop))
    if kind == "cluster":
        scratch = _attached("cluster", ref, _attach_cluster)
        header, v2c_slot, vol_slot = scratch["slots"][w]
        v2c, volumes, cost = cluster_window(
            kernels,
            stream,
            start,
            stop,
            v2c_slot,
            vol_slot[: int(header[0])],
            scratch["degrees"],
            arg,
        )
        if volumes.shape[0] > vol_slot.shape[0]:  # pragma: no cover - bound
            raise PartitioningError(
                f"phase-1 cluster-id capacity exceeded: {volumes.shape[0]} "
                f"ids for a scratch of {vol_slot.shape[0]}"
            )
        v2c_slot[:] = v2c
        vol_slot[: volumes.shape[0]] = volumes
        header[0] = volumes.shape[0]
        return cost
    phase2 = _attached("phase2", ref, _attach_phase2)
    return phase2_window(
        kernels,
        stream,
        phase2["ctx"],
        phase2["views"][w],
        phase2["assignments"][start:stop],
        arg,
        start,
        stop,
    )


class ProcessRunner(Runner):
    """True multi-process execution over shared-memory state views.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method (``None`` picks
        :func:`default_start_method`).  ``fork`` inherits dynamically
        registered kernel backends; ``spawn`` re-imports them.
    task_timeout:
        Seconds to wait for any single sync-window task.  A worker that
        died abruptly (OOM-kill, segfault) leaves its task result pending
        forever in a ``multiprocessing.Pool``; the timeout converts that
        hang into a :class:`~repro.errors.PartitioningError` and the
        session teardown terminates the pool and unlinks every segment.
    """

    kind = "process"
    measures_wallclock = True

    def __init__(
        self,
        start_method: str | None = None,
        task_timeout: float = 600.0,
    ) -> None:
        check_start_method(start_method)
        if task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        self.start_method = start_method
        self.task_timeout = float(task_timeout)

    def open(self, job: ShardedJob) -> RunnerSession:
        return _ProcessSession(self, job)


class _ProcessSession(RunnerSession):
    def __init__(self, runner: ProcessRunner, job: ShardedJob) -> None:
        super().__init__(job)
        self._timeout = runner.task_timeout
        self._pool = None
        self._segments: list = []
        self._scratch = None
        self._assign_view = None
        self._phase2_ref = None
        self.views: list[PartitionState] = []
        self._closed = False
        try:
            self._setup(runner)
        except BaseException:
            self.close()
            raise

    def _setup(self, runner: ProcessRunner) -> None:
        import multiprocessing as mp
        from multiprocessing import resource_tracker

        # Start the parent's resource tracker BEFORE the pool exists, so
        # every worker inherits it and all segment registrations land in
        # one tracker that the parent's unlink can clear.  Session open
        # creates no segment up front (workers attach lazily), so without
        # this a forked worker would lazily spawn its *own* tracker, whose
        # attach registrations nobody unregisters — spurious "leaked
        # shared_memory objects" warnings at shutdown.
        resource_tracker.ensure_running()

        job = self.job
        spec, stream_shm = make_stream_spec(job.stream)
        if stream_shm is not None:
            self._own(stream_shm)
        ctx = mp.get_context(runner.start_method or default_start_method())
        self._pool = ctx.Pool(
            processes=job.n_workers,
            initializer=_process_worker_init,
            initargs=(_WorkerPayload.of(job, spec),),
        )

    def _own(self, shm):
        self._segments.append(shm)
        _LIVE_SEGMENTS.add(shm.name)
        return shm

    def _create_segment(self, nbytes: int):
        from multiprocessing import shared_memory

        shm = self._own(shared_memory.SharedMemory(create=True, size=max(nbytes, 1)))
        np.frombuffer(shm.buf, dtype=np.uint8)[:] = 0
        return shm

    def _release_segment(self, shm) -> None:
        """Unlink one owned segment (idempotent against cleanup races)."""
        self._segments.remove(shm)
        _LIVE_SEGMENTS.discard(shm.name)
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - cleanup race
            pass

    def _results(self, step: str, tasks):
        """Submit one sweep's tasks, then yield their results in order."""
        import multiprocessing as mp

        handles = [
            self._pool.apply_async(_process_worker_task, (task,)) for task in tasks
        ]
        for handle in handles:
            try:
                yield handle.get(timeout=self._timeout)
            except mp.TimeoutError as exc:
                raise PartitioningError(
                    f"process runner: a {step} window exceeded the "
                    f"{self._timeout:.0f}s task timeout (worker died or "
                    "deadlocked)"
                ) from exc

    # -- Phase 1 -------------------------------------------------------
    def _degree_windows(self, shards):
        tasks = [("degree", w, start, stop, None, None) for w, start, stop in shards]
        return self._results("degree", tasks)

    def _phase1_open(self, degrees, cap) -> None:
        job = self.job
        n = int(degrees.shape[0])
        cap_ids = cluster_id_capacity(int(job.shard_bounds[-1]), n)
        shm = self._create_segment(8 * (n + job.n_workers * (1 + n + cap_ids)))
        _cluster_layout(shm.buf, n, cap_ids, job.n_workers)[0][:] = degrees
        self._scratch = (shm, ((shm.name,), n, cap_ids, job.n_workers), cap)

    def _cluster_windows(self, sweep, v2c, volumes):
        shm, ref, cap = self._scratch
        _, slots = _cluster_layout(shm.buf, *ref[1:])
        for w, _, _ in sweep:
            header, v2c_slot, vol_slot = slots[w]
            v2c_slot[:] = v2c
            vol_slot[: volumes.shape[0]] = volumes
            header[0] = volumes.shape[0]
        tasks = [("cluster", w, start, stop, ref, cap) for w, start, stop in sweep]
        for (w, _, _), cost in zip(sweep, self._results("clustering", tasks)):
            header, v2c_slot, vol_slot = slots[w]
            yield v2c_slot.copy(), vol_slot[: int(header[0])].copy(), cost

    def _phase1_close(self) -> None:
        # Phase 2 never reads the scratch: release it now, not at close().
        # Pool workers keep their memoized mapping until the pool dies —
        # unlinking under live mappings is safe on POSIX.
        shm, self._scratch = self._scratch[0], None
        self._release_segment(shm)

    # -- Phase 2 -------------------------------------------------------
    def bind_phase2(self) -> None:
        job = self.job
        assign = self._create_segment(job.assignments.nbytes)
        self._assign_view = np.ndarray(
            job.assignments.shape[0], dtype=np.int32, buffer=assign.buf
        )
        self._assign_view[:] = job.assignments
        for _ in range(job.n_workers):
            view = PartitionState.from_shared(
                job.state.n_vertices,
                job.k,
                job.state.n_edges,
                job.alpha,
                track_dirty=True,
                packed=job.state.packed,
            )
            self.views.append(view)
            _LIVE_SEGMENTS.add(view.shm_name)
        # The read-only Phase-1 arrays travel through ONE shared segment
        # (the SharedArrayStreamSpec pattern): workers attach it lazily,
        # so nothing O(|V|) is ever pickled per worker or per task.
        n = int(job.state.n_vertices)
        n_clusters = int(job.c2p.shape[0])
        phase1 = self._create_segment(8 * (2 * n + 2 * n_clusters))
        arrays = (job.v2c, job.c2p, job.volumes, job.degrees)
        for view, array in zip(_phase1_layout(phase1.buf, n, n_clusters), arrays):
            view[:] = array
        self._phase2_ref = (
            (assign.name, phase1.name),
            tuple(view.shm_name for view in self.views),
            n,
            n_clusters,
            bool(job.state.packed),
        )

    def _phase2_windows(self, pass_name, sweep):
        ref = self._phase2_ref
        tasks = [("phase2", w, start, stop, ref, pass_name) for w, start, stop in sweep]
        return self._results(pass_name, tasks)

    def _barrier(self, pass_name):
        return merge_barrier(self.job.state, self.views)

    def finalize(self) -> None:
        # The barrier already synchronized the global state after the
        # last sweep; only the assignments live solely in shared memory.
        self.job.assignments[:] = self._assign_view

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            pool, self._pool = self._pool, None
            self._shutdown_pool(pool)
        self._assign_view = None
        for shm in list(self._segments):
            self._release_segment(shm)
        views, self.views = self.views, []
        for view in views:
            _LIVE_SEGMENTS.discard(view.shm_name)
            view.close()
            view.unlink()

    @staticmethod
    def _shutdown_pool(pool) -> None:
        """Tear the pool down in bounded time, even mid-task.

        ``Pool.terminate()`` can deadlock when a worker dies while its
        queues are busy (long-standing CPython race, hit exactly when a
        task hung or crashed — our error paths).  The graceful shutdown
        therefore runs under a watchdog: if it does not finish promptly,
        the workers are SIGKILLed and, as a last resort, the join is
        abandoned to a daemon thread so ``close()`` always returns and
        the shared segments below always get unlinked.
        """
        import threading

        joiner = threading.Thread(
            target=lambda: (pool.terminate(), pool.join()), daemon=True
        )
        joiner.start()
        joiner.join(timeout=10.0)
        if joiner.is_alive():  # pragma: no cover - needs the mp race
            for proc in getattr(pool, "_pool", None) or []:
                try:
                    proc.kill()
                except Exception:  # noqa: BLE001 - best-effort kill
                    pass
            joiner.join(timeout=5.0)

    def extra_state_bytes(self) -> int:
        return sum(view.nbytes() for view in self.views)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
RUNNERS: dict[str, type[Runner]] = {
    "serial": SerialRunner,
    "simulated": SimulatedRunner,
    "process": ProcessRunner,
}


def make_runner(
    spec,
    *,
    start_method: str | None = None,
    task_timeout: float = 600.0,
    workers=None,
    connect_timeout: float = 10.0,
) -> Runner:
    """Resolve a runner name or pass an instance through.

    ``start_method``/``task_timeout`` configure the process and
    distributed runners (for the latter ``task_timeout`` becomes the
    per-reply ``recv_timeout``); ``workers``/``connect_timeout``
    configure the distributed runner only.  All are ignored by runners
    without execution knobs.

    The distributed runner lives in :mod:`repro.core.distributed`
    (imported lazily here to keep this module import-cycle-free); naming
    it registers it.

    Raises
    ------
    ConfigurationError
        For unknown names (message lists the registry).
    """
    if isinstance(spec, Runner):
        return spec
    if spec == "distributed" and spec not in RUNNERS:
        import repro.core.distributed  # noqa: F401 - registers itself
    if spec not in RUNNERS:
        raise ConfigurationError(
            f"unknown runner {spec!r}; available: "
            f"{sorted(set(RUNNERS) | {'distributed'})}"
        )
    cls = RUNNERS[spec]
    if cls is ProcessRunner:
        return ProcessRunner(start_method=start_method, task_timeout=task_timeout)
    if cls.kind == "distributed":
        return cls(
            workers=workers,
            connect_timeout=connect_timeout,
            recv_timeout=task_timeout,
            start_method=start_method,
        )
    return cls()

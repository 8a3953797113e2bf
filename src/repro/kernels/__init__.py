"""Backend-dispatched chunk-kernel execution layer for streaming passes.

Every streaming pass of the toolkit — degree counting, Phase-1 clustering,
2PS-L pre-partitioning, remaining-edge scoring, and the stateless hash
baselines — consumes the edge stream as numpy ``(c, 2)`` chunks.  This
package turns "what happens to a chunk" into a pluggable *kernel backend*
so the same algorithm can run as a slow, obviously-correct per-edge loop
or as vectorized numpy array code:

- ``python`` — the reference backend.  Pure per-edge Python loops with the
  exact control flow of the paper's pseudocode.  It is the semantic ground
  truth that every other backend is property-tested against.
- ``numpy`` — the default backend.  Chunk-vectorized kernels: per-chunk
  ``np.bincount`` for degrees, gather/mask/scatter for the pre-partition
  pass, vectorized splitmix64 for the stateless baselines, conflict-free
  sub-batching for the 2PS-L scoring pass and an exact scalar engine for
  the HDRF passes (see below).  Phase-1 clustering is the reference
  kernel, inherited.
- ``numba`` — an *optional* compiled backend
  (:mod:`repro.kernels.numba_backend`): the numpy chunk orchestration
  with the serial loops (Phase-1 clustering, the 2PS-L scoring pass, the
  2PS-HDRF argmax, the classic HDRF baseline) replaced by
  ``numba.njit``-compiled per-edge kernels.  Registered only when the
  numba import succeeds; see *Optional backends* below for the fallback
  contract.

Backend contract
----------------
A backend subclasses :class:`~repro.kernels.base.KernelBackend` and must
be **bit-exact** with the ``python`` reference backend: for any stream,
chunk size, ``k`` and ``alpha``, every pass must produce identical outputs
(degree arrays, cluster ids and volumes, per-edge partition assignments,
replication bits, partition sizes) *and* identical machine-neutral cost
counts.  Chunk size is therefore a pure performance knob, never a
semantics knob.  The equivalence property tests in
``tests/test_kernels.py`` enforce this contract on random multigraphs,
sweeping ``chunk_size`` through degenerate values (1, primes, larger than
the edge count).

The tricky part of the contract is the *stateful* passes, where an edge's
decision depends on state mutated by earlier edges.  The ``numpy`` backend
batches only where serial semantics provably survive, and runs every other
edge serially, in stream order:

- *Conflict-free sub-batching* (2PS-L scoring): an edge is scored
  vectorized only when no earlier edge of its block can have changed the
  state it reads, so processing it out of order is provably equivalent.
  The check works at (vertex, partition) cell granularity: an edge reads
  only its four candidate cells ``(u,p1) (u,p2) (v,p1) (v,p2)``, replica
  bits are monotone (0 -> 1 only), so a cell set at block entry can never
  change, and the edge conflicts only if one of its cells *unset* at
  entry is also an unset cell of an earlier block edge.
- *Exact scalar engine* (the 2PS-HDRF remaining pass and the classic HDRF
  baseline, where every edge mutates the partition sizes every other
  edge's balance term reads, so no conflict-free subset exists): the
  per-chunk ``theta`` is vectorized, and each decision runs through
  ``_HdrfScalarEngine``, which collapses the k-way argmax to at most four
  exactly-scored candidates.  The collapse relies on two strict float
  inequalities that hold only for a finite range of the balance weight
  ``lambda``; outside it the passes run the reference kernel (see the
  engine's *Exactness range*).
- *Phase-1 clustering* has no batched path: cluster creation is serial
  and hub-heavy blocks collide on vertices and clusters, so the numpy
  backend inherits the reference list kernel.

Cap overflow makes decisions order-dependent through the masking /
hash / least-loaded fallback chains, and the hash / least-loaded
fallback writes cells outside an edge's candidates, so no batch may
span an edge that could reach the hard balance cap.  The 2PS-L passes
(pre-partitioning and scoring) make a *per-partition prefix cut*: they
count, per partition and in stream order, the earlier edges of the
block (of the chunk, in the pre-partition pass) that could be assigned
there (the one target of a pre-partitioned edge, both candidates of a
scored edge) — an upper bound on that partition's size at every edge —
and cut at the first edge where the bound could reach the cap.  Edges
before the cut are batched (subject to the conflict filter above);
edges from the cut on run serially, in stream order.

Auto-tuning determinism
-----------------------
The probe-window tuner (:mod:`repro.tuning`, ``tune="auto"``) picks
``{backend, chunk_size, sync_interval}`` before a run.  Its contract:

- decisions are pure functions of the probe data, the declared stream
  shape (``|E|``, ``|V|``, ``k``), the seed, and the *set* of available
  backends — never of wall-clock measurements — so a fixed seed + stream
  always yields the same decision;
- every knob it may change is semantics-free under the contracts above:
  backends are bit-exact by this package's contract, ``chunk_size`` is a
  pure performance knob, and ``sync_interval`` is only tuned when it
  cannot change results (single-worker or serial-runner schedules);
- therefore a tuned run is bit-exact with the corresponding untuned run
  — enforced by the differential harness's ``tune`` dimension
  (``tests/differential.py``).

Phase-1 merge ops (parallel barriers)
-------------------------------------
The sharded Phase 1 (``ParallelTwoPhase(parallel_phase1=True)``) runs the
degree and clustering passes per shard window and folds worker results at
barriers through two backend ops.  A new backend must reproduce both
**bit for bit** (they decide cluster ids, and cluster ids feed every
downstream pass):

- ``merge_phase1_degrees(partials, n_hint)`` — element-wise integer sum
  of per-shard partial degree vectors, grown to ``n_hint``.  The merge is
  **associative and commutative** (int64 addition), so any merge tree or
  worker order is exact; runners exploit this by collecting partials in
  whatever completion order is convenient.
- ``merge_phase1_clustering(v2c, volumes, worker_states, degrees)`` — an
  **ordered left fold** of worker deltas against the pre-barrier snapshot
  ``(v2c, volumes)``.  Worker ``w``'s export was produced from the
  snapshot, so its fresh cluster ids occupy ``[len(volumes),
  len(volumes_w))``; the fold remaps them to one global sequence in
  worker order, resolves per-vertex conflicts first-worker-wins, and
  recomputes merged volumes exactly as the sum of member true degrees
  (the Algorithm-1 invariant, so over-cap overshoot from stale windows is
  carried through without drift).  The fold is **associative over the
  ordered worker sequence** — deltas are mutually independent, so any
  grouping that preserves worker order gives the same result — but **not
  commutative**: reordering workers changes both the conflict winners and
  the fresh-id remap.  The one schedule driver of :mod:`repro.core.runners`
  (whose equivalence and single-worker contract this fold serves) merges
  in ascending worker index for every runner.
- ``clustering_load(v2c, volumes, degrees)`` — the inverse of
  ``clustering_export``: an independent backend-native state from
  exported arrays, used to hand each worker the stale snapshot before a
  window.  ``load(export(st))`` must round-trip exactly: at
  ``n_workers=1`` the lone worker's export is its next window's
  snapshot, unmerged, and that is what keeps it bit-exact with the
  sequential pass.

``tests/test_kernels.py`` (``TestPhase1MergeOps``) pins the twins against
each other on randomized barrier scenarios; the randomized differential
harness (``tests/differential.py``) pins the full pipeline across
runners, backends and seeds.

The distributed runner rides these exact ops too: its socket workers
ship ``clustering_export`` payloads and partial degree vectors as wire
frames to the same driver, and its Phase-2 barrier recodes the
shared-memory merge (``extract_replica_delta`` -> frames ->
``merge_replica_wire_deltas`` -> ``apply_replica_refresh``, pinned
against ``merge_replica_deltas`` in ``tests/test_state.py``).  Backends
never see sockets; a backend correct under this contract is
distributed-correct for free.

Packed replica rows (out-of-core states)
----------------------------------------
``PartitionState(..., packed=True)`` stores the replica matrix as
bit-packed rows (``(k + 7) // 8`` little-bitorder bytes per vertex, the
``np.packbits(..., bitorder="little")`` layout) behind
:class:`~repro.partitioning.state.PackedReplicaMatrix`.  Kernels never
see the byte layout: the wrapper speaks the same indexing protocol as
the dense bool matrix — ``replicas[rows, cols]`` bit gathers,
``replicas[rows]`` row gathers, ``replicas[us, ps] = True`` duplicate-
safe bit scatters, ``sum``/``any``/``copy``/``__array__`` — so a
backend written against the dense protocol runs packed states
unchanged.  The contract additions for backends that bypass the
protocol with raw-``ndarray`` tricks:

- detect packed storage with ``getattr(replicas, "packed", None)`` and
  either handle the packed rows natively (the row bytes ARE the
  ``np.packbits`` encoding — ``_HdrfScalarEngine._pack_row`` just reads
  them) or route to a protocol-speaking twin, the way the ``numba``
  backend's remaining passes delegate to their inherited numpy
  implementations for non-``ndarray`` replica matrices;
- bit-*clear* writes don't exist: replica bits are monotone within a
  run, and ``PackedReplicaMatrix.__setitem__`` rejects anything but
  ``True`` scatters (barrier refreshes assign whole rows instead);
- tail bits (``k`` not a byte multiple) must stay zero — popcount-based
  metrics (``sum``) trust them;
- packed and dense states must stay **bit-exact** for any stream,
  chunk size and runner: the huge-shape tier of the differential
  harness (``tests/differential.py --out-of-core``) and
  ``tests/test_state.py`` pin this across the backend matrix.

Writing a backend
-----------------
1. Subclass :class:`~repro.kernels.base.KernelBackend` (or an existing
   backend — ``NumpyBackend`` subclasses ``PythonBackend`` and overrides
   only the passes it vectorizes, inheriting the rest).
2. Override any subset of the pass methods: ``degree_pass``,
   ``clustering_true_pass``, ``clustering_partial_pass``,
   ``prepartition_pass``, ``remaining_pass_linear``,
   ``remaining_pass_hdrf``, ``hdrf_baseline_pass``, ``stateless_pass``.
   Keep the serial fallback
   path for conflicting edges — that is what makes correctness local —
   and route order-sensitive decisions through the shared twins
   (``PythonBackend._fallback_partition`` for the hash/least-loaded
   chain, ``PythonBackend.hdrf_choose`` for the HDRF argmax) so float
   arithmetic and tie-breaks can never diverge between backends.
3. Register it: ``register_backend("numba", NumbaBackend)``.  The name
   becomes valid everywhere a ``backend=`` parameter or the CLI
   ``--backend`` flag is accepted.
4. Run the equivalence suite against it.  A backend is correct only when
   it passes **all** of:

   - ``tests/test_kernels.py`` — per-pass property sweep against the
     reference backend over random multigraphs and hub-heavy R-MAT,
     with ``chunk_size`` through degenerate values (1, primes, larger
     than ``|E|``), ``alpha`` down to 1.0 (cap guard) and
     ``hdrf_lambda`` through 0 (degenerate balance term) and out to
     the ends of the HDRF engine's exactness range;
   - ``tests/test_parallel_kernels.py`` — the same kernels dispatched
     through the sharded parallel path (stale state views, sync-window
     streams, barrier merges), plus ``FileEdgeStream`` vs
     ``InMemoryEdgeStream`` source parity;
   - ``benchmarks/run_bench.py --smoke`` — end-to-end bit-exactness on
     a 65k-edge R-MAT plus the speedup gates (CI runs exactly this).

   Equality is *byte-level*: assignments, replica bits, partition sizes,
   cluster state **and** machine-neutral cost counters.  Add the backend
   name to the sweep lists (they enumerate ``available_backends()``, so
   registration before test collection usually suffices).

The ``numba`` backend follows exactly this recipe: it keeps the numpy
chunk orchestration (and inherits the merge ops unchanged) and replaces
only the serial kernels with compiled per-edge loops that are
line-for-line transliterations of the reference bodies.

Optional backends
-----------------
A backend whose dependency may be absent (today: ``numba``) registers
through :func:`_register_optional_backends` at import time.  When the
dependency imports, the backend behaves like any other registry entry.
When it does not:

- the name is *known but missing*: it appears in :func:`missing_backends`
  (name -> human-readable reason) and **not** in
  :func:`available_backends`, so equivalence sweeps and the benchmark
  matrix never enumerate a backend that cannot run;
- :func:`get_backend` on the missing name degrades to the
  :data:`DEFAULT_BACKEND` with a one-time ``RuntimeWarning`` — library
  callers (partitioner constructors, runner workers) keep working, just
  without the speedup.  Workers of a parallel run never hit the warning
  at all: ``ParallelTwoPhase`` ships the *resolved* backend name to the
  runner session;
- explicit user-facing requests stay loud: the CLI raises a
  :class:`~repro.errors.PartitioningError` for ``--backend <missing>``
  instead of silently falling back (``repro.cli``).

Registering the name manually (``register_backend("numba", ...)``) clears
the missing state — that is how the tests pin the numba kernel logic in
its interpreted mode on hosts without numba.
"""

from __future__ import annotations

import warnings

from repro.errors import ConfigurationError
from repro.kernels.base import ClusteringState, KernelBackend, TwoPhaseContext
from repro.kernels.python_backend import PythonBackend
from repro.kernels.numpy_backend import NumpyBackend

#: Name of the backend used when none is requested explicitly.
DEFAULT_BACKEND = "numpy"

_REGISTRY: dict[str, type[KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}

#: Optional backends whose dependency is absent: name -> reason.  Kept
#: disjoint from ``_REGISTRY`` by construction.
_MISSING: dict[str, str] = {}

#: Missing-backend names whose fallback warning already fired (one-time).
_FALLBACK_WARNED: set[str] = set()


def register_backend(name: str, cls: type[KernelBackend]) -> None:
    """Register a kernel backend class under ``name`` (see module docs).

    The registry key must equal ``cls.name``: results record the
    backend by ``cls.name``, and the parallel path ships the *resolved*
    instance name to runner workers (which look it up again), so an
    alias registration would produce runs that cannot name their own
    backend.
    """
    if not issubclass(cls, KernelBackend):
        raise ConfigurationError(
            f"backend {name!r} must subclass KernelBackend, got {cls!r}"
        )
    if cls.name != name:
        raise ConfigurationError(
            f"backend registry key {name!r} must equal {cls.__name__}.name "
            f"({cls.name!r}); aliases would break resolved-name lookups"
        )
    _REGISTRY[name] = cls
    _INSTANCES.pop(name, None)
    _MISSING.pop(name, None)
    _FALLBACK_WARNED.discard(name)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, reference backend first."""
    return tuple(sorted(_REGISTRY, key=lambda n: (n != "python", n)))


def missing_backends() -> dict[str, str]:
    """Known-but-unavailable optional backends -> human-readable reason.

    Disjoint from :func:`available_backends`; see *Optional backends* in
    the module docs for how :func:`get_backend` treats these names.
    """
    return dict(_MISSING)


def get_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend name (``None`` -> :data:`DEFAULT_BACKEND`).

    Backends are stateless between runs, so instances are shared.  A
    known-but-unavailable optional backend (see :func:`missing_backends`)
    resolves to the :data:`DEFAULT_BACKEND` with a one-time
    ``RuntimeWarning`` naming the missing dependency.

    Raises
    ------
    ConfigurationError
        For unknown names (message lists the registry).
    """
    key = DEFAULT_BACKEND if name is None else str(name)
    if key not in _REGISTRY and key in _MISSING:
        if key not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(key)
            warnings.warn(
                f"kernel backend {key!r} is unavailable on this host "
                f"({_MISSING[key]}); falling back to the "
                f"{DEFAULT_BACKEND!r} backend",
                RuntimeWarning,
                stacklevel=2,
            )
        key = DEFAULT_BACKEND
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown kernel backend {key!r}; available: {list(available_backends())}"
        )
    if key not in _INSTANCES:
        _INSTANCES[key] = _REGISTRY[key]()
    return _INSTANCES[key]


def _register_optional_backends() -> None:
    """(Re-)detect optional compiled backends.

    Runs at import; tests re-run it after monkeypatching the numba
    import to exercise the absence path on hosts where numba is
    installed.  Re-detection fully reconciles the registered / missing /
    warned state in both directions.
    """
    from repro.kernels import numba_backend

    if numba_backend.numba_available():
        register_backend("numba", numba_backend.NumbaBackend)
    else:
        _REGISTRY.pop("numba", None)
        _INSTANCES.pop("numba", None)
        _MISSING["numba"] = (
            numba_backend.unavailable_reason() or "numba is not installed"
        )
        _FALLBACK_WARNED.discard("numba")


register_backend("python", PythonBackend)
register_backend("numpy", NumpyBackend)
_register_optional_backends()

__all__ = [
    "DEFAULT_BACKEND",
    "ClusteringState",
    "KernelBackend",
    "NumpyBackend",
    "PythonBackend",
    "TwoPhaseContext",
    "available_backends",
    "get_backend",
    "missing_backends",
    "register_backend",
]

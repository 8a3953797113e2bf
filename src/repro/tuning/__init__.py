"""Online auto-tuning of execution knobs at stream start.

``partition(..., tune="auto")`` runs a short *probe* over the head of the
edge stream before the real passes start, derives a handful of cheap
stream features, and picks values for the three pure execution knobs:

- ``backend`` — the kernel backend (prefer a compiled backend when the
  optional dependency is importable, else the vectorized default);
- ``chunk_size`` — the streaming chunk granularity,
  :func:`repro.streaming.stream.auto_chunk_size` of the declared shape.
  The probe's duplication and hub rates are recorded with the decision
  but no knob reads them: the one batched stateful pass (2PS-L scoring)
  detects conflicts per fixed-size block, not per chunk;
- ``sync_interval`` — the parallel runner's barrier period, tuned **only
  when it is semantics-free** (a single worker, or the serial runner,
  where the state view is never stale).

Determinism contract (pinned by ``tests/test_tuning.py`` and the
differential harness's ``tune`` dimension):

- decisions are pure functions of the declared stream shape (``|V|``,
  ``k``) and the set of available backends — **never** of wall-clock
  measurements, so the same stream always tunes the same way (the
  probe's features are recorded only, and are themselves a pure
  function of the stream and the tuner seed);
- every tuned knob is semantics-free by the kernel-backend / runner
  contracts, so a tuned run is bit-exact with an untuned one (same
  assignments, replicas, sizes and operation counts);
- knobs the caller pinned are never overridden: an explicit ``backend``
  stays, an integer ``chunk_size`` stays, and ``sync_interval`` is left
  alone whenever staleness could change results.

The probe reads a bounded prefix of the stream (at most
:data:`PROBE_SPAN_EDGES` edges) and samples :data:`PROBE_WINDOWS` windows
at splitmix64-seeded offsets inside it, so tuning cost is O(1) in
``|E|``.  Probe I/O goes through the normal ``chunks()`` path and is
charged to the stream's ``IOStats`` / simulated device like any other
(partial) pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.kernels import available_backends
from repro.partitioning.hashutil import splitmix64
from repro.streaming.stream import auto_chunk_size

#: Seed mixed into the probe-window offsets, decorrelating the tuner from
#: every other splitmix64 consumer (hash fallback, stateless baselines).
TUNER_SEED = 0x2B5

#: Edges per probe window and number of seeded windows sampled.
PROBE_WINDOW_EDGES = 4_096
PROBE_WINDOWS = 4

#: Prefix of the stream the probe may touch; bounds tuning cost at O(1)
#: in ``|E|``.
PROBE_SPAN_EDGES = 65_536

#: Tuned ``sync_interval`` as a multiple of the chunk size (only applied
#: when barrier frequency is semantics-free; fewer barriers, same bits).
SYNC_CHUNK_MULTIPLE = 4

#: Backend preference order when the caller left the backend unpinned.
BACKEND_PREFERENCE = ("numba", "numpy")


@dataclass(frozen=True)
class TuningDecision:
    """Knob choices of one auto-tuning probe.

    ``None`` for a knob means "left alone" — either the caller pinned it
    or tuning it would not be semantics-free.  Recorded verbatim in
    :attr:`repro.partitioning.base.PartitionArtifacts.tuning` and in the
    ``tuning`` section of the kernel benchmark snapshot.
    """

    backend: str | None
    chunk_size: int | None
    sync_interval: int | None
    probe_edges: int
    features: dict = field(default_factory=dict)

    def summary(self) -> dict:
        """JSON-friendly record for benchmark snapshots and logs."""
        return {
            "backend": self.backend,
            "chunk_size": self.chunk_size,
            "sync_interval": self.sync_interval,
            "probe_edges": self.probe_edges,
            "features": dict(self.features),
        }


def probe_features(stream, k: int, seed: int = TUNER_SEED) -> dict:
    """Deterministic stream features from a bounded, seeded probe.

    Reads the first ``min(|E|,`` :data:`PROBE_SPAN_EDGES` ``)`` edges,
    samples :data:`PROBE_WINDOWS` windows of
    :data:`PROBE_WINDOW_EDGES` edges at splitmix64-seeded offsets within
    that prefix, and computes:

    - ``dup_rate`` — fraction of probe endpoints that repeat an endpoint
      already seen in the probe (conflict density proxy);
    - ``hub_rate`` — share of the single most frequent endpoint (skew
      proxy);
    - the declared shape (``n_edges``, ``n_vertices``, ``k``) and the
      probe size actually used.
    """
    span = min(int(stream.n_edges), PROBE_SPAN_EDGES)
    rows = []
    seen = 0
    for chunk in stream.chunks(chunk_size=PROBE_WINDOW_EDGES):
        take = min(chunk.shape[0], span - seen)
        rows.append(np.array(chunk[:take], dtype=np.int64))
        seen += take
        if seen >= span:
            break
    prefix = np.concatenate(rows) if rows else np.zeros((0, 2), np.int64)

    window = min(PROBE_WINDOW_EDGES, span)
    max_offset = span - window
    offsets = (
        splitmix64(np.arange(PROBE_WINDOWS, dtype=np.int64), seed=seed)
        % np.uint64(max_offset + 1)
    ).astype(np.int64)
    ids = np.concatenate(
        [prefix[o : o + window].ravel() for o in offsets]
    )
    uniq, counts = np.unique(ids, return_counts=True)
    total = max(int(ids.size), 1)
    return {
        "dup_rate": 1.0 - uniq.size / total,
        "hub_rate": int(counts.max(initial=0)) / total,
        "probe_edges": int(ids.size // 2),
        "n_edges": int(stream.n_edges),
        "n_vertices": (
            None if stream.n_vertices is None else int(stream.n_vertices)
        ),
        "k": int(k),
    }


def tune_run(partitioner, stream, k: int, chunk_size) -> TuningDecision:
    """Probe ``stream`` and decide knobs for one ``partition`` run.

    ``chunk_size`` is the run's *resolved-but-unapplied* chunk request
    (``None``, ``"auto"``, or a pinned integer) — only ``None``/``"auto"``
    are tuned.  The partitioner's own ``backend`` attribute gates backend
    tuning, and ``sync_interval`` is only tuned when the partitioner has
    one *and* staleness cannot arise (``n_workers == 1`` or the serial
    runner).  Decisions are pure functions of the declared shape and the
    available backends (see the module docstring); the probe's features
    are recorded only, and no timing is involved.
    """
    features = probe_features(stream, k)
    backends = available_backends()
    features["available_backends"] = list(backends)

    backend = None
    if getattr(partitioner, "backend", None) is None:
        for candidate in BACKEND_PREFERENCE:
            if candidate in backends:
                backend = candidate
                break

    chunk = None
    if chunk_size in (None, "auto"):
        chunk = auto_chunk_size(stream.n_vertices, k)

    sync_interval = None
    runner_kind = getattr(getattr(partitioner, "runner", None), "kind", None)
    if hasattr(partitioner, "sync_interval") and (
        getattr(partitioner, "n_workers", 1) == 1 or runner_kind == "serial"
    ):
        # Semantics-free regime: a lone worker (or the serial runner)
        # never sees stale state, so stretching the barrier period only
        # removes merge overhead.  Never shrink below the caller's value.
        reference = chunk if chunk is not None else auto_chunk_size(
            stream.n_vertices, k
        )
        sync_interval = max(
            int(partitioner.sync_interval), SYNC_CHUNK_MULTIPLE * int(reference)
        )

    return TuningDecision(
        backend=backend,
        chunk_size=chunk,
        sync_interval=sync_interval,
        probe_edges=features["probe_edges"],
        features=features,
    )

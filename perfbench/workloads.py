"""The benchmark's three workloads, their output checks and their metrics.

Every workload partitions a seeded R-MAT edge file at k=32 through the
public API, persists the result as an mmap ``PartitionStore`` and serves
lookups from it (90% of the vertex queries to a hot set, so the scalar
path's LRU cache is used; the batched path bypasses it):

- ``seq-dense``: sequential 2PS-L (numpy kernels, dense state) -- the
  plain baseline every variant is compared against.
- ``process-packed``: the same graph through the process runner with
  bit-packed replica state; checked against a dense-state run of the
  same schedule.
- ``distributed-hdrf``: 2PS-HDRF through loopback socket workers on a
  sparse graph with a large vertex set.

A run spends ``1 - SERVE_SHARE`` of ``--seconds`` on measured
``partition()`` calls and, after each call, the rest on lookup rounds.
Every end-to-end time is put on a reference host speed with the probe of
``hostspeed.py``.  See ``README.md`` for the metric definitions and the
map from per-layer to end-to-end metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import FileEdgeStream, TwoPhasePartitioner
from repro.core.parallel import ParallelTwoPhase
from repro.errors import FormatError
from repro.graph.generators import rmat_edge_file
from repro.serving import LookupService, PartitionStore
from hostspeed import PROBE_REF_S, probe, to_reference
from tracing import Tracer, reset_peak_rss, status_kb, traced_root

K = 32
SYNC_INTERVAL = 65536
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of ``--seconds`` spent on lookup rounds, between the calls.
SERVE_SHARE = 0.3
#: Graph files kept in the cache (least recently used evicted first).
CACHE_GRAPHS = 8
HOT_SET = 1024
HOT_SHARE = 0.9
EDGE_MISS_SHARE = 0.2
BATCH = 4096
#: Query pool sizes; lookup rounds cycle through them.
VERTEX_POOL = 1 << 17
EDGE_POOL = 1 << 15
#: One lookup round: scalar vertex calls (p99 has 100 samples beyond
#: it), scalar edge calls, and batched calls of BATCH ids.
ROUND_VERTEX = 10_000
ROUND_EDGE = 2_500
ROUND_BATCHES = 16


def usable_cpus() -> int:
    return len(os.sched_getaffinity(0))


def sharded_workers() -> int:
    return min(2, usable_cpus())


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": usable_cpus(),
        "n_workers": sharded_workers(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int
    edge_factor: int
    #: Builds the measured partitioner.
    make: Callable
    #: Sharded runners may overshoot the cap between barriers.
    enforces_cap: bool = True
    #: Builds the warm-up partitioner when it is not ``make``; the measured
    #: outputs must equal its output.
    reference: Callable | None = None


def _sequential():
    return TwoPhasePartitioner(backend="numpy")


def _process(packed=True):
    return ParallelTwoPhase(
        n_workers=sharded_workers(), sync_interval=SYNC_INTERVAL,
        parallel_phase1=True, runner="process", packed_state=packed,
        backend="numpy",
    )


def _distributed_hdrf():
    return ParallelTwoPhase(
        n_workers=sharded_workers(), sync_interval=SYNC_INTERVAL,
        parallel_phase1=True, runner="distributed", mode="hdrf",
        backend="numpy",
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("seq-dense", 16, 16, _sequential),
        # Dense state at the same schedule is the packed run's reference.
        Workload("process-packed", 16, 16, _process, enforces_cap=False,
                 reference=lambda: _process(packed=False)),
        Workload("distributed-hdrf", 19, 2, _distributed_hdrf,
                 enforces_cap=False),
    )
}


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
class Checks:
    """Counts output checks and lookup answers; remembers failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Failure description -> how many checks or answers failed so.
        self.failures: dict[str, int] = {}

    def _fail(self, what: str, count: int) -> None:
        self.failed += count
        self.failures[what] = self.failures.get(what, 0) + count

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(what, 1)

    def answers(self, got: np.ndarray, want: np.ndarray, what: str) -> None:
        self.attempted += int(got.size)
        wrong = int(np.count_nonzero(got != want))
        if wrong:
            self._fail(f"wrong {what}", wrong)


def load_edges(path) -> np.ndarray:
    return np.fromfile(path, dtype="<u4").reshape(-1, 2).astype(np.int64)


def dense_replicas(state) -> np.ndarray:
    packed = getattr(state.replicas, "packed", None)
    if packed is None:
        return np.asarray(state.replicas, dtype=bool)
    return np.unpackbits(
        np.asarray(packed), axis=1, bitorder="little"
    )[:, : state.k].astype(bool)


def check_partition(result, edges, workload, checks) -> dict:
    """Independent checks of one result; returns its quality and digest."""
    a = result.assignments
    m = edges.shape[0]
    label = workload.name
    checks.expect(a.shape == (m,), f"{label}: {a.shape} assignments for "
                  f"{m} edges")
    checks.expect(bool(a.size) and int(a.min()) >= 0 and int(a.max()) < K,
                  f"{label}: assignment outside [0, {K})")
    a = np.clip(a, 0, K - 1)
    sizes = np.bincount(a, minlength=K)
    checks.expect(np.array_equal(sizes, result.state.sizes),
                  f"{label}: state sizes differ from the assignments")
    if workload.enforces_cap:
        checks.expect(int(sizes.max()) <= result.state.capacity,
                      f"{label}: a partition exceeds the hard cap")
    n = max(result.n_vertices, int(edges.max()) + 1)
    replicas = np.zeros((n, K), dtype=bool)
    replicas[edges[:, 0], a] = True
    replicas[edges[:, 1], a] = True
    stored = dense_replicas(result.state)
    checks.expect(
        stored.shape == (result.n_vertices, K)
        and np.array_equal(replicas[: stored.shape[0]], stored)
        and not replicas[stored.shape[0]:].any(),
        f"{label}: replica state differs from the assigned edges' endpoints",
    )
    covered = int(replicas.any(axis=1).sum())
    rf = int(replicas.sum()) / covered
    alpha = int(sizes.max()) * K / m
    checks.expect(math.isclose(rf, result.replication_factor, rel_tol=1e-12),
                  f"{label}: reported RF {result.replication_factor} != {rf}")
    checks.expect(math.isclose(alpha, result.measured_alpha, rel_tol=1e-12),
                  f"{label}: reported alpha {result.measured_alpha} != "
                  f"{alpha}")
    digest = hashlib.sha256()
    for part in (a.astype("<i4"), np.packbits(replicas), sizes.astype("<i8")):
        digest.update(part.tobytes())
    return {"rf": rf, "alpha": alpha, "digest": digest.hexdigest()}


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


def generate_graph(workload, seed, cache_dir: Path, tmp_dir: Path,
                   checks) -> tuple[Path, float]:
    """Generate the workload's graph file; returns ``(path, seconds)``.

    The file is cached under a key of the generator parameters and the
    seed.  Every set-up regenerates it (that is what ``setup_s`` times)
    and checks the bytes against the cached copy, so a generator that
    stops being seeded fails the run instead of silently changing the
    input.
    """
    params = {"generator": "rmat_edge_file", "scale": workload.scale,
              "edge_factor": workload.edge_factor, "seed": seed}
    key = hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()
    ).hexdigest()[:16]
    graphs = cache_dir / "graphs"
    graphs.mkdir(parents=True, exist_ok=True)
    cached = graphs / (f"rmat-s{workload.scale}-e{workload.edge_factor}"
                       f"-seed{seed}-{key}.bin")
    fresh = tmp_dir / "graph.bin"
    t0 = time.perf_counter()
    rmat_edge_file(fresh, workload.scale, workload.edge_factor, seed=seed)
    seconds = time.perf_counter() - t0
    if cached.exists():
        checks.expect(file_digest(fresh) == file_digest(cached),
                      f"graph for seed {seed} differs from its cached copy")
        fresh.unlink()
        os.utime(cached)
    else:
        os.replace(fresh, cached)
        for old in sorted(graphs.glob("*.bin"),
                          key=lambda p: p.stat().st_mtime)[:-CACHE_GRAPHS]:
            old.unlink()
    return cached, seconds


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    return status_kb("self", "VmHWM") / 1024.0


def partition_once(partitioner, path, tracer=None):
    """One measured ``partition()`` call; returns ``(result, wall, rss)``.

    The high-water RSS restarts after a collection just before the call,
    so set-up allocations the benchmark has released do not count.
    """
    stream = FileEdgeStream(path)
    reset_peak_rss()
    with traced_root(tracer, "bench.partition"):
        t0 = time.perf_counter()
        result = partitioner.partition(stream, K)
        wall = time.perf_counter() - t0
    return result, wall, peak_rss_mb()


def call_record(workload, result, wall, scale, rss, edges, checks,
                traced=False) -> dict:
    """``scale`` puts ``wall`` on the reference host speed."""
    return {
        **check_partition(result, edges, workload, checks),
        "wall": wall,
        "ref_wall": wall * scale,
        "n_edges": result.n_edges,
        "edges_per_s": result.n_edges / (wall * scale),
        "raw_edges_per_s": result.n_edges / wall,
        "peak_rss_mb": rss,
        "traced": traced,
        "extras": result.extras,
        "state_bytes": result.state_bytes,
        "replica_plane_bytes": int(result.state.replicas.nbytes),
    }


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def expected_routes(replicas, sizes, ids, hints) -> np.ndarray:
    """Oracle for ``vertex_partitions``: the hint when it holds a replica,
    else the least-loaded replica (lowest id on ties), else -1."""
    rows = replicas[ids]
    at_hint = rows[np.arange(ids.size), hints]
    load = np.where(rows, np.asarray(sizes, dtype=np.int64)[np.newaxis, :],
                    np.iinfo(np.int64).max)
    least = np.argmin(load, axis=1)
    return np.where(at_hint, hints,
                    np.where(rows.any(axis=1), least, -1)).astype(np.int64)


def make_queries(result, edges, rng) -> dict:
    """Seeded query pools with their answers from the in-memory result.

    90% of the vertex queries go to a 1024-vertex hot set, the rest
    uniformly to all vertices.  Edge queries are stream edges (answer:
    the first occurrence's partition) or, 20% of them, random pairs that
    are not edges (answer: -1).
    """
    n = result.n_vertices
    replicas = dense_replicas(result.state)
    covered = np.flatnonzero(replicas.any(axis=1))
    hot_ids = rng.choice(covered, size=min(HOT_SET, covered.size),
                         replace=False)
    ids = np.where(rng.random(VERTEX_POOL) < HOT_SHARE,
                   hot_ids[rng.integers(0, hot_ids.size, VERTEX_POOL)],
                   rng.integers(0, n, VERTEX_POOL))
    hints = rng.integers(0, K, VERTEX_POOL)

    def keys_of(u, v):
        return (u.astype(np.uint64) << np.uint64(32)) | v.astype(np.uint64)

    keys = keys_of(edges[:, 0], edges[:, 1])
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    picks = rng.integers(0, edges.shape[0], EDGE_POOL)
    qu, qv = edges[picks, 0].copy(), edges[picks, 1].copy()
    miss = np.flatnonzero(rng.random(EDGE_POOL) < EDGE_MISS_SHARE)
    qu[miss] = rng.integers(0, n, miss.size)
    qv[miss] = rng.integers(0, n, miss.size)
    qkeys = keys_of(qu, qv)
    pos = np.minimum(np.searchsorted(sorted_keys, qkeys), keys.size - 1)
    found = sorted_keys[pos] == qkeys
    return {
        "ids": ids,
        "hints": hints,
        "vertex_want": expected_routes(replicas, result.state.sizes, ids,
                                       hints),
        "edge_u": qu,
        "edge_v": qv,
        "edge_want": np.where(found, result.assignments[order[pos]],
                              -1).astype(np.int64),
    }


def scalar_loop(call, args_a, args_b):
    """One closed-loop client: ``call(a, b)`` for each pair, one at a time.

    Returns ``(answers, latencies_ns, wall_s)``.
    """
    got = np.empty(args_a.size, dtype=np.int64)
    lat = np.empty(args_a.size, dtype=np.int64)
    clock = time.perf_counter_ns
    start = clock()
    for i, (u, v) in enumerate(zip(args_a.tolist(), args_b.tolist())):
        t0 = clock()
        got[i] = call(u, v)
        lat[i] = clock() - t0
    return got, lat, (clock() - start) / 1e9


class LookupClient:
    """A closed loop of lookup rounds against one opened store.

    A round is ``ROUND_VERTEX`` scalar ``vertex_partitions`` calls, then
    ``ROUND_EDGE`` scalar ``edge_partition`` calls, then
    ``ROUND_BATCHES`` batched vertex lookups of ``BATCH`` ids.  Every
    answer is checked against the query pool's oracle.  Rates and
    latency percentiles are taken per round and reported as medians over
    the rounds, so a short slow spell of the host moves them little.
    """

    def __init__(self, store_dir, queries, checks, tracer=None,
                 rounds=None) -> None:
        self.queries = queries
        self.checks = checks
        self.tracer = tracer
        with traced_root(tracer, "bench.store"):
            self.store = PartitionStore.open(store_dir)
        self.service = LookupService(self.store)
        #: Per-round rates; pass one list to several clients to pool them.
        self.rounds: list[dict] = [] if rounds is None else rounds

    def run(self, seconds: float) -> None:
        """Lookup rounds until the next would overrun ``seconds`` (at least
        one); with a tracer, every second round is traced."""
        start = time.perf_counter()
        done = 0
        while True:
            traced = self.tracer is not None and len(self.rounds) % 2 == 1
            with traced_root(self.tracer if traced else None,
                             "bench.lookup"):
                row = self._round()
            self.rounds.append({**row, "traced": traced})
            done += 1
            if (time.perf_counter() - start) * (done + 1) / done > seconds:
                return

    def _round(self) -> dict:
        q, svc, n = self.queries, self.service, len(self.rounds)
        sl = np.arange(n * ROUND_VERTEX, (n + 1) * ROUND_VERTEX) % VERTEX_POOL
        got, lat, wall = scalar_loop(
            lambda v, h: svc.vertex_partitions(v, hint=h),
            q["ids"][sl], q["hints"][sl],
        )
        self.checks.answers(got, q["vertex_want"][sl], "vertex lookups")
        row = {
            "vertex_per_s": sl.size / wall,
            "p50_us": float(np.percentile(lat, 50)) / 1e3,
            "p99_us": float(np.percentile(lat, 99)) / 1e3,
        }
        sl = np.arange(n * ROUND_EDGE, (n + 1) * ROUND_EDGE) % EDGE_POOL
        got, _, wall = scalar_loop(svc.edge_partition, q["edge_u"][sl],
                                   q["edge_v"][sl])
        self.checks.answers(got, q["edge_want"][sl], "edge lookups")
        row["edge_per_s"] = sl.size / wall
        batches = [
            np.arange(b * BATCH, (b + 1) * BATCH) % VERTEX_POOL
            for b in range(n * ROUND_BATCHES, (n + 1) * ROUND_BATCHES)
        ]
        args = [(q["ids"][b], q["hints"][b]) for b in batches]
        start = time.perf_counter()
        answers = [svc.vertex_partitions(ids, hint=h) for ids, h in args]
        wall = time.perf_counter() - start
        for b, got in zip(batches, answers):
            self.checks.answers(got, q["vertex_want"][b], "batched lookups")
        row["batch_per_s"] = len(batches) * BATCH / wall
        return row

    def verify(self) -> None:
        try:
            with traced_root(self.tracer, "bench.store"):
                self.store.verify()
        except FormatError as exc:
            self.checks.expect(False, f"store verify: {exc}")
        else:
            self.checks.expect(True, "store verify")


#: Round figures that are rates and that are latencies.
ROUND_RATES = ("vertex_per_s", "edge_per_s", "batch_per_s")
ROUND_TIMES = ("p50_us", "p99_us")


def lookup_metrics(rounds: list[dict], cache: dict) -> dict:
    """Medians over the rounds, on the reference host speed (each round
    carries the ``scale`` of the probes around its slice), plus the
    wall-clock medians under ``raw``."""
    plain = [r for r in rounds if not r["traced"]]

    def median(key, rows=plain, scaled=True):
        if not scaled:
            return statistics.median(r[key] for r in rows)
        if key == "p50_us":
            return statistics.median(r[key] * r["scale"].typical_op
                                     for r in rows)
        if key == "p99_us":
            return statistics.median(r[key] * r["scale"].wall for r in rows)
        return statistics.median(r[key] / r["scale"].wall for r in rows)

    metrics = {
        "lookups_per_s": median("vertex_per_s"),
        "lookup_p50_us": median("p50_us"),
        "lookup.p99_us": median("p99_us"),
        "batch_lookups_per_s": median("batch_per_s"),
        "lookup.edge_per_s": median("edge_per_s"),
        "raw": {key: median(key, scaled=False)
                for key in ROUND_RATES + ROUND_TIMES},
        "lookup.samples": len(rounds) * ROUND_VERTEX,
        "lookup.cache_hit_ratio": cache["hits"] / max(
            1, cache["hits"] + cache["misses"]),
    }
    traced = [r for r in rounds if r["traced"]]
    if traced:
        metrics["trace.lookup_overhead_pct"] = 100.0 * (
            1.0 - median("vertex_per_s", traced) / metrics["lookups_per_s"])
    return metrics


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool,
        work_dir: Path) -> dict:
    """One benchmark run; returns the result object the CLI prints."""
    workload = WORKLOADS[name]
    checks = Checks()
    tracer = Tracer() if trace else None
    cache_dir = work_dir / ".bench_cache"
    tmp_dir = cache_dir / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.install()
    try:
        records, served, setup = measure(workload, seed, seconds, checks,
                                         tracer, cache_dir, tmp_dir)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp_dir, ignore_errors=True)
    checks.expect(len({r["digest"] for r in records}) == 1,
                  f"{name}: repeated calls gave different outputs")
    untraced = [r for r in records if not r["traced"]]
    probes = served.pop("probes")
    out = {
        "checks": checks,
        "host": host_facts(),
        "calls": len(records),
        "end_to_end": {
            "edges_per_s": statistics.median(
                r["edges_per_s"] for r in untraced),
            "replication_factor": records[0]["rf"],
            "balance_alpha": records[0]["alpha"],
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in untraced),
            **{key: served[key] for key in (
                "lookups_per_s", "lookup_p50_us", "batch_lookups_per_s")},
            "setup_s": statistics.median(s for s, _ in setup),
        },
        # The same figures as measured, before scaling to the reference
        # host speed, and the probe times they were scaled with.
        "raw": {
            "edges_per_s": statistics.median(
                r["raw_edges_per_s"] for r in untraced),
            **{f"lookup.{key}": value
               for key, value in served["raw"].items()},
            "setup_s": statistics.median(raw for _, raw in setup),
            "probe_mean_ms": 1e3 * statistics.median(
                p.mean_s for p in probes),
            "probe_best_ms": 1e3 * statistics.median(
                p.best_s for p in probes),
            "probe_ref_ms": 1e3 * PROBE_REF_S,
        },
        "per_layer": None,
    }
    if tracer is not None:
        out["per_layer"] = layer_metrics(tracer, records, served)
        traces = cache_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{name}.jsonl")
    return out


def measure(workload, seed, seconds, checks, tracer, cache_dir, tmp_dir):
    """Set-up, warm-up, then the measured calls and lookup rounds.

    Set-up generates the graph ``SETUP_REPEATS`` times.  One untimed
    warm-up call follows; its result is persisted as the lookup store.
    Then ``partition()`` calls run until the next would overrun
    ``seconds``, each followed by a slice of lookup rounds against the
    store.  The host-speed probe runs between every two of these steps.
    Returns ``(call records, lookup metrics, set-ups)``; a set-up is
    ``(seconds on the reference speed, seconds as measured)``.
    """
    probes = [probe()]
    setup = []
    for _ in range(SETUP_REPEATS):
        path, gen_s = generate_graph(workload, seed, cache_dir, tmp_dir,
                                     checks)
        probes.append(probe())
        setup.append((gen_s * to_reference(*probes[-2:]).wall, gen_s))
    # The warm-up lets the first measured call find the page cache and
    # the allocator in the state every later call finds them in.
    warm, _, _ = partition_once((workload.reference or workload.make)(),
                                path)
    edges = load_edges(path)
    reference = check_partition(warm, edges, workload, checks)
    store_dir = tmp_dir / "store"
    PartitionStore.write(store_dir, warm, edges)
    queries = make_queries(warm, edges, np.random.default_rng([seed, 1]))
    warm = edges = None
    records, rounds = [], []
    cache = {"hits": 0, "misses": 0}
    begin = time.perf_counter()
    probes.append(probe())
    while True:
        traced = tracer is not None and len(records) % 2 == 1
        result, wall, rss = partition_once(
            workload.make(), path, tracer if traced else None)
        probes.append(probe())
        records.append(call_record(workload, result, wall,
                                   to_reference(*probes[-2:]).wall, rss,
                                   load_edges(path), checks, traced))
        result = None
        client = LookupClient(store_dir, queries, checks, tracer, rounds)
        first = len(rounds)
        client.run(wall * SERVE_SHARE / (1.0 - SERVE_SHARE))
        probes.append(probe())
        for row in rounds[first:]:
            row["scale"] = to_reference(*probes[-2:])
        info = client.service.cache_info()
        cache = {key: cache[key] + info[key] for key in cache}
        client = None
        calls = len(records)
        if calls >= 2 and (
            time.perf_counter() - begin
        ) * (calls + 1) / calls > seconds:
            break
    checks.expect(records[0]["digest"] == reference["digest"],
                  f"{workload.name}: output differs from the warm-up call")
    client = LookupClient(store_dir, queries, checks, tracer)
    client.verify()
    served = {**lookup_metrics(rounds, cache),
              "store.bytes": client.store.nbytes(), "probes": probes}
    return records, served, setup


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------
PARTITION_LAYERS = ("streaming", "kernels", "clustering", "scheduling",
                    "runner", "wire")


def layer_metrics(tracer, records, served) -> dict:
    """Per-layer metrics: times and counts per traced ``partition()``
    call, store times per call, lookup figures over all rounds."""
    from repro.core import wire

    part = tracer.summary("bench.partition")
    store = tracer.summary("bench.store")
    calls = max(1, part["roots"])

    def row(name, summary=part):
        return summary["names"].get(name, {"count": 0, "busy_s": 0.0,
                                           "self_s": 0.0})

    def busy(name):
        return row(name)["busy_s"] / calls

    def per_store_call(name):
        r = row(name, store)
        return r["busy_s"] / max(1, r["count"])

    traced = [r for r in records if r["traced"]]
    untraced_wall = statistics.median(
        r["wall"] for r in records if not r["traced"])
    # The overhead compares calls on the reference host speed, so a
    # change of host speed between traced and untraced calls cancels.
    untraced_ref = statistics.median(
        r["ref_wall"] for r in records if not r["traced"])
    traced_ref = statistics.fmean(r["ref_wall"] for r in traced)
    last = traced[-1]
    extras = last["extras"]
    wire_stats = extras.get("wire", {})
    barrier = extras.get("barrier_bytes", 0)
    full = extras.get("barrier_bytes_full", 0)
    counters = tracer.counters
    m = {
        "streaming.read_s": busy("streaming.read"),
        "streaming.passes": counters.get("streaming.passes", 0) / calls,
        "streaming.edges_read": counters.get("streaming.edges_read", 0)
        / calls,
        "kernels.degree_s": busy("kernels.degree"),
        "kernels.clustering_s": busy("kernels.clustering"),
        "kernels.prepartition_s": busy("kernels.prepartition"),
        "kernels.remaining_s": busy("kernels.remaining"),
        "kernels.merge_s": busy("kernels.merge"),
        "kernels.prepartitioned_edges": extras["prepartitioned_edges"],
        "kernels.remaining_edges": extras["remaining_edges"],
        "clustering.run_s": busy("clustering.run"),
        "clustering.n_clusters": extras["n_clusters"],
        "scheduling.graham_s": busy("scheduling.graham"),
    }
    for step in ("open", "degree", "clustering", "bind", "prepartition",
                 "remaining", "finalize", "close"):
        m[f"runner.{step}_s"] = busy(f"runner.{step}")
    # Distributed barriers: the merge, plus broadcasting the refresh and
    # waiting for every worker's acknowledgement.
    m["runner.barrier_s"] = (
        busy("runner.barrier")
        + busy(f"wire.send#{wire.MSG_BARRIER}")
        + busy(f"wire.recv#{wire.MSG_BARRIER_ACK}")
    )
    m.update({
        "runner.syncs": extras.get("syncs", 0) + extras.get("phase1_syncs", 0),
        "runner.barrier_bytes": barrier,
        "runner.barrier_full_bytes": full,
        "runner.barrier_delta_ratio": barrier / full if full else 0.0,
        "runner.worker_peak_rss_mb": counters.get(
            "runner.worker_peak_rss_kb", 0) / 1024.0,
        "wire.encode_s": busy("wire.encode"),
        "wire.decode_s": busy("wire.decode"),
        "wire.send_s": row("wire.send")["self_s"] / calls,
        "wire.recv_wait_s": row("wire.recv")["self_s"] / calls,
        "wire.frames": (row("wire.send")["count"]
                        + row("wire.recv")["count"]) / calls,
        "wire.bytes_sent": wire_stats.get("bytes_sent", 0),
        "wire.bytes_received": wire_stats.get("bytes_received", 0),
        "state.bytes": last["state_bytes"],
        "state.replica_plane_bytes": last["replica_plane_bytes"],
        "store.open_s": per_store_call("store.open"),
        "store.verify_s": per_store_call("store.verify"),
        **{key: served[key] for key in (
            "store.bytes", "lookup.cache_hit_ratio", "lookup.edge_per_s",
            "lookup.p99_us", "lookup.samples",
            "trace.lookup_overhead_pct")},
    })
    layer_self = 0.0
    for layer in PARTITION_LAYERS:
        value = part["layers"].get(layer, {}).get("self_s", 0.0) / calls
        m[f"self.{layer}_s"] = value
        layer_self += value
    n_edges = last["n_edges"]
    m.update({
        "self.unattributed_s": part["root_self_s"] / calls,
        "trace.spans": sum(r["count"] for r in part["layers"].values())
        / calls,
        "trace.untraced_edges_per_s": n_edges / untraced_ref,
        "trace.traced_edges_per_s": n_edges / traced_ref,
        "trace.overhead_pct": 100.0 * (traced_ref / untraced_ref - 1.0),
        # Every parent-side span lies on the blocking path of the call, so
        # their self times should account for the untraced wall time.
        "trace.accounted_share": layer_self / untraced_wall,
    })
    return m

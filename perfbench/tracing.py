"""In-memory span tracing around the calls into each layer of ``repro``.

The benchmark never edits the package it measures.  A :class:`Tracer`
instead wraps the public entry points of each layer at run time (module
functions, class methods, methods of the shared kernel-backend instance,
and the methods of each runner session as it is opened), records one
span per call -- name, start, end, parent -- and puts every original
back on :meth:`Tracer.uninstall`.

Spans are recorded only in the process and thread that installed the
tracer: pool and loopback workers forked while the probes are installed
call straight through to the originals, so worker-side time shows up as
waiting in the parent's runner and wire spans.

A span's self time is its duration minus the durations of its direct
children; a layer's busy time is the summed duration of its spans that
are not nested inside another span of the same layer.
"""

from __future__ import annotations

import ctypes
import functools
import gc
import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext

_LIBC = ctypes.CDLL("libc.so.6")
_LIBC.malloc_trim.argtypes = [ctypes.c_size_t]
_LIBC.malloc_trim.restype = ctypes.c_int

class Tracer:
    """Collects spans in memory; installs and removes the layer probes."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, t0, t1, attrs]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._pid = os.getpid()
        self._thread = threading.get_ident()
        self.enabled = False

    # -- recording -----------------------------------------------------
    def active(self) -> bool:
        return (
            self.enabled
            and os.getpid() == self._pid
            and threading.get_ident() == self._thread
        )

    def start(self, name: str, **attrs) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, time.perf_counter(), None,
                attrs]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def end(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def root(self, name: str):
        """Record the calls made inside as one tree under span ``name``."""
        self.enabled = True
        span = self.start(name)
        try:
            yield
        finally:
            self.end(span)
            self.enabled = False

    # -- probes --------------------------------------------------------
    def wrap(self, fn, name: str):
        """``fn`` wrapped so each call in the tracing thread is a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active():
                return fn(*args, **kwargs)
            span = tracer.start(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``; :meth:`uninstall` restores the original."""
        own = vars(owner)
        self._patches.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def patch_call(self, owner, attr: str, name: str) -> None:
        """Wrap the function or method ``owner.attr`` in spans."""
        raw = vars(owner).get(attr)
        if isinstance(raw, classmethod):
            self.patch(owner, attr, classmethod(self.wrap(raw.__func__, name)))
        else:
            self.patch(owner, attr, self.wrap(getattr(owner, attr), name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def install(self) -> None:
        """Wrap every probed layer entry point (see the module docstring)."""
        import repro.core.distributed as distributed
        import repro.core.parallel as parallel
        import repro.core.partitioner as partitioner
        import repro.core.runners as runners
        from repro.core import wire
        from repro.core.clustering import StreamingClustering
        from repro.kernels import get_backend
        from repro.serving import LookupService, PartitionStore
        from repro.streaming import FileEdgeStream

        self.patch(FileEdgeStream, "chunks",
                   self._traced_chunks(FileEdgeStream.chunks))

        kernels = get_backend("numpy")
        for attr, name in (
            ("degree_pass", "kernels.degree"),
            ("clustering_true_pass", "kernels.clustering"),
            ("clustering_partial_pass", "kernels.clustering"),
            ("prepartition_pass", "kernels.prepartition"),
            ("remaining_pass_linear", "kernels.remaining"),
            ("remaining_pass_hdrf", "kernels.remaining"),
            ("merge_phase1_degrees", "kernels.merge"),
            ("merge_phase1_clustering", "kernels.merge"),
        ):
            self.patch(kernels, attr, self.wrap(getattr(kernels, attr), name))

        self.patch_call(StreamingClustering, "run", "clustering.run")
        for module in (partitioner, parallel):
            self.patch_call(module, "graham_schedule", "scheduling.graham")

        for runner_cls in (runners.ProcessRunner, distributed.DistributedRunner):
            self.patch(runner_cls, "open",
                       self._traced_open(runner_cls.open))
        self.patch_call(runners, "merge_barrier", "runner.barrier")
        self.patch_call(distributed, "merge_replica_wire_deltas",
                        "runner.barrier")

        self.patch_call(wire, "encode_payload", "wire.encode")
        self.patch_call(wire, "decode_payload", "wire.decode")
        self.patch(wire.Connection, "send",
                   self._traced_send(wire.Connection.send))
        self.patch(wire.Connection, "recv",
                   self._traced_recv(wire.Connection.recv))

        self.patch_call(PartitionStore, "open", "store.open")
        self.patch_call(PartitionStore, "verify", "store.verify")
        self.patch_call(LookupService, "vertex_partitions", "lookup.vertex")
        self.patch_call(LookupService, "edge_partition", "lookup.edge")

    # -- probes that need more than a plain span -------------------------
    def _traced_chunks(self, chunks):
        """One ``streaming.read`` span per chunk fetched from the file."""
        tracer = self

        @functools.wraps(chunks)
        def traced(stream, chunk_size=None):
            it = chunks(stream, chunk_size)
            if not tracer.active():
                yield from it
                return
            tracer.count("streaming.passes")
            while True:
                span = tracer.start("streaming.read")
                try:
                    chunk = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                tracer.count("streaming.edges_read", chunk.shape[0])
                yield chunk

        return traced

    def _traced_open(self, open_session):
        """``Runner.open`` as a span, plus a span per session method."""
        tracer = self
        methods = (
            ("run_degree_pass", "runner.degree"),
            ("run_clustering", "runner.clustering"),
            ("bind_phase2", "runner.bind"),
            ("finalize", "runner.finalize"),
        )

        @functools.wraps(open_session)
        def traced(runner, job):
            if not tracer.active():
                return open_session(runner, job)
            span = tracer.start("runner.open")
            try:
                session = open_session(runner, job)
            finally:
                tracer.end(span)
            for attr, name in methods:
                setattr(session, attr,
                        tracer.wrap(getattr(session, attr), name))
            run_pass, close = session.run_pass, session.close

            def traced_pass(pass_name):
                name = ("runner.prepartition" if pass_name == "prepartition"
                        else "runner.remaining")
                return tracer.wrap(run_pass, name)(pass_name)

            def traced_close():
                # Workers still run here: read their high-water RSS
                # before the session reaps them.
                key = "runner.worker_peak_rss_kb"
                tracer.counters[key] = max(
                    [tracer.counters.get(key, 0), *child_peak_rss_kb()]
                )
                return tracer.wrap(close, "runner.close")()

            session.run_pass = traced_pass
            session.close = traced_close
            return session

        return traced

    def _traced_send(self, send):
        tracer = self

        @functools.wraps(send)
        def traced(conn, msg_type, fields=None):
            if not tracer.active():
                return send(conn, msg_type, fields)
            span = tracer.start("wire.send", msg=msg_type)
            try:
                return send(conn, msg_type, fields)
            finally:
                tracer.end(span)

        return traced

    def _traced_recv(self, recv):
        tracer = self

        @functools.wraps(recv)
        def traced(conn):
            if not tracer.active():
                return recv(conn)
            span = tracer.start("wire.recv")
            try:
                msg_type, payload = recv(conn)
                span[5]["msg"] = msg_type
                return msg_type, payload
            finally:
                tracer.end(span)

        return traced

    # -- reporting -----------------------------------------------------
    def summary(self, root: str) -> dict:
        """Per-name and per-layer totals over the trees under ``root``.

        ``root`` names the ``bench.*`` spans the benchmark opens around
        measured calls.  Returns ``{"names": {...}, "layers": {...},
        "roots": int, "root_self_s": float}``, where each
        ``names``/``layers`` row is ``{count, busy_s, self_s}``.  Spans
        carrying a ``msg`` attribute (wire frames) are also totalled under
        ``"<name>#<msg>"``.
        """
        tree = [None] * len(self.spans)
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            sid, parent = s[0], s[1]
            tree[sid] = sid if parent is None else tree[parent]
            if parent is not None and s[4] is not None:
                child_time[parent] += s[4] - s[3]
        out = {"names": {}, "layers": {}, "roots": 0, "root_self_s": 0.0}
        for s in self.spans:
            sid, parent, name, t0, t1, attrs = s
            if t1 is None or self.spans[tree[sid]][2] != root:
                continue
            duration = t1 - t0
            self_time = duration - child_time[sid]
            if parent is None:
                out["roots"] += 1
                out["root_self_s"] += self_time
                continue
            layer = name.split(".", 1)[0]
            parent_name = self.spans[parent][2]
            keys = [
                (out["names"], name, parent_name == name),
                (out["layers"], layer,
                 parent_name.split(".", 1)[0] == layer),
            ]
            if "msg" in attrs:
                keys.append((out["names"], f"{name}#{attrs['msg']}", False))
            for table, key, nested in keys:
                row = table.setdefault(
                    key, {"count": 0, "busy_s": 0.0, "self_s": 0.0}
                )
                row["count"] += 1
                row["self_s"] += self_time
                if not nested:
                    row["busy_s"] += duration
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start": t0, "end": t1, **attrs,
                }) + "\n")


def traced_root(tracer, name: str):
    """``tracer.root(name)``, or a no-op context without a tracer."""
    return nullcontext() if tracer is None else tracer.root(name)


def child_peak_rss_kb() -> list[int]:
    """High-water RSS (kB) of every live ``multiprocessing`` child."""
    import multiprocessing

    peaks = []
    for child in multiprocessing.active_children():
        try:
            peaks.append(status_kb(child.pid, "VmHWM"))
        except (OSError, ValueError):
            continue  # exited between listing and reading
    return peaks


def status_kb(pid, field: str) -> int:
    """One ``kB`` field of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise ValueError(f"no {field} in /proc/{pid}/status")


def reset_peak_rss() -> None:
    """Return freed heap to the system, then restart this process's
    high-water RSS from its current RSS.

    Without the trim, memory the benchmark freed (its checks, the query
    pools) but the allocator kept would count towards the next call.
    """
    gc.collect()
    _LIBC.malloc_trim(0)
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")

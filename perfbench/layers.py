"""Spans around calls into the program's layers, and the per-layer split.

The traced pass wraps the public entry points of each layer — the
functions and methods named in :data:`LAYER_MAP` — with a timer that
records a span: name, start, end, thread CPU time, thread, parent span
and job id.  Nothing inside ``src/`` changes; the wrappers are installed
on the live modules and classes for the traced pass only and removed
after it.  Spans stay in memory until the run ends.

A span's *self* time is its duration minus its child spans on the same
thread.  Per-layer values are per job.  Busy times are self CPU times
summed over every thread (the 16 rank threads and the benchmark's own);
``master.*`` values are self wall times on the master rank's thread.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.cluster.engine import RankContext, SimulationEngine
from repro.cluster.mailbox import Router
from repro.mpi.communicator import Communicator
from repro.tuning import registry

#: layer -> ((metric, unit) pairs, the end-to-end metric the layer
#: should move and on which workload).  Written into every traced result
#: and the README.
LAYER_MAP: dict[str, tuple[tuple[tuple[str, str], ...], str]] = {
    "io": (
        (("io.read_envi_s", "s"), ("io.read_mib", "MiB")),
        "job_s.* on classify; ~0 elsewhere",
    ),
    "scheduling": (
        (("scheduling.partition_s", "s"), ("scheduling.d_all", "ratio"),
         ("scheduling.d_minus", "ratio")),
        "virtual_makespan on all; wall ~0",
    ),
    "mpi": (
        (("mpi.collective_calls", "count"), ("mpi.collective_self_s", "s"),
         ("master.mpi_self_s", "s")),
        "job_s.*, pixels_per_s on detect; little on unmix",
    ),
    "cluster.mailbox": (
        (("mailbox.messages", "count"), ("mailbox.megabits", "Mbit"),
         ("mailbox.send_s", "s"), ("mailbox.recv_s", "s"),
         ("master.recv_wait_s", "s"),
         ("master.send_wait_s", "s")),
        "job_s.* on detect (many small messages); peak_rss_mib and job_s.* "
        "on classify (larger messages); little on unmix",
    ),
    "cluster.engine": (
        (("engine.compute_calls", "count"), ("engine.compute_s", "s"),
         ("engine.match_s", "s"), ("engine.mflops", "Mflop"),
         ("engine.virtual_com_s", "virtual_s"),
         ("engine.virtual_seq_s", "virtual_s"),
         ("engine.virtual_par_s", "virtual_s")),
        "wall: job_s.* on detect; virtual: virtual_makespan on all",
    ),
    "kernels": (
        (("kernel.osp_step.s", "s"), ("kernel.osp_step.calls", "count"),
         ("kernel.fcls_solve.s", "s"), ("kernel.fcls_solve.calls", "count"),
         ("kernel.morph_mei.s", "s"), ("kernel.unique_filter.s", "s"),
         ("kernel.pca.s", "s"), ("kernel.s", "s"),
         ("kernel.share", "ratio"), ("master.kernel_s", "s")),
        "fcls_solve: job_s.* and seq_job_s.p50 on unmix, none on detect; "
        "morph_mei/unique_filter/pca: both on classify; osp_step: "
        "seq_job_s.p50 on detect only",
    ),
    "obs": (
        (("obs.overhead_x", "ratio"),),
        "no end-to-end metric (end-to-end runs attach no ObsSession)",
    ),
    "process": (
        (("process.cpu_per_wall", "ratio"), ("process.cpu_s", "s"),
         ("runtime.overhead_x", "ratio"), ("runtime.s", "s"),
         ("runtime.share", "ratio"), ("trace.overhead_x", "ratio"),
         ("master.wall_s", "s"), ("master.runtime_s", "s"),
         ("master.unattributed_s", "s")),
        "cpu_per_wall and runtime.overhead_x track runtime cost on detect "
        "and rank-split kernel overhead on unmix",
    ),
    "host": (
        (("host.reference_s", "s"),),
        "none: the reference task in calibration.py, by which end-to-end "
        "wall times are scaled to the reference host speed",
    ),
}

#: Unit of every per-layer metric.
UNITS = {
    name: unit for metrics, _ in LAYER_MAP.values() for name, unit in metrics
}

#: Kernels timed through their ``repro.tuning.registry`` variants.
REGISTRY_KERNELS = ("osp_step", "fcls_solve", "morph_mei", "unique_filter")

_COLLECTIVES = (
    "bcast", "scatter", "gather", "reduce", "allreduce", "allgather", "barrier",
)
_RUNTIME_LAYERS = ("mpi", "mailbox", "engine")


@dataclasses.dataclass
class Span:
    id: int
    parent: int
    name: str
    thread: str
    job: int
    start: float
    end: float
    cpu: float
    attrs: dict[str, float]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans from every thread; install wrappers with :meth:`patched`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.missing: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(
        self,
        name: str,
        func: Callable[..., Any],
        attrs: Callable[..., dict[str, float]] | None = None,
        parent: int | None = None,
    ) -> Callable[..., Any]:
        """``func`` wrapped to record a span named ``name`` per call.

        ``attrs(*args, **kwargs)`` picks counted arguments (megabits,
        mflops); ``parent`` fixes the parent of the thread's first span.
        """

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            up = stack[-1] if stack else (parent or 0)
            sid = next(self._ids)
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                span = Span(
                    sid, up, name, threading.current_thread().name, self.job,
                    t0, t1, c1 - c0, attrs(*args, **kwargs) if attrs else {},
                )
                with self._lock:
                    self.spans.append(span)

        return wrapper

    def current(self) -> int:
        stack = self._stack()
        return stack[-1] if stack else 0

    # -- installing the wrappers --------------------------------------------------
    def _targets(self) -> Iterator[tuple[Any, str | None, str, Any]]:
        """(owner, attribute, span name, attrs picker) for every entry
        point; a ``None`` attribute means the owner is a function to be
        wrapped wherever a module binds it."""
        from repro.core import runner
        from repro.io import envi
        from repro.linalg import pca

        yield envi.read_envi, None, "io.read_envi", None
        yield runner.make_row_partition, None, "scheduling.partition", None
        for method in _COLLECTIVES:
            yield Communicator, method, f"mpi.{method}", None
        yield Router, "send", "mailbox.send", _send_megabits
        yield Router, "recv", "mailbox.recv", None
        yield RankContext, "compute", "engine.compute", _compute_mflops
        yield SimulationEngine, "_on_match", "engine.match", None
        for kernel in REGISTRY_KERNELS:
            for variant in registry.variants_of(kernel):
                impl = variant.implementation()
                if isinstance(impl, type):
                    for attr, value in list(vars(impl).items()):
                        if inspect.isfunction(value) and (
                            attr == "__init__" or not attr.startswith("_")
                        ):
                            yield impl, attr, f"kernel.{kernel}", None
                else:
                    yield impl, None, f"kernel.{kernel}", None
        for attr in pca.__all__:
            yield getattr(pca, attr), None, "kernel.pca", None

    @staticmethod
    def _bindings(func: Any) -> list[tuple[Any, str]]:
        """Every ``repro`` module attribute bound to the function ``func``
        (a function imported by name is bound in each importing module)."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    found.append((module, attr))
        return found

    @contextlib.contextmanager
    def patched(self) -> Iterator[None]:
        """Install every wrapper and the per-rank program span; restore
        the originals on exit."""
        undo: list[tuple[Any, str, Any]] = []
        original_run = SimulationEngine.run

        @functools.wraps(original_run)
        def run(engine, program, *args, **kwargs):
            # Each rank thread's first span is the whole rank program,
            # parented to the ``run.sim`` span on the benchmark's thread.
            rank_program = self.timed(
                "rank.program", program, parent=self.current()
            )
            return original_run(engine, rank_program, *args, **kwargs)

        try:
            for owner, attr, name, picker in self._targets():
                sites = [(owner, attr)] if attr else self._bindings(owner)
                for site, site_attr in sites:
                    original = vars(site).get(site_attr)
                    if original is None:
                        self.missing.append(
                            f"{getattr(site, '__name__', site)}.{site_attr}"
                        )
                        continue
                    undo.append((site, site_attr, original))
                    setattr(site, site_attr, self.timed(name, original, picker))
            undo.append((SimulationEngine, "run", original_run))
            SimulationEngine.run = self.timed("run.sim", run)
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def _send_megabits(router, src, dst, tag, payload, megabits, *a, **k) -> dict:
    return {"megabits": float(megabits)}


def _compute_mflops(ctx, mflops, *a, **k) -> dict:
    return {"mflops": float(mflops)}


def self_times(spans: list[Span]) -> dict[int, tuple[float, float]]:
    """span id -> (self wall seconds, self CPU seconds)."""
    child_wall: dict[int, float] = defaultdict(float)
    child_cpu: dict[int, float] = defaultdict(float)
    thread_of = {s.id: s.thread for s in spans}
    for s in spans:
        if thread_of.get(s.parent) == s.thread:
            child_wall[s.parent] += s.end - s.start
            child_cpu[s.parent] += s.cpu
    return {
        s.id: (s.end - s.start - child_wall[s.id], s.cpu - child_cpu[s.id])
        for s in spans
    }


def layer_metrics(
    spans: list[Span], jobs: int, master_thread: str, process_cpu_s: float
) -> dict[str, float]:
    """The span-derived per-layer metrics, per job.

    Busy time is self CPU time, summed over threads: with the process on
    one CPU, the threads' CPU times add up to the job's wall time, so
    they split it.  ``master.*`` values are self wall times on
    ``master_thread``, the master rank's thread, which carries the
    blocking chain of a master-worker job; its waits are wall minus CPU.
    ``process_cpu_s`` is the traced pass's process CPU time.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    cpu: dict[str, float] = defaultdict(float)
    count: dict[str, float] = defaultdict(float)
    attr: dict[str, float] = defaultdict(float)
    master: dict[str, float] = defaultdict(float)
    for s in spans:
        w, c = own[s.id]
        cpu[s.name] += c
        cpu[s.layer] += c
        parent = by_id.get(s.parent)
        if parent is None or parent.name != s.name:
            count[s.name] += 1  # nested calls of one kernel count once
        if s.layer == "mpi":
            count["mpi"] += 1
        for key, value in s.attrs.items():
            attr[key] += value
        if s.thread == master_thread:
            master[s.layer] += w
            if s.layer == "mailbox":
                master[s.name + "_wait"] += w - c
            if s.name == "rank.program":
                master["wall"] += s.end - s.start
    out = {
        "io.read_envi_s": cpu["io.read_envi"],
        "scheduling.partition_s": cpu["scheduling.partition"],
        "mpi.collective_calls": count["mpi"],
        "mpi.collective_self_s": cpu["mpi"],
        "master.mpi_self_s": master["mpi"],
        "mailbox.messages": count["mailbox.send"],
        "mailbox.megabits": attr["megabits"],
        "mailbox.send_s": cpu["mailbox.send"],
        "mailbox.recv_s": cpu["mailbox.recv"],
        "master.recv_wait_s": master["mailbox.recv_wait"],
        "master.send_wait_s": master["mailbox.send_wait"],
        "engine.compute_calls": count["engine.compute"],
        "engine.compute_s": cpu["engine.compute"],
        "engine.match_s": cpu["engine.match"],
        "engine.mflops": attr["mflops"],
        "kernel.osp_step.s": cpu["kernel.osp_step"],
        "kernel.osp_step.calls": count["kernel.osp_step"],
        "kernel.fcls_solve.s": cpu["kernel.fcls_solve"],
        "kernel.fcls_solve.calls": count["kernel.fcls_solve"],
        "kernel.morph_mei.s": cpu["kernel.morph_mei"],
        "kernel.unique_filter.s": cpu["kernel.unique_filter"],
        "kernel.pca.s": cpu["kernel.pca"],
        "kernel.s": cpu["kernel"],
        "master.kernel_s": master["kernel"],
        "runtime.s": sum(cpu[layer] for layer in _RUNTIME_LAYERS),
        "master.runtime_s": sum(master[layer] for layer in _RUNTIME_LAYERS),
        "master.unattributed_s": master["rank"],
        "master.wall_s": master["wall"],
        "process.cpu_s": process_cpu_s,
    }
    per_job = {k: v / jobs for k, v in out.items()}
    per_job["kernel.share"] = cpu["kernel"] / process_cpu_s
    per_job["runtime.share"] = per_job["runtime.s"] / per_job["process.cpu_s"]
    return per_job

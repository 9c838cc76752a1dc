"""Memory microbenchmarks: stream copy and the single-stream update loop.

These measure the host analogues of the machine-model bandwidth inputs:
stream copy for the streaming baseline, the update loop (a[i] += 1.0) in
memory-sized and cache-sized footprints for the per-thread and aggregate
update bandwidths.  Worker threads own contiguous chunks; the timed region
sits between two barriers and is scored on the slowest thread, best of N
repetitions.  Kernel results are verified exactly; bandwidth magnitudes are
machine facts, never asserted against anything.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .grid import splitmix64_unit

# Byte accounting per array element and traversal.  Copy counts read + write
# + write-allocate (24 B/element): plain stores miss and pull the target line
# first; we do not use streaming stores, so the allocate is real traffic.
# The update loop reads and writes the same line: 16 B/element.
COPY_BYTES_PER_ELEMENT = 24
UPDATE_BYTES_PER_ELEMENT = 16

TIMER_GUARD = 1e4  # timed region must cover this many timer resolutions


@dataclass
class BenchResult:
    kernel: str
    threads: int
    array_elements: int
    reps: int
    inner_iterations: int
    bytes_moved: int          # per timed region
    seconds: float            # best-of-reps region time
    bandwidth: float          # bytes_moved / seconds
    accounting: str
    checksum: float = 0.0     # consumes the data so the work cannot be elided
    all_seconds: list = field(default_factory=list)

    def as_row(self):
        return {
            "kernel": self.kernel,
            "threads": self.threads,
            "array_elements": self.array_elements,
            "reps": self.reps,
            "inner_iterations": self.inner_iterations,
            "bytes_moved": self.bytes_moved,
            "seconds": self.seconds,
            "bandwidth_Bps": self.bandwidth,
            "accounting": self.accounting,
        }


def _chunks(elements: int, threads: int):
    step = elements // threads
    bounds = [i * step for i in range(threads)] + [elements]
    return list(zip(bounds[:-1], bounds[1:]))


def _timed_region(threads: int, body) -> float:
    """Run body(chunk_index) on each thread between two barriers; return the
    wall time of the region (slowest thread closes it)."""
    start = threading.Barrier(threads + 1)
    done = threading.Barrier(threads + 1)
    errs = []

    def run(i):
        try:
            start.wait()
            body(i)
        except BaseException as exc:
            errs.append(exc)
            start.abort()
            done.abort()
            return
        done.wait()

    workers = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(threads)]
    for w in workers:
        w.start()
    start.wait()
    t0 = time.perf_counter()
    done.wait()
    t1 = time.perf_counter()
    for w in workers:
        w.join()
    if errs:
        raise errs[0]
    return t1 - t0


def _resolution() -> float:
    res = time.get_clock_info("perf_counter").resolution
    return max(res, 1e-9)


def _auto_inner(threads: int, once) -> int:
    """Grow the in-region repetition count until a region comfortably exceeds
    the timer-resolution guard."""
    floor = TIMER_GUARD * _resolution()
    inner = 1
    while True:
        sec = _timed_region(threads, lambda i: once(i, inner))
        if sec >= floor:
            return inner
        inner *= 2
        if inner > 1 << 20:
            raise RuntimeError("timed region never exceeded the timer guard")


def stream_copy_bench(elements: int, threads: int = 1, reps: int = 10) -> BenchResult:
    """dst[:] = src[:], threads on contiguous chunks, best of ``reps``."""
    if elements < threads or threads < 1 or reps < 1:
        raise ValueError("need elements >= threads >= 1 and reps >= 1")
    src = splitmix64_unit(0, elements, seed=1234)
    dst = np.zeros(elements)
    spans = _chunks(elements, threads)

    def once(i, inner):
        lo, hi = spans[i]
        s, d = src[lo:hi], dst[lo:hi]
        for _ in range(inner):
            d[:] = s

    inner = _auto_inner(threads, once)
    times = [_timed_region(threads, lambda i: once(i, inner)) for _ in range(reps)]
    if not np.array_equal(dst, src):
        raise AssertionError("copy kernel produced wrong data")
    best = min(times)
    moved = COPY_BYTES_PER_ELEMENT * elements * inner
    return BenchResult(
        kernel="copy", threads=threads, array_elements=elements, reps=reps,
        inner_iterations=inner, bytes_moved=moved, seconds=best,
        bandwidth=moved / best,
        accounting=f"{COPY_BYTES_PER_ELEMENT} B/element (read + write + write-allocate)",
        checksum=float(dst[::max(1, elements // 1024)].sum()),
        all_seconds=times)


def update_bench(elements: int, threads: int = 1, reps: int = 10,
                 footprint_target: str = "memory") -> BenchResult:
    """a[i] += 1.0 over the whole array per rep; after the run every element
    equals reps * inner exactly, which is asserted.  footprint_target is
    advisory: the caller sizes ``elements`` for the cache level of interest
    ("cache") or beyond it ("memory")."""
    if footprint_target not in ("memory", "cache"):
        raise ValueError(f"unknown footprint target {footprint_target!r}")
    if elements < threads or threads < 1 or reps < 1:
        raise ValueError("need elements >= threads >= 1 and reps >= 1")
    a = np.zeros(elements)
    spans = _chunks(elements, threads)

    def once(i, inner):
        lo, hi = spans[i]
        chunk = a[lo:hi]
        for _ in range(inner):
            chunk += 1.0

    inner = _auto_inner(threads, once)
    a[:] = 0.0  # discard autotuning increments; reps start from a clean slate
    times = []
    for _ in range(reps):
        times.append(_timed_region(threads, lambda i: once(i, inner)))
    applied = reps * inner
    if not np.all(a == float(applied)):
        raise AssertionError("update kernel lost increments")
    best = min(times)
    moved = UPDATE_BYTES_PER_ELEMENT * elements * inner
    return BenchResult(
        kernel="update", threads=threads, array_elements=elements, reps=reps,
        inner_iterations=inner, bytes_moved=moved, seconds=best,
        bandwidth=moved / best,
        accounting=f"{UPDATE_BYTES_PER_ELEMENT} B/element (read + write, {footprint_target} footprint)",
        checksum=float(a[0]),
        all_seconds=times)

"""Pipelined temporal blocking on thread teams.

n teams of t threads form one update pipeline of n*t*T stages.  Pipeline
position g (0 = overall front) applies update levels g*T+1 .. (g+1)*T to every
block in traversal order.  The update window of a block slides one cell per
level against the traversal direction, so a thread's reads are always
satisfied by its predecessor's completed blocks plus its own earlier levels;
minimum predecessor distance d_l >= 1 is what makes that safe.  In compressed
mode the written data additionally moves one cell diagonally per level inside
a single padded array.

Synchronization is either a per-thread counter protocol (relaxed: proceed when
c[g-1]-c[g] >= d_l and, after incrementing, wait until c[g]-c[g+1] <= d_u)
or a staggered global-barrier lockstep used as the baseline.  Both produce
bitwise identical grids; only timing differs.

The schedule of a pass is one int64 table per direction
(:meth:`PipelineEngine.work_table`).  Each thread runs its rows of a pass in
one call into the compiled driver (``pipeline_worker`` in ``_jacobi.c``) with
the interpreter lock released.  A Python walker runs the same rows instead
when the numpy kernel is in use or when ``apply_window`` or
``write_ring_strips`` of this module no longer is the kernel's own function
(wrapped for tracing or in a test), so that every call reaches the wrapper.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
import os
import random
import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import kernel
from .grid import Grid3, BlockSpec, decompose_blocks
from .kernel import apply_window, write_ring_strips

# Layout shared with _jacobi.c: counter slots, work table columns (xl xh yl
# yh zl zh level sides), stats row fields, control words, worker results.
_SLOT = 8  # int64 slots per counter: 64 bytes, one cache line
_COLS = 8
_STATS = ("blocks", "windows", "cells", "spins", "pred_wait_ns",
          "succ_wait_ns", "pred_gap_min", "pred_violations", "succ_gap_max")
(_BLOCKS, _WINDOWS, _CELLS, _SPINS, _PRED_WAIT, _SUCC_WAIT, _GAP_MIN,
 _VIOLATIONS, _SUCC_MAX) = range(len(_STATS))
_CTL_ABORT, _CTL_COUNT = 0, _SLOT  # then the barrier sense at 2 * _SLOT
_DONE, _DEADLOCK, _ABORTED = 0, 1, 2
_SIDES = [(name, side) for name in "xyz" for side in (0, 1)]  # bit 2*ax+side
_SIDE_LISTS = [[s for bit, s in enumerate(_SIDES) if mask >> bit & 1]
               for mask in range(1 << len(_SIDES))]


class PipelineDeadlock(RuntimeError):
    """No counter made progress within the watchdog budget."""


class _Aborted(RuntimeError):
    pass


@dataclass
class PipelineConfig:
    """Tunables of the pipelined scheme.

    n teams of t threads, T updates per thread per block; h = n*t*T updates
    per pass.  d_l/d_u bound the distance (in blocks) between consecutive
    pipeline positions, d_t adds extra distance between teams.
    """
    spec: BlockSpec
    n: int = 1
    t: int = 1
    T: int = 1
    d_l: int = 1
    d_u: int = 3
    d_t: int = 0
    sync_mode: str = "relaxed"      # "relaxed" | "barrier"
    grid_mode: str = "two_grid"     # "two_grid" | "compressed"
    watchdog_s: float = 30.0
    pin_threads: bool = False
    jitter_prob: float = 0.0        # per block-update probability of a delay
    jitter_max_s: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self):
        if min(self.n, self.t, self.T) < 1:
            raise ValueError("n, t, T must all be >= 1")
        if self.d_l < 1:
            raise ValueError("d_l must be >= 1")
        if self.d_u < self.d_l:
            raise ValueError("d_u must be >= d_l")
        if self.d_t < 0:
            raise ValueError("d_t must be >= 0")
        if self.sync_mode not in ("relaxed", "barrier"):
            raise ValueError(f"unknown sync_mode {self.sync_mode!r}")
        if self.grid_mode not in ("two_grid", "compressed"):
            raise ValueError(f"unknown grid_mode {self.grid_mode!r}")
        if not 0 < self.watchdog_s < math.inf:  # also rejects nan
            raise ValueError(
                f"watchdog must be finite and > 0, got {self.watchdog_s}")

    @property
    def threads(self) -> int:
        return self.n * self.t

    @property
    def h(self) -> int:
        """Updates every cell receives in one full pass."""
        return self.n * self.t * self.T


class SyncCounters:
    """Per-thread monotone block counters, one 64-byte slot each.

    Only thread i writes c_i (single-writer); everyone may read.  The
    compiled driver loads them with acquire and stores them with release
    semantics; in the Python walker the GIL gives the same visibility.
    """

    def __init__(self, count: int):
        self.count = count
        self._slots = np.zeros(count * _SLOT, dtype=np.int64)

    def get(self, i: int) -> int:
        return int(self._slots[i * _SLOT])

    def bump(self, i: int, amount: int = 1) -> None:
        self._slots[i * _SLOT] += amount

    def reset(self) -> None:
        self._slots[:] = 0

    def snapshot(self):
        return [self.get(i) for i in range(self.count)]


@dataclass(frozen=True)
class EffectiveDistances:
    """Per-thread (d_l, d_u) after team-delay adjustment: d_t is added to d_l
    on each team's front thread and to d_u on its rear thread; the overall
    front/rear threads have no predecessor/successor constraint at all."""
    d_l: tuple
    d_u: tuple

    @classmethod
    def from_config(cls, cfg: PipelineConfig) -> "EffectiveDistances":
        nt = cfg.threads
        dl, du = [], []
        for g in range(nt):
            team_front = (g % cfg.t == 0)
            team_rear = (g % cfg.t == cfg.t - 1)
            dl.append(cfg.d_l + (cfg.d_t if team_front and g != 0 else 0))
            du.append(cfg.d_u + (cfg.d_t if team_rear and g != nt - 1 else 0))
        return cls(d_l=tuple(dl), d_u=tuple(du))


def predecessor_ready(c: SyncCounters, i: int, dist: EffectiveDistances) -> bool:
    """Thread i's predecessor is at least d_l_i blocks ahead, so every cell
    thread i reads next is final (averts data races).  The front thread has
    no predecessor."""
    return i == 0 or c.get(i - 1) - c.get(i) >= dist.d_l[i]


def successor_within(c: SyncCounters, i: int, dist: EffectiveDistances) -> bool:
    """Thread i's successor is at most d_u_i blocks behind (bounds the cache
    footprint).  The rear thread has no successor."""
    return i == c.count - 1 or c.get(i) - c.get(i + 1) <= dist.d_u[i]


def may_advance(c: SyncCounters, i: int, dist: EffectiveDistances) -> bool:
    """Both progress conditions for thread i, evaluated without side effects."""
    if not 0 <= i < c.count:
        raise IndexError(f"thread index {i} out of range")
    return predecessor_ready(c, i, dist) and successor_within(c, i, dist)


def estimate_max_distance(cache_bytes: float, t: int, spec: BlockSpec) -> int:
    """Upper bound on the thread distance: cache size divided by t times the
    size of one block (8-byte cells)."""
    volume = spec.bx * spec.by * spec.bz
    if volume <= 0:
        raise ValueError("block volume must be positive")
    if t < 1 or cache_bytes <= 0:
        raise ValueError("t and cache_bytes must be positive")
    return int(cache_bytes // (t * volume * 8))


def _combine(fn, a, b):
    """fn(a, b) where None stands for no value."""
    return b if a is None else a if b is None else fn(a, b)


@dataclass
class ThreadStats:
    """One pipeline thread's account of its passes, filled by the compiled
    driver or the Python walker alike.  Wait seconds count only time spent
    waiting (barrier waits count as predecessor waits); the gaps are None
    where the thread has no predecessor or successor condition."""
    blocks: int = 0
    windows: int = 0
    cells: int = 0
    spins: int = 0
    pred_wait_s: float = 0.0
    succ_wait_s: float = 0.0
    pred_gap_min: int | None = None
    pred_violations: int = 0
    succ_gap_max: int | None = None

    @classmethod
    def from_row(cls, row) -> "ThreadStats":
        """From one int64 stats row: nanoseconds for waits, -1 for no gap."""
        blocks, windows, cells, spins, pred_ns, succ_ns, gap, bad, succ = row
        return cls(blocks, windows, cells, spins, pred_ns / 1e9, succ_ns / 1e9,
                   None if gap < 0 else gap, bad, None if succ < 0 else succ)

    def merge(self, other: "ThreadStats") -> None:
        for f in fields(self):
            fn = {"pred_gap_min": min, "succ_gap_max": max}.get(f.name,
                                                                 operator.add)
            setattr(self, f.name, _combine(fn, getattr(self, f.name),
                                           getattr(other, f.name)))


@dataclass
class RunStats:
    """Outcome of a pipelined run; one CSV row per run.  ``threads`` holds a
    ThreadStats per pipeline position, summed over the passes."""
    wall_seconds: float = 0.0
    mlups: float = 0.0
    updates_total: int = 0
    passes: int = 0
    threads: list = field(default_factory=list)
    counters_final: list = field(default_factory=list)
    result: Grid3 | None = None

    @property
    def block_updates(self) -> int:
        return sum(t.blocks for t in self.threads)

    @property
    def per_thread_spins(self) -> list:
        return [t.spins for t in self.threads]

    @property
    def spin_iterations_total(self) -> int:
        return sum(self.per_thread_spins)

    @property
    def pred_gap_min(self) -> int | None:
        return min((t.pred_gap_min for t in self.threads
                    if t.pred_gap_min is not None), default=None)

    @property
    def pred_violations(self) -> int:
        return sum(t.pred_violations for t in self.threads)

    @property
    def succ_gap_max(self) -> int | None:
        return max((t.succ_gap_max for t in self.threads
                    if t.succ_gap_max is not None), default=None)

    def merge_pass(self, other: "RunStats") -> None:
        self.passes += other.passes
        if not self.threads:
            self.threads = [ThreadStats() for _ in other.threads]
        for mine, theirs in zip(self.threads, other.threads):
            mine.merge(theirs)
        self.counters_final = other.counters_final


class _Watchdog:
    """Aborts the pass when no counter changes for ``budget`` seconds."""

    def __init__(self, counters: SyncCounters, budget: float):
        self.counters = counters
        self.budget = budget
        self._lock = threading.Lock()
        self._last = counters.snapshot()
        self._since = time.perf_counter()

    def check(self):
        with self._lock:
            snap = self.counters.snapshot()
            now = time.perf_counter()
            if snap != self._last:
                self._last = snap
                self._since = now
            elif now - self._since > self.budget:
                raise PipelineDeadlock(
                    f"no pipeline progress for {self.budget:.1f}s; "
                    f"counters = {snap}")


def _window_boundaries(bases, delta, live_lo, live_hi):
    """K+1 window boundaries for one axis at one update level: interior block
    bases shifted by delta and clamped into the live range; the two ends are
    pinned to the live range so the windows always tile it exactly."""
    out = [live_lo]
    for b in bases[1:]:
        v = b + delta
        out.append(live_lo if v < live_lo else (live_hi if v > live_hi else v))
    out.append(live_hi)
    return out


class PipelineEngine:
    """Executes pipelined passes over one compressed grid or a two-grid pair.

    live_bounds, when given, maps (axis_index, level) -> (lo, hi_exclusive)
    logical range updated at that level (used by the distributed driver whose
    update regions shrink by one layer per level on sides with neighbors).
    physical_sides marks which domain faces carry a Dirichlet ring that must
    be re-materialized while data shifts (compressed mode only).
    """

    def __init__(self, cfg: PipelineConfig, grids, live_bounds=None,
                 physical_sides=None):
        self.cfg = cfg
        if isinstance(grids, Grid3):
            grids = (grids,)
        self.grids = list(grids)
        if cfg.grid_mode == "two_grid":
            if len(self.grids) != 2:
                raise ValueError("two_grid mode needs a grid pair")
            if self.grids[0].shape != self.grids[1].shape:
                raise ValueError("grid pair shapes differ")
        else:
            if len(self.grids) != 1:
                raise ValueError("compressed mode uses a single grid")
        g = self.grids[0]
        cfg.spec.validate(g)
        self.dims = g.shape
        self.plan_fwd = decompose_blocks(g, cfg.spec, 1)
        self.plan_bwd = decompose_blocks(g, cfg.spec, -1)
        dims = self.dims  # not self: a cycle would keep the grids alive
        self.live_bounds = live_bounds or (lambda ax, u: (0, dims[ax]))
        if physical_sides is None:
            physical_sides = {ax: (True, True) for ax in range(3)}
        self.physical_sides = physical_sides
        self._ring_sides = [(name, side) for ax, name in enumerate("xyz")
                            for side in (0, 1) if physical_sides[ax][side]]
        self._tables = {}
        self.levels_done = 0
        self.passes_done = 0

    def current_grid(self) -> Grid3:
        if self.cfg.grid_mode == "compressed":
            return self.grids[0]
        return self.grids[self.levels_done % 2]

    def work_table(self, direction: int) -> np.ndarray:
        """The schedule of a pass in ``direction``, the one both executors
        read; built on the first pass in that direction.

        An int64 array of shape (blocks, h, 8): row [k, u-1] holds the window
        block k (in traversal order) updates at level u as xl, xh, yl, yh, zl,
        zh, then u, then a bit mask (bit 2*axis + side) of the physical faces
        whose Dirichlet ring the window must re-materialize (compressed mode).
        A window empty on some axis slid out of its block's share of the
        level; both executors skip it.  Raises ValueError when a live range
        leaves the grid interior."""
        table = self._tables.get(direction)
        if table is not None:
            return table
        cfg = self.cfg
        plan = self.plan_fwd if direction == 1 else self.plan_bwd
        bases = plan.bases
        index = [{b: i for i, b in enumerate(axis)} for axis in bases]
        idx = np.array([[index[ax][base[ax]] for ax in range(3)]
                        for base, _size in plan.blocks], dtype=np.int64)
        table = np.empty((plan.total_blocks, cfg.h, _COLS), dtype=np.int64)
        for u in range(1, cfg.h + 1):
            delta = -u if direction == 1 else u
            mask = np.zeros(plan.total_blocks, dtype=np.int64)
            for ax in range(3):
                live_lo, live_hi = self.live_bounds(ax, u)
                if live_lo < 0 or live_hi > self.dims[ax]:
                    raise ValueError(
                        f"live range {(live_lo, live_hi)} of axis {ax} at "
                        f"level {u} leaves the grid interior {self.dims}")
                bounds = np.array(_window_boundaries(bases[ax], delta, live_lo,
                                                     live_hi), dtype=np.int64)
                lo, hi = bounds[idx[:, ax]], bounds[idx[:, ax] + 1]
                table[:, u - 1, 2 * ax] = lo
                table[:, u - 1, 2 * ax + 1] = hi
                if cfg.grid_mode == "compressed":
                    phys_lo, phys_hi = self.physical_sides[ax]
                    mask |= ((lo == live_lo) & phys_lo).astype(np.int64) << 2 * ax
                    mask |= ((hi == live_hi) & phys_hi).astype(np.int64) << 2 * ax + 1
            table[:, u - 1, 6] = u
            table[:, u - 1, 7] = mask
        self._tables[direction] = table
        return table

    def _maybe_pin(self, g):
        if self.cfg.pin_threads and hasattr(os, "sched_setaffinity"):
            try:
                cpus = sorted(os.sched_getaffinity(0))
                os.sched_setaffinity(0, {cpus[g % len(cpus)]})
            except OSError:
                pass  # pinning is best-effort; correctness never depends on it

    def run_pass(self, direction: int) -> RunStats:
        """One team sweep: every interior cell receives h updates."""
        cfg = self.cfg
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        a0 = self.grids[0].alignment
        if cfg.grid_mode == "compressed":
            pad = self.grids[0].pad
            if direction == 1 and a0 + cfg.h > pad:
                raise ValueError(
                    f"forward pass needs alignment+h <= pad ({a0}+{cfg.h} > {pad})")
            if direction == -1 and a0 - cfg.h < 0:
                raise ValueError(
                    f"backward pass needs alignment >= h ({a0} < {cfg.h})")
            # mid-pass strips span only the update windows, which may be
            # narrower than this pass's first-level region: restore the whole
            # ring at the current alignment first
            g = self.grids[0]
            write_ring_strips(g.data, g.boundary_faces,
                              tuple((0, n) for n in self.dims),
                              g.origin - a0, self._ring_sides, self.dims)
        run = _Pass(self, direction)
        run.run(range(cfg.threads))

        self.levels_done += cfg.h
        self.passes_done += 1
        if cfg.grid_mode == "compressed":
            self.grids[0].alignment = a0 + (cfg.h if direction == 1 else -cfg.h)
        return RunStats(passes=1, threads=run.thread_stats(),
                        counters_final=run.counters.snapshot())


class _Pass:
    """One pass in flight: its work table, its read and write frames and the
    state its threads share (counters, control words, stats rows).

    Level u reads ``arrays[(parity + u - 1) % 2]`` at offset
    ``base - shift * (u - 1)`` and writes ``arrays[(parity + u) % 2]`` at
    ``base - shift * u``: two-grid mode alternates the arrays at a fixed
    offset, compressed mode shifts one array's frame by one cell per level.
    ``drive(g)`` runs thread g's rows in the compiled driver with the
    interpreter lock released; ``walk(g)`` runs the same rows in Python
    through the module-level ``apply_window`` and ``write_ring_strips``."""

    def __init__(self, engine: PipelineEngine, direction: int):
        cfg = self.cfg = engine.cfg
        self.engine, self.direction = engine, direction
        self.table = engine.work_table(direction)
        self.nt = nt = cfg.threads
        self.counters = SyncCounters(nt)
        self.dist = EffectiveDistances.from_config(cfg)
        self.ctl = np.zeros(3 * _SLOT, dtype=np.int64)
        self.ctl[_CTL_COUNT] = nt
        self.stats = np.zeros((nt, len(_STATS)), dtype=np.int64)
        g0 = engine.grids[0]
        if cfg.grid_mode == "compressed":
            self.arrays = (g0.data, g0.data)
            self.parity, self.base = 0, g0.origin - g0.alignment
            self.shift = direction
        else:
            self.arrays = (g0.data, engine.grids[1].data)
            self.parity, self.base, self.shift = engine.levels_done % 2, g0.origin, 0
        self.faces = g0.boundary_faces
        self.delays = self._jitter_delays(engine.passes_done)
        # wrapped kernel functions (tracing, tests) must see every call
        self.walker = (kernel.BACKEND == "numpy"
                       or apply_window is not kernel.apply_window
                       or write_ring_strips is not kernel.write_ring_strips)
        self.barrier = None
        if self.walker:
            self.watchdog = _Watchdog(self.counters, cfg.watchdog_s)
            if cfg.sync_mode == "barrier":
                self.barrier = threading.Barrier(nt)
        else:
            self.spec = self._driver_spec()

    def _jitter_delays(self, passes_done):
        """Sleep in seconds per thread and block, drawn from one
        random.Random per thread and pass; None without jitter."""
        cfg = self.cfg
        if cfg.jitter_prob <= 0.0:
            return None
        delays = np.zeros((self.nt, self.table.shape[0]))
        for g, row in enumerate(delays):
            rng = random.Random(cfg.jitter_seed * 1_000_003 + passes_done * 8191 + g)
            for k in range(len(row)):
                if rng.random() < cfg.jitter_prob:
                    row[k] = rng.random() * cfg.jitter_max_s
        return delays

    def _driver_spec(self) -> kernel.PassSpec:
        """The compiled driver's arguments, after the checks that
        apply_window makes per call, made here once for every row."""
        cfg, dims = self.cfg, self.engine.dims
        src, dst = self.arrays
        kernel.check_arrays(src, dst)
        if src is not dst and (src.shape != dst.shape
                               or np.may_share_memory(src, dst)):
            raise ValueError("the two grids of two-grid mode differ in shape "
                             "or overlap")
        # windows lie inside the interior (work_table), so the interior plus
        # its ring at every level's offset bounds every load and store
        first, last = self.base, self.base - self.shift * cfg.h
        if min(first, last) < 1 or any(
                n + max(first, last) + 1 > size
                for n, size in zip(dims, src.shape[::-1])):
            raise ValueError(f"the frames of the pass, offsets {first} to "
                             f"{last}, leave the arrays of shape {src.shape}")
        nx, ny, nz = dims
        shapes = {"x": (nz, ny), "y": (nz, nx), "z": (ny, nx)}
        sides = np.bitwise_or.reduce(self.table[..., 7], axis=None)
        faces = []
        for bit, key in enumerate(_SIDES):
            face = None
            if sides >> bit & 1:
                face = np.ascontiguousarray(self.faces[key], dtype=np.float64)
                if face.shape != shapes[key[0]]:
                    raise ValueError(f"boundary face {key} has shape "
                                     f"{face.shape}, expected {shapes[key[0]]}")
            faces.append(face)
        d_l = np.array(self.dist.d_l, dtype=np.int64)
        d_u = np.array(self.dist.d_u, dtype=np.int64)
        self._keep = (faces, d_l, d_u)  # referenced while the driver runs
        return kernel.PassSpec(
            rows=self.table.ctypes.data, nblocks=self.table.shape[0],
            h=cfg.h, T=cfg.T, nt=self.nt,
            grid=(ctypes.c_void_p * 2)(src.ctypes.data, dst.ctypes.data),
            parity=self.parity, sy=src.strides[1] // src.itemsize,
            sz=src.strides[0] // src.itemsize, base_off=self.base,
            shift=self.shift,
            face=(ctypes.c_void_p * 6)(
                *(None if f is None else f.ctypes.data for f in faces)),
            nx=nx, ny=ny, nz=nz, counters=self.counters._slots.ctypes.data,
            ctl=self.ctl.ctypes.data, d_l=d_l.ctypes.data, d_u=d_u.ctypes.data,
            barrier=cfg.sync_mode == "barrier", watchdog_s=cfg.watchdog_s)

    def run(self, positions) -> None:
        """Run the given pipeline positions and raise the first failure: a
        worker's exception, or PipelineDeadlock when a watchdog fired or the
        pass was aborted.  A single position runs in the calling thread,
        unpinned; more run in one new thread each."""
        work = self.walk if self.walker else self.drive
        positions = list(positions)
        if len(positions) == 1:
            # no short-lived thread: with them, the rank threads that allocate
            # grids drift over more malloc arenas, each keeping freed grids
            # resident (20-37 MiB more peak RSS on a 2-rank TCP run)
            codes = {positions[0]: work(positions[0])}
        else:
            codes, errors = {}, []

            def body(g):
                try:
                    self.engine._maybe_pin(g)
                    codes[g] = work(g)
                except BaseException as exc:  # re-raised by the caller below
                    errors.append(exc)
                    self.abort()

            threads = [threading.Thread(target=body, args=(g,), daemon=True)
                       for g in positions]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            if errors:
                raise errors[0]
        for code, what in ((_DEADLOCK, "no pipeline progress for "
                            f"{self.cfg.watchdog_s:.1f}s"),
                           (_ABORTED, "pass aborted")):
            if code in codes.values():
                raise PipelineDeadlock(
                    f"{what}; counters = {self.counters.snapshot()}")

    def abort(self) -> None:
        """Stop every thread of the pass at its next wait."""
        self.ctl[_CTL_ABORT] = 1
        if self.barrier is not None:
            self.barrier.abort()

    def thread_stats(self) -> list:
        return [ThreadStats.from_row(row) for row in self.stats.tolist()]

    def drive(self, g: int) -> int:
        """Thread g's whole pass in one compiled call."""
        delays = None if self.delays is None else self.delays[g].ctypes.data
        return kernel._compiled().pipeline_worker(
            ctypes.byref(self.spec), g, delays, self.stats[g].ctypes.data)

    def walk(self, g: int) -> int:
        """Thread g's whole pass in Python, step for step as
        pipeline_worker in _jacobi.c."""
        cfg, c, T = self.cfg, self.counters, self.cfg.T
        relaxed = cfg.sync_mode == "relaxed"
        st = [0] * len(_STATS)
        st[_GAP_MIN] = st[_SUCC_MAX] = -1
        pred = functools.partial(predecessor_ready, c, g, self.dist)
        succ = functools.partial(successor_within, c, g, self.dist)
        blocks = self.table[:, g * T:(g + 1) * T].tolist()
        last = len(blocks) - 1
        try:
            # lockstep: in round r thread g works on block r-g
            for _ in range(0 if relaxed else g):
                self._barrier_wait(st)
            for k, rows in enumerate(blocks):
                if relaxed and g > 0:
                    self._spin(pred, st, _PRED_WAIT)
                    gap = c.get(g - 1) - c.get(g)
                    st[_GAP_MIN] = gap if st[_GAP_MIN] < 0 else min(st[_GAP_MIN], gap)
                    if not pred():
                        st[_VIOLATIONS] += 1
                if self.delays is not None and self.delays[g, k] > 0.0:
                    time.sleep(self.delays[g, k])
                for row in rows:
                    self._walk_row(row, st)
                st[_BLOCKS] += 1
                if not relaxed:
                    c.bump(g, 1)
                    self._barrier_wait(st)
                elif k == last:
                    c.bump(g, self.dist.d_u[g] + 1)  # pipeline wind-down
                else:
                    c.bump(g, 1)
                    if g < self.nt - 1:
                        st[_SUCC_MAX] = max(st[_SUCC_MAX], c.get(g) - c.get(g + 1))
                        self._spin(succ, st, _SUCC_WAIT)
            for _ in range(0 if relaxed else self.nt - 1 - g):
                self._barrier_wait(st)
        except _Aborted:
            return _ABORTED
        finally:
            self.stats[g] = st
        return _DONE

    def _walk_row(self, row, st):
        xl, xh, yl, yh, zl, zh, u, sides = row
        if xl >= xh or yl >= yh or zl >= zh:
            return
        dst_off = self.base - self.shift * u
        dst = self.arrays[(self.parity + u) % 2]
        window = ((xl, xh), (yl, yh), (zl, zh))
        apply_window(self.arrays[(self.parity + u - 1) % 2], dst, window,
                     self.base - self.shift * (u - 1), dst_off)
        st[_WINDOWS] += 1
        st[_CELLS] += (xh - xl) * (yh - yl) * (zh - zl)
        if sides:
            write_ring_strips(dst, self.faces, window, dst_off,
                              _SIDE_LISTS[sides], self.engine.dims)

    def _spin(self, cond, st, slot):
        """Wait until cond() holds, checking the abort word and the watchdog
        every round; the clock is read only once a wait has begun."""
        if cond():
            return
        start = time.perf_counter()
        while not cond():
            if self.ctl[_CTL_ABORT]:
                raise _Aborted()
            st[_SPINS] += 1
            self.watchdog.check()
            time.sleep(0)  # GIL yield; the closest CPython gets to a pause
        st[slot] += int((time.perf_counter() - start) * 1e9)

    def _barrier_wait(self, st):
        start = time.perf_counter()
        try:
            self.barrier.wait(timeout=self.cfg.watchdog_s)
        except threading.BrokenBarrierError:
            if self.ctl[_CTL_ABORT]:
                raise _Aborted() from None
            raise PipelineDeadlock(
                f"barrier timed out after {self.cfg.watchdog_s:.1f}s; "
                f"counters = {self.counters.snapshot()}") from None
        st[_PRED_WAIT] += int((time.perf_counter() - start) * 1e9)


def run_pipelined(grids, cfg: PipelineConfig, total_passes: int) -> RunStats:
    """Alternate forward/backward passes; returns wall time, MLUP/s and spin
    counts.  In compressed mode total_passes must be even so the alignment
    returns to its starting value."""
    engine = PipelineEngine(cfg, grids)
    if cfg.grid_mode == "compressed":
        if total_passes % 2 != 0:
            raise ValueError("compressed mode needs an even number of passes")
        if engine.grids[0].pad < cfg.h:
            raise ValueError(
                f"compressed mode needs pad >= h ({engine.grids[0].pad} < {cfg.h})")
    stats = RunStats()
    t0 = time.perf_counter()
    for p in range(total_passes):
        direction = 1 if p % 2 == 0 else -1
        stats.merge_pass(engine.run_pass(direction))
    stats.wall_seconds = time.perf_counter() - t0
    nx, ny, nz = engine.dims
    stats.updates_total = nx * ny * nz * cfg.h * total_passes
    stats.mlups = stats.updates_total / stats.wall_seconds / 1e6
    stats.result = engine.current_grid()
    return stats

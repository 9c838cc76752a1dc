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
(:meth:`PipelineEngine.work_table`).  Each thread runs its rows of every pass
of a run in one call into the compiled driver (``pipeline_worker`` in
``_jacobi.c``) with the interpreter lock released; a pass begins once every
thread has finished the one before; ``ready()`` in ``_jacobi.c`` is the one
statement of the sync conditions.  When the numpy kernel is in use, or when
``apply_window`` or ``write_ring_strips`` of this module no longer is the
kernel's own function (wrapped for tracing or in a test), the calling thread
walks the same table instead, so that every call reaches the wrapper: block
by block, and within a block level by level.  That is the t=1, T=h schedule
of the same work, bitwise equal to the driver's, with nothing to wait for.
"""

from __future__ import annotations

import ctypes
import math
import random
import threading
import time
from dataclasses import dataclass, field

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


class PipelineDeadlock(RuntimeError):
    """No counter made progress within the watchdog budget."""


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


def effective_distances(cfg: PipelineConfig):
    """Per-thread (d_l, d_u) int64 arrays, as the compiled driver reads
    them, after team-delay adjustment: d_t is added to d_l on each team's
    front thread and to d_u on its rear thread; the overall front/rear
    threads have no predecessor/successor constraint at all."""
    g = np.arange(cfg.threads)
    team_front = (g % cfg.t == 0) & (g != 0)
    team_rear = (g % cfg.t == cfg.t - 1) & (g != cfg.threads - 1)
    return (np.where(team_front, cfg.d_l + cfg.d_t, cfg.d_l).astype(np.int64),
            np.where(team_rear, cfg.d_u + cfg.d_t, cfg.d_u).astype(np.int64))


def estimate_max_distance(cache_bytes: float, t: int, spec: BlockSpec) -> int:
    """Upper bound on the thread distance: cache size divided by t times the
    size of one block (8-byte cells)."""
    volume = spec.bx * spec.by * spec.bz
    if volume <= 0:
        raise ValueError("block volume must be positive")
    if t < 1 or cache_bytes <= 0:
        raise ValueError("t and cache_bytes must be positive")
    return int(cache_bytes // (t * volume * 8))


@dataclass
class ThreadStats:
    """One pipeline position's account of its run.  Wait seconds count only
    time spent waiting (barrier waits count as predecessor waits); the gaps
    are None where the thread has no predecessor or successor condition.
    The walker never waits: it fills blocks, windows and cells only."""
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


@dataclass
class RunStats:
    """Outcome of a pipelined run; one CSV row per run.  ``threads`` holds a
    ThreadStats per pipeline position, summed over the passes."""
    wall_seconds: float = 0.0
    mlups: float = 0.0
    updates_total: int = 0
    passes: int = 0
    threads: list = field(default_factory=list)
    result: Grid3 | None = None

    @property
    def block_updates(self) -> int:
        return sum(t.blocks for t in self.threads)

    @property
    def spin_iterations_total(self) -> int:
        return sum(t.spins for t in self.threads)

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

    ``neighbors`` holds per axis a (lo, hi) pair of booleans, true where the
    grid's side borders a neighbouring rank's halo rather than the domain's
    Dirichlet ring; none has a neighbour by default.  Level u updates the
    live range ``(u if lo else 0, n - u if hi else n)`` of each axis, so the
    update region shrinks one layer per level toward neighbours, and the
    other sides keep their ring (re-materialized while data shifts in
    compressed mode).
    """

    def __init__(self, cfg: PipelineConfig, grids,
                 neighbors=((False, False),) * 3):
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
        self.dims = g.shape
        self.plan = decompose_blocks(g, cfg.spec, 1)  # backward: reversed
        # each block's index along each axis, in forward traversal order
        self._block_index = np.array(
            [base for base, _size in self.plan.blocks],
            dtype=np.int64) // (cfg.spec.bx, cfg.spec.by, cfg.spec.bz)
        self.neighbors = tuple((bool(lo), bool(hi)) for lo, hi in neighbors)
        if len(self.neighbors) != 3:
            raise ValueError(f"neighbors needs one (lo, hi) pair per axis, "
                             f"got {neighbors!r}")
        # bit 2*axis + side set where that side carries a Dirichlet ring that
        # shifted writes must re-materialize (compressed mode only)
        self.ring = sum(1 << 2 * ax + side
                        for ax, pair in enumerate(self.neighbors)
                        for side, nb in enumerate(pair)
                        if not nb and cfg.grid_mode == "compressed")
        self._tables = {}
        self.passes_done = 0

    def current_grid(self) -> Grid3:
        if self.cfg.grid_mode == "compressed":
            return self.grids[0]
        return self.grids[self.cfg.h * self.passes_done % 2]

    def work_table(self, direction: int) -> np.ndarray:
        """The schedule of a pass in ``direction``, the one both executors
        read; built on the first pass in that direction.

        An int64 array of shape (blocks, h, 8): row [k, u-1] holds the window
        block k (in traversal order) updates at level u as xl, xh, yl, yh, zl,
        zh, then u, then a bit mask (bit 2*axis + side) of the ring sides
        whose Dirichlet ring the window must re-materialize (compressed mode).
        A window empty on some axis slid out of its block's share of the
        level; both executors skip it."""
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        table = self._tables.get(direction)
        if table is not None:
            return table
        cfg, plan = self.cfg, self.plan
        bases = plan.bases
        idx = self._block_index[::direction]
        table = np.empty((plan.total_blocks, cfg.h, _COLS), dtype=np.int64)
        for u in range(1, cfg.h + 1):
            delta = -u if direction == 1 else u
            mask = np.zeros(plan.total_blocks, dtype=np.int64)
            for ax, (nb_lo, nb_hi) in enumerate(self.neighbors):
                n = self.dims[ax]
                live_lo, live_hi = (u if nb_lo else 0, n - u if nb_hi else n)
                bounds = np.array(_window_boundaries(bases[ax], delta, live_lo,
                                                     live_hi), dtype=np.int64)
                lo, hi = bounds[idx[:, ax]], bounds[idx[:, ax] + 1]
                table[:, u - 1, 2 * ax] = lo
                table[:, u - 1, 2 * ax + 1] = hi
                mask |= (lo == live_lo).astype(np.int64) << 2 * ax
                mask |= (hi == live_hi).astype(np.int64) << 2 * ax + 1
            table[:, u - 1, 6] = u
            table[:, u - 1, 7] = mask & self.ring
        self._tables[direction] = table
        return table

    def run_passes(self, count: int) -> RunStats:
        """``count`` team sweeps; each gives every interior cell h updates.

        Directions alternate with ``passes_done``: forward after an even
        number of passes, backward after an odd one.  Each pipeline position
        runs all ``count`` passes in one call, in one thread started for the
        whole run (a single position runs in the calling thread).  The
        arrays, frames, faces and compressed alignment are checked once,
        before any thread starts.  The walker runs in the calling thread."""
        if count < 0:
            raise ValueError(f"pass count must be >= 0, got {count}")
        return self.run_pass(count)

    def run_pass(self, count: int) -> RunStats:
        """The body of :meth:`run_passes`, kept under the name the
        benchmark's tracer (``perfbench/tracing.py``) wraps, so that each run
        is one ``pipeline.run_pass`` span holding its threads' spans."""
        if count == 0:
            return RunStats()
        run = _Run(self, count)
        if run.walker:
            run.walk()
        else:
            run.run(range(self.cfg.threads))
        self.passes_done += count
        if self.cfg.grid_mode == "compressed":
            self.grids[0].alignment = run.alignment_after
        return RunStats(passes=count, threads=run.thread_stats())


class _Run:
    """``count`` passes in flight: their work tables and frames and the
    arrays the threads share (counters, one 64-byte slot per position; the
    effective distances; control words; stats rows), in the layout the
    compiled driver reads.

    Pass q of the run is the engine's pass ``first + q``; it runs forward
    when that is even and backward when odd.  Level u of a pass reads
    ``arrays[(parity + u - 1) % 2]`` at offset ``base - shift * (u - 1)``
    and writes ``arrays[(parity + u) % 2]`` at ``base - shift * u``
    (:meth:`frame`): two-grid mode alternates the arrays at a fixed offset,
    compressed mode shifts one array's frame by one cell per level in the
    pass's direction.  Each pass starts where the one before ended.

    A pass begins with its counters reset, once every position has finished
    the one before.  In compressed mode the front position then restores the
    whole Dirichlet ring at the pass's read frame before its first block:
    mid-pass strips span only the update windows, which may be narrower than
    the first level's region.  ``drive(g)`` runs position g's passes in the
    compiled driver with the interpreter lock released; ``walk()`` runs every
    position's passes in the calling thread through the module-level
    ``apply_window`` and ``write_ring_strips``."""

    def __init__(self, engine: PipelineEngine, count: int):
        cfg = self.cfg = engine.cfg
        self.engine, self.count = engine, count
        self.first = engine.passes_done
        self.nt = nt = cfg.threads
        self.counters = np.zeros(nt * _SLOT, dtype=np.int64)
        self.d_l, self.d_u = effective_distances(cfg)
        self.ctl = np.zeros(3 * _SLOT, dtype=np.int64)
        self.ctl[_CTL_COUNT] = nt
        self.stats = np.zeros((nt, len(_STATS)), dtype=np.int64)
        g0 = engine.grids[0]
        self.faces, self.ring = g0.faces, engine.ring
        if cfg.grid_mode == "compressed":
            self.arrays = (g0.data, g0.data)
            self.parity, self.base, self.shifting = 0, g0.origin - g0.alignment, 1
            self.alignment_after = g0.alignment + (
                count % 2) * cfg.h * self.direction(0)
        else:
            self.arrays = (g0.data, engine.grids[1].data)
            self.parity = cfg.h * engine.passes_done % 2
            self.base, self.shifting = g0.origin, 0
        # (forward, backward) tables; None for a direction the run never takes
        used = {self.direction(q) for q in range(min(count, 2))}
        self.tables = [engine.work_table(d) if d in used else None
                       for d in (1, -1)]
        self.nblocks = engine.plan.total_blocks
        self._check()
        # wrapped kernel functions (tracing, tests) must see every call
        self.walker = (kernel.BACKEND == "numpy"
                       or apply_window is not kernel.apply_window
                       or write_ring_strips is not kernel.write_ring_strips)
        if not self.walker:
            self.delays = self._jitter_delays()
            self.spec = self._driver_spec()

    def direction(self, q: int) -> int:
        return 1 if (self.first + q) % 2 == 0 else -1

    def frame(self, q: int):
        """(table, parity, base, shift) of pass q: an odd pass starts at the
        offset where the first one ended."""
        d = self.direction(q)
        shift = self.shifting * d
        return (self.tables[d == -1], (self.parity + q * self.cfg.h) % 2,
                self.base + (q % 2) * self.cfg.h * shift, shift)

    def _check(self) -> None:
        """Raise ValueError before any thread starts where a pass of the run
        would leave the arrays: the compiled driver checks no bounds, and
        apply_window's checks run per call.  Every pass spans the offsets of
        the first one, so checking it covers the run."""
        cfg, dims = self.cfg, self.engine.dims
        g0 = self.engine.grids[0]
        if cfg.grid_mode == "compressed":
            a0, pad = g0.alignment, g0.pad
            if self.direction(0) == 1 and a0 + cfg.h > pad:
                raise ValueError(
                    f"forward pass needs alignment+h <= pad ({a0}+{cfg.h} > {pad})")
            if self.direction(0) == -1 and a0 - cfg.h < 0:
                raise ValueError(
                    f"backward pass needs alignment >= h ({a0} < {cfg.h})")
        src, dst = self.arrays
        kernel.check_arrays(src, dst)
        if src is not dst and (src.shape != dst.shape
                               or np.may_share_memory(src, dst)):
            raise ValueError("the two grids of two-grid mode differ in shape "
                             "or overlap")
        # windows lie inside the interior (work_table), so the interior plus
        # its ring at every level's offset bounds every load and store
        first = self.base
        last = first - self.shifting * self.direction(0) * cfg.h
        if min(first, last) < 1 or any(
                n + max(first, last) + 1 > size
                for n, size in zip(dims, src.shape[::-1])):
            raise ValueError(f"the frames of the run, offsets {first} to "
                             f"{last}, leave the arrays of shape {src.shape}")
        # the driver reads the faces of the ring's sides by raw pointer
        zyx = dims[::-1]
        for bit in (b for b in range(6) if self.ring >> b & 1):
            face = self.faces[bit] if bit < len(self.faces) else None
            shape = zyx[:2 - bit // 2] + zyx[3 - bit // 2:]
            if not (isinstance(face, np.ndarray) and face.shape == shape
                    and face.dtype == np.float64 and face.flags.c_contiguous):
                raise ValueError(
                    f"boundary face {bit} (bit 2*axis + side) must be a "
                    f"C-contiguous float64 array of shape {shape}, as "
                    "Grid3.capture_boundary_faces makes it")

    def _jitter_delays(self):
        """Sleep in seconds per pass, thread and block, drawn from one
        random.Random per engine pass and thread; None without jitter."""
        cfg = self.cfg
        if cfg.jitter_prob <= 0.0:
            return None
        delays = np.zeros((self.count, self.nt, self.nblocks))
        for q, per_pass in enumerate(delays):
            for g, row in enumerate(per_pass):
                rng = random.Random(cfg.jitter_seed * 1_000_003
                                    + (self.first + q) * 8191 + g)
                for k in range(len(row)):
                    if rng.random() < cfg.jitter_prob:
                        row[k] = rng.random() * cfg.jitter_max_s
        return delays

    def _driver_spec(self) -> kernel.RunSpec:
        """The compiled driver's arguments."""
        cfg, (nx, ny, nz) = self.cfg, self.engine.dims
        src, dst = self.arrays
        return kernel.RunSpec(
            rows=(ctypes.c_void_p * 2)(
                *(None if t is None else t.ctypes.data for t in self.tables)),
            nblocks=self.nblocks, h=cfg.h, T=cfg.T, nt=self.nt,
            passes=self.count, first=self.first,
            grid=(ctypes.c_void_p * 2)(src.ctypes.data, dst.ctypes.data),
            parity=self.parity, sy=src.strides[1] // src.itemsize,
            sz=src.strides[0] // src.itemsize, base_off=self.base,
            shifting=self.shifting,
            face=(ctypes.c_void_p * 6)(
                *(self.faces[bit].ctypes.data if self.ring >> bit & 1 else None
                  for bit in range(6))),
            ring=self.ring, nx=nx, ny=ny, nz=nz,
            counters=self.counters.ctypes.data, ctl=self.ctl.ctypes.data,
            d_l=self.d_l.ctypes.data, d_u=self.d_u.ctypes.data,
            barrier=cfg.sync_mode == "barrier", watchdog_s=cfg.watchdog_s)

    def run(self, positions) -> None:
        """Run the given pipeline positions through every pass in the
        compiled driver and raise the first failure: a worker's exception,
        or PipelineDeadlock when a watchdog fired or the run was aborted.  A
        single position runs in the calling thread; more run in one new
        thread each."""
        positions = list(positions)
        if len(positions) == 1:
            # no short-lived thread: with them, the rank threads that allocate
            # grids drift over more malloc arenas, each keeping freed grids
            # resident (20-37 MiB more peak RSS on a 2-rank TCP run)
            codes = {positions[0]: self.drive(positions[0])}
        else:
            codes, errors = {}, []

            def body(g):
                try:
                    codes[g] = self.drive(g)
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
                           (_ABORTED, "run aborted")):
            if code in codes.values():
                raise PipelineDeadlock(
                    f"{what}; counters = {self.counters[::_SLOT].tolist()}")

    def abort(self) -> None:
        """Stop every thread of the run at its next wait."""
        self.ctl[_CTL_ABORT] = 1

    def thread_stats(self) -> list:
        return [ThreadStats.from_row(row) for row in self.stats.tolist()]

    def drive(self, g: int) -> int:
        """Thread g's whole run in one compiled call."""
        delays = None if self.delays is None else self.delays.ctypes.data
        return kernel._compiled().pipeline_worker(
            ctypes.byref(self.spec), g, delays, self.stats[g].ctypes.data)

    def walk(self) -> None:
        """Every position's whole run in the calling thread: per pass, block
        by block, and within a block position by position through its rows
        in level order.  Windows depend only on block, level and direction,
        so this t=1, T=h order of the same table gives the driver's result
        bit for bit."""
        T = self.cfg.T
        st = [[0] * len(_STATS) for _ in range(self.nt)]
        for own in st:
            own[_GAP_MIN] = own[_SUCC_MAX] = -1
        for q in range(self.count):
            frame = table, _parity, base, _shift = self.frame(q)
            if self.ring:
                dims = self.engine.dims
                write_ring_strips(self.arrays[0], self.faces,
                                  tuple((0, n) for n in dims), base,
                                  self.ring, dims)
            for rows in table.tolist():
                for g, own in enumerate(st):
                    for row in rows[g * T:(g + 1) * T]:
                        self._walk_row(row, frame, own)
                    own[_BLOCKS] += 1
        self.stats[:] = st

    def _walk_row(self, row, frame, st):
        xl, xh, yl, yh, zl, zh, u, sides = row
        if xl >= xh or yl >= yh or zl >= zh:
            return
        _table, parity, base, shift = frame
        dst_off = base - shift * u
        dst = self.arrays[(parity + u) % 2]
        window = ((xl, xh), (yl, yh), (zl, zh))
        apply_window(self.arrays[(parity + u - 1) % 2], dst, window,
                     base - shift * (u - 1), dst_off)
        st[_WINDOWS] += 1
        st[_CELLS] += (xh - xl) * (yh - yl) * (zh - zl)
        if sides:
            write_ring_strips(dst, self.faces, window, dst_off, sides,
                              self.engine.dims)


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
    t0 = time.perf_counter()
    stats = engine.run_passes(total_passes)
    stats.wall_seconds = time.perf_counter() - t0
    nx, ny, nz = engine.dims
    stats.updates_total = nx * ny * nz * cfg.h * total_passes
    stats.mlups = stats.updates_total / stats.wall_seconds / 1e6
    stats.result = engine.current_grid()
    return stats

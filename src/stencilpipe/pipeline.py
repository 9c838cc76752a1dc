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
(:meth:`PipelineEngine.work_table`).  A run is one call into the compiled
driver (``pipeline_run`` in ``_jacobi.c``), with the interpreter lock
released, on arguments the engine builds once (``PipelineEngine.spec``) and
the run's pass plan.  It runs the first position in the calling thread and
starts and joins a thread for each other; each runs its rows of every pass,
and a pass begins once every thread has finished the one before.  ``ready()`` in
``_jacobi.c`` states the sync conditions once.  The driver runs a thread's T
rows of a block as a wavefront over chunks of z planes, each level one plane
behind the one before, so that a level's input is still in cache; the sync
conditions, still counted in whole blocks, do not change.

When the numpy kernel is in use, or when ``apply_window`` or
``write_ring_strips`` of this module no longer is the kernel's own function
(wrapped for tracing or in a test), the calling thread walks the same table
instead, so that every call reaches the wrapper: block by block, and within
a block level by level, each row whole.  That is the t=1, T=h schedule of
the same work, bitwise equal to the driver's, with nothing to wait for.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading  # unused: perfbench/tracing.py assigns pipeline.threading
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .grid import BOUNDARY, Grid3, BlockSpec, decompose_blocks
from .kernel import apply_window, write_ring_strips

# Layout shared with _jacobi.c: counter slots, work table columns (xl xh yl
# yh zl zh level sides), pass plan columns (struct frame), stats row fields,
# control words, position results.
_SLOT = 8  # int64 slots per counter: 64 bytes, one cache line
_COLS = 8
_DIR, _PARITY, _BASE, _SHIFT = range(4)
_STATS = ("blocks", "windows", "cells", "spins", "pred_wait_ns",
          "succ_wait_ns", "pred_gap_min", "pred_violations", "succ_gap_max")
(_BLOCKS, _WINDOWS, _CELLS, _SPINS, _PRED_WAIT, _SUCC_WAIT, _GAP_MIN,
 _VIOLATIONS, _SUCC_MAX) = range(len(_STATS))
_CTL_ABORT, _CTL_COUNT = 0, _SLOT  # then the barrier sense at 2 * _SLOT
_DEADLOCK, _ABORTED, _NOT_STARTED = 1, 2, 3  # 0: done
_ALL_SIDES = 0b111111  # a compressed ring with no neighbour on any side


class PipelineDeadlock(RuntimeError):
    """No counter made progress within the watchdog budget."""


@dataclass
class PipelineConfig:
    """Tunables of the pipelined scheme.

    n teams of t threads, T updates per thread per block; h = n*t*T updates
    per pass.  d_l/d_u bound the distance (in blocks) between consecutive
    pipeline positions, d_t adds extra distance between teams.

    watchdog_s is two limits.  Within a pass it is a no-progress budget: a
    waiting thread gives up once no counter it reads has moved for that long.
    On a distributed rank it also bounds each wait for a neighbour's message
    (the config-hash handshake and every halo exchange), from the moment the
    rank sends its own: a neighbour still busy with its pass or setup for
    longer than that ends the run with a TransportError.
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

    @property
    def pad(self) -> int:
        """A grid's pad in this mode: h, as compressed frames shift, or 0."""
        return self.h if self.grid_mode == "compressed" else 0


def grid_bytes(dims, pad=0) -> int:
    """Bytes of one grid's storage."""
    return 8 * math.prod(n + 2 * BOUNDARY + pad for n in dims)


def run_bytes(dims, grid_mode: str, h: int) -> int:
    """Bytes a run stores: one grid padded by h (any, as a sweep sizes the
    configs it refuses) and the six faces its engine reads, or a pair."""
    if grid_mode != "compressed":
        return 2 * grid_bytes(dims)
    return grid_bytes(dims, max(h, 0)) + 16 * sum(math.prod(dims) // n
                                                  for n in dims)


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
    size of one block (8-byte cells) of the spec.  The last block on an
    axis, from its last base on (:func:`grid.decompose_blocks`), is shorter
    than 1.5x the spec there, so a block at a grid's far corner holds less
    than 1.5**3 = 3.375x the volume this bound assumes."""
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


class PipelineEngine:
    """Executes pipelined passes over one compressed grid or a two-grid pair.

    ``grids`` is one grid at ``cfg.pad``, which a two-grid engine copies into
    a pair, or a pair, checked here once: unequal grids, shared storage or an
    array that ``kernel.check_arrays`` refuses raise ValueError.

    ``neighbors`` holds per axis a (lo, hi) pair of booleans, true where the
    grid's side borders a neighbouring rank's halo rather than the domain's
    Dirichlet ring; none has a neighbour by default.  Level u updates the
    live range ``(u if lo else 0, n - u if hi else n)`` of each axis, so the
    update region shrinks one layer per level toward neighbours, and the
    other sides keep their ring (re-materialized while data shifts in
    compressed mode).

    Its blocks tile the grid by the per-axis ``bases`` of
    :func:`grid.decompose_blocks`.  All that its runs share is fixed when
    the engine is built, the compiled driver's arguments (``spec``) among
    it; a run adds only its pass plan (:meth:`_plan`).
    Code that changes a grid's ring or storage builds a new engine.
    """

    def __init__(self, cfg: PipelineConfig, grids,
                 neighbors=((False, False),) * 3):
        self.cfg = cfg
        self.grids = [grids] if isinstance(grids, Grid3) else list(grids)
        if cfg.grid_mode == "two_grid" and len(self.grids) == 1:
            self.grids.append(self.grids[0].copy())
        if len(self.grids) != (2 if cfg.grid_mode == "two_grid" else 1):
            raise ValueError("two_grid mode needs one grid or a pair, "
                             f"compressed mode one grid; got {len(self.grids)}")
        g, o = self.grids[0], self.grids[-1]
        self.arrays = (g.data, o.data)
        kernel.check_arrays(*self.arrays)
        kernel.check_arrays(*self.arrays[::-1])  # levels write both
        if ((g.shape, g.pad, g.alignment) != (o.shape, o.pad, o.alignment)
                or len(self.grids) == 2 and np.may_share_memory(*self.arrays)):
            raise ValueError("the grids of the pair differ in shape, pad or "
                             "alignment, or share storage")
        self.dims = g.shape
        self.bases = decompose_blocks(g, cfg.spec)
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
        # A compressed engine with a ring side reads the six faces of its
        # grid's ring at the grid's frame: the Dirichlet values are fixed
        # here.  Before each pass's first block the front position rewrites
        # the ``restore`` sides in full from them at the pass's read frame:
        # the ring sides when some side borders a neighbour, as live ranges
        # shrink toward it and the last level's strips miss the ring's bands
        # next to it.  With none, the first pass reads the ring the faces
        # came from, and live ranges are the whole interior, so the last
        # level's windows tile each face and their strips have written every
        # face cell that the next pass's first level reads, in this run or
        # the next (the stencil reads no edge or corner).  Two-grid mode has
        # no ring (``ring`` is 0).
        self.faces = g.capture_boundary_faces() if self.ring else ()
        self.restore = 0 if self.ring == _ALL_SIDES else self.ring
        self.tables = (self.work_table(1), self.work_table(-1))
        # shared by a run's positions in the driver's layout, reset per run:
        # a 64-byte counter slot and a stats row each, and the control words
        nt = cfg.threads
        self.counters = np.zeros(nt * _SLOT, dtype=np.int64)
        self.ctl = np.zeros(3 * _SLOT, dtype=np.int64)
        self.stats = np.zeros((nt, len(_STATS)), dtype=np.int64)
        self.d_l, self.d_u = effective_distances(cfg)
        self.passes_done = 0
        # the driver's arguments, raw addresses of arrays the engine holds
        src, (nx, ny, nz) = self.arrays[0], self.dims
        self.spec = kernel.RunSpec(
            rows=(ctypes.c_void_p * 2)(*(t.ctypes.data for t in self.tables)),
            nblocks=len(self.tables[0]), h=cfg.h, T=cfg.T, nt=nt,
            grid=(ctypes.c_void_p * 2)(*(a.ctypes.data for a in self.arrays)),
            sy=src.strides[1] // src.itemsize,
            sz=src.strides[0] // src.itemsize,
            face=(ctypes.c_void_p * 6)(*(f.ctypes.data for f in self.faces)),
            restore=self.restore, nx=nx, ny=ny, nz=nz,
            counters=self.counters.ctypes.data, ctl=self.ctl.ctypes.data,
            d_l=self.d_l.ctypes.data, d_u=self.d_u.ctypes.data,
            barrier=cfg.sync_mode == "barrier", watchdog_s=cfg.watchdog_s)

    def current_grid(self) -> Grid3:
        """The grid holding the latest update level."""
        return self.grids[self.cfg.h * self.passes_done % len(self.grids)]

    def work_table(self, direction: int) -> np.ndarray:
        """The schedule of a pass in ``direction``, built anew on each call;
        the engine builds both directions once, as ``tables`` (forward,
        backward), which both executors read.

        An int64 array of shape (blocks, h, 8): row [k, u-1] holds the window
        block k (z outermost, x fastest; backward in reverse) updates at
        level u as xl, xh, yl, yh, zl, zh, then u, then a bit mask (bit
        2*axis + side) of the ring sides whose Dirichlet ring the window must
        re-materialize (compressed mode).  On each axis a window runs between
        the block's bases in ``bases``, shifted by u against the traversal
        and clamped into the level's live range, whose ends the first and
        last blocks keep.  A window empty on some axis slid out of its
        block's share of the level; both executors skip it."""
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        cfg = self.cfg
        table = np.empty((*(len(b) for b in self.bases[::-1]), cfg.h, _COLS),
                         dtype=np.int64)
        # block (i, j, k) of per-axis indices at [k, j, i]: z outermost, x
        # fastest, and the reverse backward
        blocks = table[::direction, ::direction, ::direction]
        u = np.arange(1, cfg.h + 1)  # the levels
        blocks[..., 6], blocks[..., 7] = u, 0
        for ax, (nb_lo, nb_hi) in enumerate(self.neighbors):
            live_lo, live_hi = u * nb_lo, self.dims[ax] - u * nb_hi
            # the axis's window boundaries per level, by block index along
            # it: the inner bases shifted against the traversal and clamped
            inner = (np.array(self.bases[ax][1:], dtype=np.int64)[:, None]
                     - direction * u)
            bounds = np.vstack([live_lo, np.clip(inner, live_lo, live_hi),
                                live_hi]).reshape((-1,) + (1,) * ax + (cfg.h,))
            lo, hi = bounds[:-1], bounds[1:]
            blocks[..., 2 * ax], blocks[..., 2 * ax + 1] = lo, hi
            blocks[..., 7] |= ((lo == live_lo) * (1 << 2 * ax)
                               | (hi == live_hi) * (2 << 2 * ax))
        table[..., 7] &= self.ring
        return table.reshape(-1, cfg.h, _COLS)

    def run_passes(self, count: int) -> RunStats:
        """``count`` team sweeps; each gives every interior cell h updates.

        Directions alternate with ``passes_done``: forward after an even
        number of passes, backward after an odd one.  The run is one call
        into the compiled driver, or a walk in the calling thread; the
        frames are checked once, before either starts.
        Every grid's alignment is then where the run's last frame left it.
        OSError means that the driver could not start a thread."""
        if count < 0:
            raise ValueError(f"pass count must be >= 0, got {count}")
        return self.run_pass(count)

    def run_pass(self, count: int) -> RunStats:
        """The body of :meth:`run_passes`, kept under the name the
        benchmark's tracer (``perfbench/tracing.py``) wraps, so that each run
        is one ``pipeline.run_pass`` span holding its threads' spans."""
        if count == 0:
            return RunStats()
        plan = self._plan(count)
        self._check(plan)
        self.stats[:] = 0
        self.stats[:, _GAP_MIN] = self.stats[:, _SUCC_MAX] = -1  # no gap yet
        # wrapped kernel functions (tracing, tests) must see every call
        if (kernel.BACKEND == "numpy"
                or apply_window is not kernel.apply_window
                or write_ring_strips is not kernel.write_ring_strips):
            self._walk(plan)
        else:
            self._drive(plan, range(self.cfg.threads))
        self.passes_done += count
        _dir, _parity, base, shift = plan[-1].tolist()
        for g in self.grids:
            g.alignment = g.origin - (base - shift * self.cfg.h)
        return RunStats(passes=count, threads=[
            ThreadStats.from_row(row) for row in self.stats.tolist()])

    def _plan(self, count: int) -> np.ndarray:
        """The pass plan of a run of ``count`` passes: an int64 row per pass
        of direction, grid parity, level-0 frame offset and shift, as
        ``struct frame`` of ``_jacobi.c``; the one statement of the run's
        schedule, which both executors read.

        Pass q of the run is the engine's pass ``passes_done + q``; it runs
        forward (+1) when that is even and backward (-1) when odd.  Level u
        reads ``arrays[(parity + u - 1) % 2]`` at offset ``base - shift *
        (u - 1)`` and writes ``arrays[(parity + u) % 2]`` at ``base - shift
        * u``: two-grid mode alternates the arrays at a fixed offset (shift
        0), compressed mode shifts one array's frame by one cell per level in
        the pass's direction.  The first pass starts at the grid's frame,
        ``origin - alignment``, in both modes; each later one starts where the
        one before ended: parity grows by h, base moves by ``-shift * h``."""
        h, g0 = self.cfg.h, self.grids[0]
        base = g0.origin - g0.alignment
        rows = []
        for p in range(self.passes_done, self.passes_done + count):
            direction = -1 if p % 2 else 1
            shift = direction if self.cfg.grid_mode == "compressed" else 0
            rows.append((direction, p * h % 2, base, shift))
            base -= shift * h
        return np.array(rows, dtype=np.int64)

    def _check(self, plan: np.ndarray) -> None:
        """Raise ValueError before any thread starts where a pass of the plan
        would leave the storage, whose arrays were checked at build: the
        compiled driver checks no bounds, and apply_window checks per call."""
        # windows lie inside the interior (work_table), so its ring at every
        # level's offset of every pass bounds every load and store: offset 1
        # puts the low ring at index 0, the origin the high one at the last;
        # a pass's offsets run from base to base - shift * h
        offsets = [off for _dir, _parity, base, shift in plan.tolist()
                   for off in (base, base - shift * self.cfg.h)]
        lo, hi = min(offsets), max(offsets)
        if lo < 1 or hi > self.grids[0].origin:
            raise ValueError(f"the frames of the run, offsets {lo} to {hi}, "
                             f"leave the storage of pad {self.grids[0].pad}")

    def _delays(self, count: int):
        """Seconds the compiled driver sleeps before each block update, per
        pass, position and block of a run of ``count`` passes, or None for
        no sleeps: a seam for tests that perturb the threads' timing."""
        return None

    def abort(self) -> None:
        """Stop every thread of the run in flight at its next wait."""
        self.ctl[_CTL_ABORT] = 1

    def _drive(self, plan: np.ndarray, positions) -> None:
        """Run ``positions`` (every one but in tests) through every pass of
        the plan in one compiled call, and raise where one failed: OSError
        when its thread could not be started, PipelineDeadlock when a
        watchdog fired or the run was aborted.  A failure in any position
        aborts the rest.  The counters and control words start reset, and
        the plan joins the rest of the driver's arguments in ``spec``."""
        cfg, spec = self.cfg, self.spec
        self.counters[:] = self.ctl[:] = 0
        self.ctl[_CTL_COUNT] = cfg.threads
        spec.plan, spec.passes = plan.ctypes.data, len(plan)
        delays = self._delays(len(plan))
        positions = np.array(positions, dtype=np.int64)
        codes = np.full_like(positions, _ABORTED)  # where none ran
        err = kernel._compiled().pipeline_run(
            ctypes.byref(spec), positions.ctypes.data, len(positions),
            None if delays is None else delays.ctypes.data,
            self.stats.ctypes.data, codes.ctypes.data)
        if err:
            g = positions[codes == _NOT_STARTED][0]
            raise OSError(err, f"could not start the thread of pipeline "
                               f"position {g}: {os.strerror(err)}")
        for code, what in ((_DEADLOCK, "no pipeline progress for "
                            f"{cfg.watchdog_s:.1f}s"),
                           (_ABORTED, "run aborted")):
            if code in codes:
                raise PipelineDeadlock(
                    f"{what}; counters = {self.counters[::_SLOT].tolist()}")

    def _walk(self, plan: np.ndarray) -> None:
        """Every position's whole run in the calling thread: per row of the
        plan, block by block, and within a block position by position
        through its rows in level order, through the module-level
        ``apply_window`` and ``write_ring_strips``.  Windows depend only on
        block, level and direction, so this t=1, T=h order of the same table
        gives the driver's result bit for bit."""
        T, dims, arrays = self.cfg.T, self.dims, self.arrays
        st = self.stats.tolist()
        for direction, parity, base, shift in plan.tolist():
            if self.restore:
                write_ring_strips(arrays[0], self.faces,
                                  tuple((0, n) for n in dims), base,
                                  self.restore, dims)
            for rows in self.tables[direction == -1].tolist():
                for g, own in enumerate(st):
                    for row in rows[g * T:(g + 1) * T]:
                        self._walk_row(row, (arrays, parity, base, shift), own)
                    own[_BLOCKS] += 1
        self.stats[:] = st

    def _walk_row(self, row, frame, st):
        xl, xh, yl, yh, zl, zh, u, sides = row
        if xl >= xh or yl >= yh or zl >= zh:
            return
        arrays, parity, base, shift = frame
        dst_off = base - shift * u
        dst = arrays[(parity + u) % 2]
        window = ((xl, xh), (yl, yh), (zl, zh))
        apply_window(arrays[(parity + u - 1) % 2], dst, window,
                     base - shift * (u - 1), dst_off)
        st[_WINDOWS] += 1
        st[_CELLS] += (xh - xl) * (yh - yl) * (zh - zl)
        if sides:
            write_ring_strips(dst, self.faces, window, dst_off, sides,
                              self.dims)


def run_pipelined(grids, cfg: PipelineConfig, total_passes: int) -> RunStats:
    """Alternate forward/backward passes over ``grids`` as the engine takes
    them; returns the passes' wall time, MLUP/s and spin counts.  The result
    holds the latest level at its grid's alignment: h after an odd number of
    compressed passes from 0, so a later run leaving the pad is refused."""
    engine = PipelineEngine(cfg, grids)
    t0 = time.perf_counter()
    stats = engine.run_passes(total_passes)
    stats.wall_seconds = time.perf_counter() - t0
    nx, ny, nz = engine.dims
    stats.updates_total = nx * ny * nz * cfg.h * total_passes
    stats.mlups = stats.updates_total / stats.wall_seconds / 1e6
    stats.result = engine.current_grid()
    return stats

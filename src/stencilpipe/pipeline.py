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
"""

from __future__ import annotations

import functools
import math
import os
import random
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .grid import Grid3, BlockSpec, decompose_blocks
from .kernel import apply_window, write_ring_strips

_SLOT = 8  # int64 slots per counter: 64 bytes, one cache line


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

    Only thread i writes c_i (single-writer); everyone may read.  CPython's
    GIL gives each read/write the required acquire/release visibility.
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


@dataclass
class RunStats:
    """Outcome of a pipelined run; one CSV row per run."""
    wall_seconds: float = 0.0
    mlups: float = 0.0
    updates_total: int = 0
    passes: int = 0
    block_updates: int = 0
    spin_iterations_total: int = 0
    per_thread_spins: list = field(default_factory=list)
    pred_gap_min: int | None = None
    pred_violations: int = 0
    succ_gap_max: int | None = None
    counters_final: list = field(default_factory=list)
    result: Grid3 | None = None

    def merge_pass(self, other: "RunStats") -> None:
        self.passes += other.passes
        self.block_updates += other.block_updates
        self.spin_iterations_total += other.spin_iterations_total
        if not self.per_thread_spins:
            self.per_thread_spins = [0] * len(other.per_thread_spins)
        for i, s in enumerate(other.per_thread_spins):
            self.per_thread_spins[i] += s
        if other.pred_gap_min is not None:
            self.pred_gap_min = (other.pred_gap_min if self.pred_gap_min is None
                                 else min(self.pred_gap_min, other.pred_gap_min))
        self.pred_violations += other.pred_violations
        if other.succ_gap_max is not None:
            self.succ_gap_max = (other.succ_gap_max if self.succ_gap_max is None
                                 else max(self.succ_gap_max, other.succ_gap_max))
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


def _default_live(axis_len):
    def live(u):
        return (0, axis_len)
    return live


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
        xb, yb, zb = self.plan_fwd.bases
        idx_of = ({b: i for i, b in enumerate(xb)},
                  {b: i for i, b in enumerate(yb)},
                  {b: i for i, b in enumerate(zb)})
        self._axis_idx_fwd = [
            (idx_of[0][b[0]], idx_of[1][b[1]], idx_of[2][b[2]])
            for b, _size in self.plan_fwd.blocks]
        self._axis_idx_bwd = list(reversed(self._axis_idx_fwd))
        if live_bounds is None:
            lives = [_default_live(n) for n in self.dims]
            self.live_bounds = lambda ax, u: lives[ax](u)
        else:
            self.live_bounds = live_bounds
        if physical_sides is None:
            physical_sides = {ax: (True, True) for ax in range(3)}
        self.physical_sides = physical_sides
        self._ring_sides = [(name, side) for ax, name in enumerate("xyz")
                            for side in (0, 1) if physical_sides[ax][side]]
        self.levels_done = 0
        self.passes_done = 0

    # -- frame bookkeeping ---------------------------------------------------

    def current_grid(self) -> Grid3:
        if self.cfg.grid_mode == "compressed":
            return self.grids[0]
        return self.grids[self.levels_done % 2]

    def _pass_tables(self, direction):
        """Per-level window boundaries and live ranges for one pass."""
        h = self.cfg.h
        bases = self.plan_fwd.bases
        bounds, lives = {}, {}
        for u in range(1, h + 1):
            delta = -u if direction == 1 else u
            per_axis_b, per_axis_l = [], []
            for ax in range(3):
                lo, hi = self.live_bounds(ax, u)
                per_axis_b.append(_window_boundaries(bases[ax], delta, lo, hi))
                per_axis_l.append((lo, hi))
            bounds[u] = per_axis_b
            lives[u] = per_axis_l
        return bounds, lives

    def _frames(self, u, direction, a0):
        """(src_array, src_off, dst_array, dst_off) for update level u."""
        if self.cfg.grid_mode == "two_grid":
            lvl = self.levels_done + u
            src = self.grids[(lvl - 1) % 2]
            dst = self.grids[lvl % 2]
            off = src.origin  # alignment stays 0 in two-grid mode
            return src.data, off, dst.data, off
        g = self.grids[0]
        s = 1 if direction == 1 else -1
        return (g.data, g.origin - (a0 + s * (u - 1)),
                g.data, g.origin - (a0 + s * u))

    def _apply_block_level(self, k, u, direction, a0, tables):
        bounds, lives = tables
        ix, iy, iz = (self._axis_idx_fwd if direction == 1
                      else self._axis_idx_bwd)[k]
        bx, by, bz = bounds[u]
        window = ((bx[ix], bx[ix + 1]), (by[iy], by[iy + 1]), (bz[iz], bz[iz + 1]))
        if any(lo >= hi for lo, hi in window):
            return  # window slid out of this block's share of the level
        src, so, dst, do = self._frames(u, direction, a0)
        apply_window(src, dst, window, so, do)
        if self.cfg.grid_mode == "compressed":
            sides = []
            for ax, name in enumerate(("x", "y", "z")):
                lo, hi = lives[u][ax]
                wlo, whi = window[ax]
                if wlo == lo and self.physical_sides[ax][0]:
                    sides.append((name, 0))
                if whi == hi and self.physical_sides[ax][1]:
                    sides.append((name, 1))
            if sides:
                write_ring_strips(dst, self.grids[0].boundary_faces, window,
                                  do, sides, self.dims)

    # -- worker loops ----------------------------------------------------------

    def _maybe_pin(self, g):
        if self.cfg.pin_threads and hasattr(os, "sched_setaffinity"):
            try:
                cpus = sorted(os.sched_getaffinity(0))
                os.sched_setaffinity(0, {cpus[g % len(cpus)]})
            except OSError:
                pass  # pinning is best-effort; correctness never depends on it

    def _spin(self, cond, stop, watchdog):
        it = 0
        while not cond():
            if stop.is_set():
                raise _Aborted()
            it += 1
            if it % 256 == 0:
                watchdog.check()
            time.sleep(0)  # GIL yield; the closest CPython gets to a pause
        return it

    def _jitter(self, rng):
        cfg = self.cfg
        if cfg.jitter_prob > 0.0 and rng.random() < cfg.jitter_prob:
            time.sleep(rng.random() * cfg.jitter_max_s)

    def _worker_relaxed(self, g, direction, a0, counters, dist, tables, stop,
                        watchdog, out):
        cfg = self.cfg
        self._maybe_pin(g)
        nt = cfg.threads
        plan = self.plan_fwd if direction == 1 else self.plan_bwd
        total = plan.total_blocks
        rng = random.Random(cfg.jitter_seed * 1_000_003 + self.passes_done * 8191 + g)
        pred_ready = functools.partial(predecessor_ready, counters, g, dist)
        succ_within = functools.partial(successor_within, counters, g, dist)
        spins = 0
        gap_min, violations, succ_max = None, 0, None
        for k in range(total):
            if g > 0:
                spins += self._spin(pred_ready, stop, watchdog)
                gap = counters.get(g - 1) - counters.get(g)
                gap_min = gap if gap_min is None else min(gap_min, gap)
                if not pred_ready():
                    violations += 1
            self._jitter(rng)
            for i in range(1, cfg.T + 1):
                self._apply_block_level(k, g * cfg.T + i, direction, a0, tables)
            if k == total - 1:
                counters.bump(g, dist.d_u[g] + 1)  # pipeline wind-down
            else:
                counters.bump(g, 1)
                if g < nt - 1:
                    gap = counters.get(g) - counters.get(g + 1)
                    succ_max = gap if succ_max is None else max(succ_max, gap)
                    spins += self._spin(succ_within, stop, watchdog)
        out[g] = (spins, total, gap_min, violations, succ_max)

    def _worker_barrier(self, g, direction, a0, counters, tables, stop,
                        barrier, out):
        cfg = self.cfg
        self._maybe_pin(g)
        nt = cfg.threads
        plan = self.plan_fwd if direction == 1 else self.plan_bwd
        total = plan.total_blocks
        rng = random.Random(cfg.jitter_seed * 1_000_003 + self.passes_done * 8191 + g)
        done = 0
        # Staggered lockstep: in round r thread g works on block r-g, keeping
        # consecutive threads exactly one block apart.
        for r in range(total + nt - 1):
            k = r - g
            if 0 <= k < total:
                self._jitter(rng)
                for i in range(1, cfg.T + 1):
                    self._apply_block_level(k, g * cfg.T + i, direction, a0,
                                            tables)
                counters.bump(g, 1)
                done += 1
            try:
                barrier.wait(timeout=cfg.watchdog_s)
            except threading.BrokenBarrierError:
                if stop.is_set():
                    raise _Aborted()
                raise PipelineDeadlock(
                    f"barrier timed out after {cfg.watchdog_s:.1f}s; "
                    f"counters = {counters.snapshot()}")
        out[g] = (0, done, None, 0, None)

    # -- passes ---------------------------------------------------------------

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
        if cfg.grid_mode == "compressed":
            # mid-pass strips span only the update windows, which may be
            # narrower than this pass's first-level region: restore the whole
            # ring at the current alignment first
            g = self.grids[0]
            write_ring_strips(g.data, g.boundary_faces,
                              tuple((0, n) for n in self.dims),
                              g.origin - a0, self._ring_sides, self.dims)
        tables = self._pass_tables(direction)
        nt = cfg.threads
        counters = SyncCounters(nt)
        dist = EffectiveDistances.from_config(cfg)
        stop = threading.Event()
        watchdog = _Watchdog(counters, cfg.watchdog_s)
        out = [None] * nt
        errors = []

        def launch(target, *args):
            def body():
                try:
                    target(*args)
                except _Aborted:
                    pass
                except BaseException as exc:  # propagate to the caller
                    errors.append(exc)
                    stop.set()
                    if cfg.sync_mode == "barrier":
                        barrier.abort()
            return threading.Thread(target=body, daemon=True)

        if cfg.sync_mode == "barrier":
            barrier = threading.Barrier(nt)
            threads = [launch(self._worker_barrier, g, direction, a0, counters,
                              tables, stop, barrier, out)
                       for g in range(nt)]
        else:
            threads = [launch(self._worker_relaxed, g, direction, a0, counters,
                              dist, tables, stop, watchdog, out)
                       for g in range(nt)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        if errors:
            raise errors[0]

        self.levels_done += cfg.h
        self.passes_done += 1
        if cfg.grid_mode == "compressed":
            self.grids[0].alignment = a0 + (cfg.h if direction == 1 else -cfg.h)

        stats = RunStats(passes=1, counters_final=counters.snapshot())
        stats.per_thread_spins = [o[0] for o in out]
        stats.spin_iterations_total = sum(stats.per_thread_spins)
        stats.block_updates = sum(o[1] for o in out)
        gaps = [o[2] for o in out if o[2] is not None]
        stats.pred_gap_min = min(gaps) if gaps else None
        stats.pred_violations = sum(o[3] for o in out)
        succ = [o[4] for o in out if o[4] is not None]
        stats.succ_gap_max = max(succ) if succ else None
        return stats


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

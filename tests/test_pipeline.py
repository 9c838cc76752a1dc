import gc
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from stencilpipe import kernel, pipeline
from stencilpipe import (
    BlockSpec,
    Grid3,
    PipelineConfig,
    PipelineDeadlock,
    PipelineEngine,
    create_grid,
    effective_distances,
    estimate_max_distance,
    run_pipelined,
)
from stencilpipe.grid import decompose_blocks
from tests.conftest import assert_bitwise


def _cfg(**kw):
    kw.setdefault("spec", BlockSpec(12, 4, 4))
    return PipelineConfig(**kw)


def _run(g0, cfg, passes, pad=None):
    if cfg.grid_mode == "compressed":
        g = create_grid(*g0.shape, pad=pad if pad is not None else cfg.h)
        g.interior_view()[...] = g0.interior_view()
        g.capture_boundary_faces()
        return run_pipelined(g, cfg, passes)
    a, b = g0.copy(), g0.copy()
    return run_pipelined((a, b), cfg, passes)


def _needs_driver():
    """Skip a test of what only the concurrent driver does: waits, gaps,
    deadlocks and aborts."""
    if kernel.BACKEND != "c":
        pytest.skip("no compiled driver: the walker runs in one thread "
                    "and never waits")


# ---------------------------------------------------------------------------
# effective distances / team delay
# ---------------------------------------------------------------------------

def test_team_delay_lands_on_front_and_rear_threads():
    cfg = _cfg(n=2, t=3, T=1, d_l=1, d_u=2, d_t=5)
    d_l, d_u = effective_distances(cfg)
    # threads 0..5; team fronts: 0, 3; team rears: 2, 5
    assert d_l.tolist() == [1, 1, 1, 6, 1, 1]  # overall front exempt
    assert d_u.tolist() == [2, 2, 7, 2, 2, 2]  # overall rear exempt
    assert d_l.dtype == d_u.dtype == np.int64  # as the compiled driver reads


def test_config_invariants_validated():
    with pytest.raises(ValueError):
        _cfg(d_l=0)
    with pytest.raises(ValueError):
        _cfg(d_l=2, d_u=1)
    with pytest.raises(ValueError):
        _cfg(t=0)
    with pytest.raises(ValueError):
        _cfg(sync_mode="sometimes")


# ---------------------------------------------------------------------------
# estimate_max_distance
# ---------------------------------------------------------------------------

def test_max_distance_l3_examples():
    assert estimate_max_distance(8e6, 4, BlockSpec(120, 20, 20)) == 5
    assert estimate_max_distance(24e6, 8, BlockSpec(120, 20, 20)) == 7


def test_max_distance_cache_too_small():
    assert estimate_max_distance(1000, 4, BlockSpec(120, 20, 20)) == 0


def test_max_distance_bad_input():
    with pytest.raises(ValueError):
        estimate_max_distance(8e6, 0, BlockSpec(10, 10, 10))


# ---------------------------------------------------------------------------
# team sweeps against the reference oracle
# ---------------------------------------------------------------------------

def test_degenerate_pipeline_equals_reference(oracle):
    cfg = _cfg(spec=BlockSpec(24, 8, 8), n=1, t=1, T=1)
    g0 = create_grid(24, 24, 24, init="random", seed=42)
    st = _run(g0, cfg, 4)
    assert_bitwise(st.result.interior_view(), oracle.after_sweeps(24, 42, 4))


def test_three_thread_team_equals_three_sweeps(oracle):
    cfg = _cfg(spec=BlockSpec(60, 20, 20), n=1, t=3, T=1)
    g0 = create_grid(60, 60, 60, init="random", seed=42)
    a, b = g0.copy(), g0.copy()
    PipelineEngine(cfg, (a, b)).run_passes(1)
    assert_bitwise(b.interior_view(), oracle.after_sweeps(60, 42, 3))


def test_two_teams_compressed_equals_sixteen_sweeps(oracle):
    cfg = _cfg(spec=BlockSpec(24, 8, 8), n=2, t=4, T=2, d_l=1, d_u=3,
               grid_mode="compressed")
    g0 = create_grid(24, 24, 24, init="random", seed=42)
    st = _run(g0, cfg, 2)  # h=16 per pass, 2 passes
    assert_bitwise(st.result.interior_view(), oracle.after_sweeps(24, 42, 32))
    assert st.result.alignment == 0


def test_barrier_and_relaxed_agree_bitwise():
    g0 = create_grid(20, 20, 20, init="random", seed=8)
    out = {}
    for sync in ("relaxed", "barrier"):
        cfg = _cfg(spec=BlockSpec(20, 5, 5), n=1, t=4, T=1, sync_mode=sync,
                   grid_mode="compressed")
        st = _run(g0, cfg, 2)
        out[sync] = st.result.interior_view().copy()
    assert_bitwise(out["barrier"], out["relaxed"])


def test_lockstep_distances_still_correct(oracle):
    # d_l = d_u = 1 is the rigid lockstep: slower, never wrong
    cfg = _cfg(spec=BlockSpec(24, 8, 8), n=1, t=4, T=1, d_l=1, d_u=1)
    g0 = create_grid(24, 24, 24, init="random", seed=42)
    st = _run(g0, cfg, 2)
    assert_bitwise(st.result.interior_view(), oracle.after_sweeps(24, 42, 8))


def test_result_independent_of_pipeline_shape(oracle):
    # same total update count through different (n, t, T, d_u, sync) shapes
    g0 = create_grid(20, 20, 20, init="random", seed=13)
    shapes = [
        dict(n=1, t=8, T=1, d_u=3),
        dict(n=2, t=2, T=2, d_u=1),
        dict(n=1, t=2, T=4, d_u=4, sync_mode="barrier"),
        dict(n=4, t=2, T=1, d_u=2, d_t=2),
    ]
    outs = []
    for sh in shapes:
        cfg = _cfg(spec=BlockSpec(20, 5, 5), grid_mode="compressed", **sh)
        assert cfg.h == 8
        st = _run(g0, cfg, 2)
        outs.append(st.result.interior_view().copy())
    for other in outs[1:]:
        assert_bitwise(other, outs[0])


def test_compressed_passes_must_be_even():
    cfg = _cfg(grid_mode="compressed")
    g = create_grid(12, 12, 12, pad=1)
    with pytest.raises(ValueError):
        run_pipelined(g, cfg, 3)


def test_compressed_needs_pad_at_least_h():
    cfg = _cfg(n=1, t=2, T=1, grid_mode="compressed")
    g = create_grid(12, 12, 12, pad=1)  # h = 2 > pad
    with pytest.raises(ValueError):
        run_pipelined(g, cfg, 2)


# ---------------------------------------------------------------------------
# safety instrumentation and counter traces
# ---------------------------------------------------------------------------

def test_instrumented_gaps_respect_distances():
    _needs_driver()
    cfg = _cfg(spec=BlockSpec(16, 4, 4), n=2, t=2, T=1, d_l=1, d_u=2,
               grid_mode="compressed", jitter_prob=0.05, jitter_max_s=0.0005,
               jitter_seed=99)
    g = create_grid(16, 16, 16, pad=cfg.h)
    g.interior_view()[...] = create_grid(16, 16, 16, init="random",
                                         seed=3).interior_view()
    g.capture_boundary_faces()
    st = run_pipelined(g, cfg, 2)
    assert st.pred_violations == 0
    assert st.pred_gap_min is not None and st.pred_gap_min >= cfg.d_l
    # post-increment check allows at most d_u_eff + 1 at spin entry
    assert st.succ_gap_max is not None and st.succ_gap_max <= cfg.d_u + cfg.d_t + 1


def test_spin_counts_are_reported():
    cfg = _cfg(spec=BlockSpec(16, 4, 4), n=1, t=4, T=1, grid_mode="compressed")
    g = create_grid(16, 16, 16, pad=cfg.h, init="random", seed=1)
    st = run_pipelined(g, cfg, 2)
    assert len(st.threads) == 4
    assert st.spin_iterations_total == sum(t.spins for t in st.threads)
    assert st.mlups > 0 and st.wall_seconds > 0


def test_distances_exceeding_block_count_still_drain(oracle):
    # wind-down (+= d_u + 1) must release successors even when d_l exceeds
    # the number of blocks a predecessor can ever get ahead
    cfg = _cfg(spec=BlockSpec(16, 16, 8), n=1, t=4, T=1, d_l=5, d_u=8,
               watchdog_s=10.0)
    g0 = create_grid(16, 16, 16, init="random", seed=21)
    st = _run(g0, cfg, 2)  # only 2 blocks per pass
    assert_bitwise(st.result.interior_view(), oracle.after_sweeps(16, 21, 8))


def test_window_boundaries_tile_every_level():
    from hypothesis import given, settings
    from hypothesis import strategies as st_
    from stencilpipe.pipeline import _window_boundaries

    @settings(max_examples=80, deadline=None)
    @given(n=st_.integers(4, 40), b=st_.integers(1, 40),
           delta=st_.integers(-30, 30), shrink=st_.integers(0, 3))
    def check(n, b, delta, shrink):
        b = min(b, n)
        bases = list(range(0, n, b))
        lo, hi = shrink, n - shrink
        if lo >= hi:
            return
        bounds = _window_boundaries(bases, delta, lo, hi)
        assert bounds[0] == lo and bounds[-1] == hi
        assert all(x <= y for x, y in zip(bounds, bounds[1:]))
        covered = sum(bounds[i + 1] - bounds[i] for i in range(len(bases)))
        assert covered == hi - lo  # windows tile the live range exactly

    check()


def test_oversubscribed_threads_still_correct(oracle):
    # more pipeline positions than cores: correctness must not depend on cores
    cfg = _cfg(spec=BlockSpec(16, 4, 4), n=4, t=4, T=1, d_u=3,
               grid_mode="compressed")
    g0 = create_grid(16, 16, 16, init="random", seed=42)
    st = _run(g0, cfg, 2)
    assert_bitwise(st.result.interior_view(), oracle.after_sweeps(16, 42, 32))


# ---------------------------------------------------------------------------
# the compiled pass driver and the Python walker
# ---------------------------------------------------------------------------

@pytest.fixture
def walker_calls(monkeypatch):
    """Wrap pipeline.apply_window in a pass-through that counts its calls;
    a wrapped name sends every pass through the Python walker."""
    calls = []
    real = pipeline.apply_window

    def counting(*args):
        calls.append(args[2])
        real(*args)

    monkeypatch.setattr(pipeline, "apply_window", counting)
    return calls


def _jittered_run(sync):
    cfg = _cfg(spec=BlockSpec(16, 4, 4), n=2, t=2, T=1, d_l=1, d_u=2, d_t=1,
               sync_mode=sync, grid_mode="compressed", jitter_prob=0.05,
               jitter_max_s=0.0005, jitter_seed=99)
    g = create_grid(16, 16, 16, pad=cfg.h, init="random", seed=3)
    return cfg, run_pipelined(g, cfg, 2)


@pytest.mark.parametrize("sync", ["relaxed", "barrier"])
def test_driver_and_walker_stats_agree(sync, monkeypatch):
    _needs_driver()
    monkeypatch.setattr(pipeline._Run, "walk", None)  # the first run must not walk
    cfg, driven = _jittered_run(sync)
    monkeypatch.undo()
    calls = []
    monkeypatch.setattr(pipeline, "apply_window",
                        lambda *a: calls.append(1) or kernel.apply_window(*a))
    _, walked = _jittered_run(sync)
    assert calls and sum(t.windows for t in walked.threads) == len(calls)
    assert_bitwise(walked.result.interior_view(), driven.result.interior_view())
    for st in (driven, walked):
        assert len(st.threads) == cfg.threads
        assert st.pred_violations == 0
    for t in driven.threads:
        assert 0.0 <= t.pred_wait_s <= driven.wall_seconds
        assert 0.0 <= t.succ_wait_s <= driven.wall_seconds
    if sync == "relaxed":
        assert driven.pred_gap_min >= cfg.d_l
        assert driven.succ_gap_max <= cfg.d_u + cfg.d_t + 1
    for t in walked.threads:  # one thread in block order never waits
        assert (t.spins, t.pred_wait_s, t.succ_wait_s) == (0, 0.0, 0.0)
        assert t.pred_gap_min is None and t.succ_gap_max is None
    assert driven.block_updates == walked.block_updates == 2 * cfg.threads * 16
    for d, w in zip(driven.threads, walked.threads):
        assert (d.blocks, d.windows, d.cells) == (w.blocks, w.windows, w.cells)


def _stalled_run(sync, watchdog_s, passes=1, spec=BlockSpec(12, 4, 4)):
    cfg = _cfg(spec=spec, t=2, sync_mode=sync, watchdog_s=watchdog_s)
    g = create_grid(12, 12, 12, init="random", seed=5)
    return pipeline._Run(PipelineEngine(cfg, (g, g.copy())), passes)


def _deadlock_of(run, positions, watchdog_s):
    """The PipelineDeadlock raised by running only ``positions``, asserted
    with a join deadline so that a dead watchdog fails instead of hanging."""
    errors = []

    def partial_team():
        try:
            run.run(positions)
        except PipelineDeadlock as exc:
            errors.append(exc)

    th = threading.Thread(target=partial_team, daemon=True)
    th.start()
    th.join(timeout=watchdog_s + 1.0)
    stuck = th.is_alive()
    run.abort()  # releases a thread whose watchdog never fired
    th.join(timeout=2.0)
    assert not stuck
    assert len(errors) == 1
    assert "no pipeline progress" in str(errors[0])
    return errors[0]


@pytest.mark.parametrize("sync", ["relaxed", "barrier"])
def test_rear_thread_alone_raises_deadlock(sync):
    _needs_driver()
    for passes in (1, 3):
        run = _stalled_run(sync, watchdog_s=0.3, passes=passes)
        exc = _deadlock_of(run, [1], 0.3)  # the front thread never starts
        assert "counters = [0, " in str(exc)


def test_front_thread_alone_stops_at_the_pass_boundary():
    # three blocks fit within d_u = 3, so the front finishes its first pass
    # without its successor and then waits for it at the pass boundary
    _needs_driver()
    run = _stalled_run("relaxed", watchdog_s=0.3, passes=2,
                       spec=BlockSpec(12, 12, 4))
    exc = _deadlock_of(run, [0], 0.3)
    assert "counters = [6, 0]" in str(exc)  # 3 blocks plus the wind-down
    assert run.stats[0, pipeline._BLOCKS] == 3


@pytest.mark.parametrize("sync", ["relaxed", "barrier"])
def test_abort_word_stops_a_spinning_thread(sync):
    _needs_driver()
    run = _stalled_run(sync, watchdog_s=60.0)
    assert not run.walker
    codes = []
    th = threading.Thread(target=lambda: codes.append(run.drive(1)),
                          daemon=True)
    th.start()
    time.sleep(0.2)
    assert th.is_alive()  # waiting for a predecessor that never moves
    run.abort()
    th.join(timeout=2.0)
    assert not th.is_alive()
    assert codes == [pipeline._ABORTED]


@pytest.mark.parametrize("sync", ["relaxed", "barrier"])
def test_walker_reraises_kernel_error(sync, monkeypatch):
    lock, calls = threading.Lock(), []

    def failing(*args):
        with lock:
            calls.append(1)
            if len(calls) == 7:
                raise RuntimeError("injected kernel fault")
        kernel.apply_window(*args)

    monkeypatch.setattr(pipeline, "apply_window", failing)
    cfg = _cfg(spec=BlockSpec(16, 4, 4), t=4, sync_mode=sync,
               grid_mode="compressed", watchdog_s=20.0)
    g = create_grid(16, 16, 16, pad=cfg.h, init="random", seed=4)
    with pytest.raises(RuntimeError, match="injected kernel fault"):
        run_pipelined(g, cfg, 2)  # a hang would end in PipelineDeadlock


def test_wrapped_apply_window_is_called_and_bitwise(walker_calls, oracle):
    cfg = _cfg(spec=BlockSpec(16, 4, 4), n=1, t=3, T=2, grid_mode="compressed")
    g0 = create_grid(16, 16, 16, init="random", seed=42)
    st = _run(g0, cfg, 2)
    assert_bitwise(st.result.interior_view(), oracle.after_sweeps(16, 42, 12))
    assert walker_calls
    assert sum(t.windows for t in st.threads) == len(walker_calls)
    assert sum(t.cells for t in st.threads) == 16 ** 3 * 12


def test_walker_follows_the_work_table_block_by_block(monkeypatch):
    # t=3 positions of T=2 levels walk as one position of h=6: block-major,
    # then by level; the destination offset names the level in compressed mode
    cfg = _cfg(spec=BlockSpec(12, 4, 4), t=3, T=2, grid_mode="compressed")
    g = create_grid(12, 12, 12, pad=cfg.h, init="random", seed=10)
    base = g.origin - g.alignment
    calls = []
    monkeypatch.setattr(pipeline, "apply_window", lambda *a: calls.append(
        (a[2], a[4])) or kernel.apply_window(*a))
    engine = PipelineEngine(cfg, g)
    engine.run_passes(2)
    expected = []
    for d in (1, -1):  # a forward pass, then a backward one
        for xl, xh, yl, yh, zl, zh, u, _sides in (
                engine.work_table(d).reshape(-1, 8).tolist()):
            if xl < xh and yl < yh and zl < zh:
                expected.append((((xl, xh), (yl, yh), (zl, zh)), base - d * u))
        base -= d * cfg.h
    assert calls == expected


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
def test_frames_beyond_the_arrays_raise(walk, request):
    # the compiled driver checks no bounds: Python checks the frames first
    if walk:
        request.getfixturevalue("walker_calls")
    cfg = _cfg(spec=BlockSpec(12, 4, 4), t=2, grid_mode="compressed")
    g = create_grid(12, 12, 12, pad=cfg.h, init="random", seed=6)
    g.alignment = g.pad + 1  # one cell beyond the head room
    engine = PipelineEngine(cfg, g)
    engine.passes_done = 1  # the next pass runs backward
    with pytest.raises(ValueError, match="leave"):
        engine.run_passes(1)


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
@pytest.mark.parametrize("sync", ["relaxed", "barrier"])
def test_finished_run_frees_its_grid_without_gc(sync, walk, request):
    # a reference cycle would hold every run's grids until a collection
    if walk:
        request.getfixturevalue("walker_calls")
    cfg = _cfg(spec=BlockSpec(12, 4, 4), t=2, sync_mode=sync,
               grid_mode="compressed")
    g = create_grid(12, 12, 12, pad=cfg.h, init="random", seed=8)
    alive = weakref.ref(g)
    gc.disable()
    try:
        run_pipelined(g, cfg, 2)
        del g
        assert alive() is None
    finally:
        gc.enable()


def test_oversubscribed_walker_under_fast_switching(walker_calls, oracle):
    # 16 positions walked in one thread while CPython switches as often as
    # it allows: the walk must not depend on thread scheduling
    cfg = _cfg(spec=BlockSpec(16, 4, 4), n=4, t=4, T=1, d_u=2,
               grid_mode="compressed", watchdog_s=60.0)
    g0 = create_grid(16, 16, 16, init="random", seed=43)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        st = _run(g0, cfg, 2)
    finally:
        sys.setswitchinterval(interval)
    assert_bitwise(st.result.interior_view(), oracle.after_sweeps(16, 43, 32))
    assert st.pred_violations == 0


# ---------------------------------------------------------------------------
# multi-pass runs: one call per thread, a barrier between passes
# ---------------------------------------------------------------------------

def _tail_delays(self):
    """Delays on the last two blocks of every pass, longest on the rear
    position: a pass that began before the one before had ended everywhere
    would read unfinished data here."""
    delays = np.zeros((self.count, self.nt, self.nblocks))
    delays[:, :, -2:] = 0.001
    delays[:, -1, -2:] = 0.003
    return delays


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
@pytest.mark.parametrize("sync", ["relaxed", "barrier"])
@pytest.mark.parametrize("mode,passes", [("two_grid", 2), ("two_grid", 3),
                                         ("two_grid", 4), ("compressed", 2),
                                         ("compressed", 4)])
def test_multi_pass_run_equals_reference(mode, passes, sync, walk, request,
                                         monkeypatch, oracle):
    if walk:
        request.getfixturevalue("walker_calls")
    monkeypatch.setattr(pipeline._Run, "_jitter_delays", _tail_delays)
    cfg = _cfg(spec=BlockSpec(16, 4, 4), t=3, T=1, d_l=1, d_u=2,
               sync_mode=sync, grid_mode=mode)
    g0 = create_grid(16, 16, 16, init="random", seed=44)
    st = _run(g0, cfg, passes)
    assert_bitwise(st.result.interior_view(),
                   oracle.after_sweeps(16, 44, cfg.h * passes))
    assert st.passes == passes and st.pred_violations == 0
    assert st.block_updates == passes * cfg.threads * 16


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
@pytest.mark.parametrize("t", [1, 2, 3])
def test_one_thread_per_position_per_run(t, walk, request, monkeypatch):
    if walk:
        request.getfixturevalue("walker_calls")
    started = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    cfg = _cfg(spec=BlockSpec(12, 4, 4), t=t)
    g0 = create_grid(12, 12, 12, init="random", seed=9)
    st = _run(g0, cfg, 4)
    assert st.passes == 4
    walker = walk or kernel.BACKEND != "c"  # the walker starts no thread
    assert len(started) == (t if t > 1 and not walker else 0)


def test_abort_in_the_second_pass_stops_every_thread():
    _needs_driver()
    cfg = _cfg(spec=BlockSpec(16, 4, 4), t=2, watchdog_s=60.0,
               jitter_prob=1.0, jitter_max_s=0.004)
    g = create_grid(16, 16, 16, init="random", seed=5)
    run = pipeline._Run(PipelineEngine(cfg, (g, g.copy())), 4)
    errors = []

    def whole_team():
        try:
            run.run(range(2))
        except PipelineDeadlock as exc:
            errors.append(exc)

    th = threading.Thread(target=whole_team, daemon=True)
    th.start()
    deadline = time.monotonic() + 10.0
    while run.stats[:, pipeline._BLOCKS].min() <= 16:  # both in pass 2
        assert th.is_alive() and time.monotonic() < deadline
        time.sleep(0.001)
    run.abort()
    th.join(timeout=2.0)
    assert not th.is_alive()
    assert len(errors) == 1 and "aborted" in str(errors[0])
    assert run.stats[:, pipeline._BLOCKS].max() <= 2 * 16


def test_kernel_error_in_the_second_pass_ends_the_run(monkeypatch):
    lock, calls = threading.Lock(), []
    cfg = _cfg(spec=BlockSpec(16, 4, 4), t=3, grid_mode="compressed",
               watchdog_s=20.0)
    per_pass = 16 * cfg.h  # every window of a 16^3 grid is nonempty here

    def failing(*args):
        with lock:
            calls.append(1)
            if len(calls) == per_pass + 5:
                raise RuntimeError("injected kernel fault")
        kernel.apply_window(*args)

    monkeypatch.setattr(pipeline, "apply_window", failing)
    g = create_grid(16, 16, 16, pad=cfg.h, init="random", seed=4)
    errors = []

    def run():
        try:
            run_pipelined(g, cfg, 4)
        except RuntimeError as exc:
            errors.append(exc)

    th = threading.Thread(target=run, daemon=True)
    th.start()
    th.join(timeout=10.0)
    assert not th.is_alive()  # every pipeline thread was joined
    assert [str(e) for e in errors] == ["injected kernel fault"]
    assert len(calls) < 2 * per_pass


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
def test_one_call_of_passes_equals_one_call_per_pass(mode, walk, request):
    # live ranges shrink on the high y side, as on a rank with a neighbour
    # there: the last level's ring strips then miss part of the ring that
    # the next pass's first level reads, and only the full restore at each
    # pass start puts it back
    if walk:
        request.getfixturevalue("walker_calls")
    cfg = _cfg(spec=BlockSpec(12, 4, 4), t=2, T=2, grid_mode=mode)
    g0 = create_grid(12, 12, 12, pad=cfg.h, init="random", seed=12)
    engines = []
    for calls in ([4], [1, 1, 1, 1]):
        g = g0.copy()
        engine = PipelineEngine(cfg, g if mode == "compressed" else (g, g.copy()),
                                neighbors=((False, False), (False, True),
                                           (False, False)))
        for count in calls:
            engine.run_passes(count)
        engines.append(engine)
    for a, b in zip(engines[0].grids, engines[1].grids):
        assert a.alignment == b.alignment == 0
        assert_bitwise(a.data, b.data)


def _faces_reference(g0, levels):
    """The interior of g0 after each of 0..levels Jacobi updates on a grid
    pair whose whole Dirichlet ring is rewritten from g0's faces before every
    level."""
    a, b = g0.copy(), g0.copy()
    whole = tuple((0, n) for n in g0.shape)
    off = a.origin - a.alignment
    out = [a.interior_view().copy()]
    for _ in range(levels):
        kernel.write_ring_strips(a.data, g0.faces, whole, off, 0b111111,
                                 g0.shape)
        kernel._apply_window_numpy(a.data, b.data, whole, off, off)
        a, b = b, a
        out.append(a.interior_view().copy())
    return out


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
def test_compressed_ring_restored_at_each_pass_start(walk, request):
    # a rank with neighbours on the high x and low y sides: live ranges
    # shrink there, one pass per cycle, and the halo is refreshed between
    # passes.  The y ring next to the refreshed x halo is written by no strip
    # of the pass before; only the restore at the pass start puts the face
    # values back (a zero ring would match the zero pad by accident)
    if walk:
        request.getfixturevalue("walker_calls")
    cfg = _cfg(spec=BlockSpec(8, 4, 4), t=2, T=2, grid_mode="compressed")
    h, (nx, ny, nz) = cfg.h, (16, 12, 10)
    g0 = create_grid(nx, ny, nz)
    g0.data[...] = np.random.default_rng(21).random(g0.data.shape) + 1.0
    g0.capture_boundary_faces()
    g = create_grid(nx, ny, nz, pad=h)
    o = g.origin
    g.data[o - 1:o + nz + 1, o - 1:o + ny + 1, o - 1:o + nx + 1] = g0.data
    g.capture_boundary_faces()

    engine = PipelineEngine(cfg, g, neighbors=((False, True), (True, False),
                                               (False, False)))
    owned = (slice(None), slice(h, ny), slice(0, nx - h))  # (z, y, x)
    cycles = 4
    expected = _faces_reference(g0, cycles * h)
    for c in range(1, cycles + 1):
        engine.run_passes(1)
        iv, want = g.interior_view(), expected[c * h]
        assert_bitwise(iv[owned], want[owned])
        keep = iv[owned].copy()  # the neighbours' halo exchange
        iv[...] = want
        iv[owned] = keep
    assert g.alignment == 0


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
@pytest.mark.parametrize("case", ["never_captured", "strided", "float32",
                                  "wrong_shape"])
def test_compressed_run_rejects_unusable_faces(case, walk, request,
                                               monkeypatch):
    # the driver reads the faces by raw pointer: each face the run uses must
    # be a C-contiguous float64 array of the face's shape, checked before
    # any thread starts or any cell is written
    if walk:
        request.getfixturevalue("walker_calls")
    cfg = _cfg(t=2, grid_mode="compressed")
    g = Grid3(12, 12, 12, pad=cfg.h)
    g.data[...] = 1.0
    if case != "never_captured":
        g.capture_boundary_faces()
        bad = {"strided": np.ones((12, 24))[:, ::2],
               "float32": np.ones((12, 12), dtype=np.float32),
               "wrong_shape": np.ones((12, 11))}[case]
        g.faces = g.faces[:3] + (bad,) + g.faces[4:]
    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self))
    with pytest.raises(ValueError, match="boundary face [03]"):
        run_pipelined(g, cfg, 2)
    assert not started and np.all(g.data == 1.0)


def test_a_side_with_a_neighbour_needs_no_face():
    cfg = _cfg(t=2, grid_mode="compressed")
    g = create_grid(12, 12, 12, pad=cfg.h)
    g.faces = g.faces[:3] + (None,) + g.faces[4:]  # bit 3: y high
    PipelineEngine(cfg, g, neighbors=((False, False), (False, True),
                                      (False, False))).run_passes(2)
    assert g.alignment == 0


@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
@pytest.mark.parametrize("direction", [1, -1])
def test_work_table_matches_a_plain_build(mode, direction):
    # truncated last blocks on every axis, live ranges shrinking on the low
    # x and high z sides as on a rank with neighbours there
    dims, spec = (13, 10, 7), BlockSpec(5, 4, 3)
    cfg = _cfg(spec=spec, t=2, T=2, grid_mode=mode)
    nbs = ((True, False), (False, False), (False, True))

    def live(ax, u):
        lo, hi = nbs[ax]
        return (u if lo else 0, dims[ax] - (u if hi else 0))

    g = create_grid(*dims, pad=cfg.h)
    engine = PipelineEngine(cfg, g if mode == "compressed" else (g, g.copy()),
                            neighbors=nbs)
    plan = decompose_blocks(g, spec, direction)
    expected = []
    for base, _size in plan.blocks:
        rows = []
        for u in range(1, cfg.h + 1):
            delta = -u if direction == 1 else u
            row, mask = [], 0
            for ax in range(3):
                live_lo, live_hi = live(ax, u)
                axis = plan.bases[ax]
                i = axis.index(base[ax])
                lo = live_lo if i == 0 else min(max(axis[i] + delta, live_lo), live_hi)
                hi = (live_hi if i == len(axis) - 1
                      else min(max(axis[i + 1] + delta, live_lo), live_hi))
                row += [lo, hi]
                if mode == "compressed":
                    mask |= (lo == live_lo and not nbs[ax][0]) << 2 * ax
                    mask |= (hi == live_hi and not nbs[ax][1]) << 2 * ax + 1
            rows.append(row + [u, mask])
        expected.append(rows)
    assert engine.work_table(direction).tolist() == expected

import gc
import hashlib
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
    reference_sweep,
    run_pipelined,
)
from stencilpipe.grid import decompose_blocks, fill_field
from tests.conftest import assert_bitwise, install_jitter


def _cfg(**kw):
    kw.setdefault("spec", BlockSpec(12, 4, 4))
    return PipelineConfig(**kw)


def _run(g0, cfg, passes):
    g = create_grid(*g0.shape, pad=cfg.pad)
    g.interior_view()[...] = g0.interior_view()
    return run_pipelined(g, cfg, passes)


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


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
def test_odd_compressed_pass_count_equals_reference(walk, request, oracle):
    # the result is read where the last forward pass left the frame, at
    # alignment h; a new run would start forward from there and leave the pad
    if walk:
        request.getfixturevalue("walker_calls")
    cfg = _cfg(spec=BlockSpec(12, 4, 4), t=2, grid_mode="compressed")
    g0 = create_grid(12, 12, 12, init="random", seed=12)
    st = _run(g0, cfg, 3)
    assert_bitwise(st.result.interior_view(),
                   oracle.after_sweeps(12, 12, 3 * cfg.h))
    assert st.result.alignment == cfg.h
    with pytest.raises(ValueError, match="leave"):
        run_pipelined(st.result, cfg, 1)


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
def test_two_grid_pair_runs_at_its_alignment(walk, request, oracle):
    # a pair shifted one cell into its pad: the frame is origin - alignment,
    # where interior_view reads; h = 3 and 3 passes end on the second grid
    if walk:
        request.getfixturevalue("walker_calls")
    cfg = _cfg(spec=BlockSpec(12, 4, 4), t=3)
    a = Grid3(12, 12, 12, pad=1, alignment=1)
    fill_field(a, "random", seed=14)
    pair = (a, a.copy())
    st = run_pipelined(pair, cfg, 3)
    assert st.result is pair[1]
    assert [g.alignment for g in pair] == [1, 1]
    assert_bitwise(st.result.interior_view(),
                   oracle.after_sweeps(12, 14, 3 * cfg.h))


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
def test_pair_of_unequal_alignments_is_rejected(walk, request):
    if walk:
        request.getfixturevalue("walker_calls")
    a = create_grid(12, 12, 12, pad=1, init="random", seed=15)
    b = a.copy()
    b.alignment = 1
    with pytest.raises(ValueError, match="alignment"):
        run_pipelined((a, b), _cfg(t=2), 2)


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
def test_a_two_grid_engine_given_one_grid_makes_its_pair(walk, request):
    # the second grid has storage of its own and the first's cells; the run
    # is byte for byte the one given the pair
    if walk:
        request.getfixturevalue("walker_calls")
    cfg = _cfg(spec=BlockSpec(8, 4, 4), t=2, T=2)
    g0 = create_grid(16, 12, 10, init="random_ring", seed=17)
    g = g0.copy()
    engine = PipelineEngine(cfg, g)
    a, b = engine.grids
    assert a is g and b is not g and not np.may_share_memory(a.data, b.data)
    assert (b.shape, b.pad, b.alignment) == (g.shape, g.pad, g.alignment)
    assert_bitwise(b.data, g.data)
    engine.run_passes(3)
    paired = PipelineEngine(cfg, (g0, g0.copy()))
    paired.run_passes(3)
    for mine, theirs in zip(engine.grids, paired.grids):
        assert mine.data.tobytes() == theirs.data.tobytes()


@pytest.mark.parametrize("pair", ["same_grid", "same_data", "overlapping"])
def test_a_pair_that_shares_storage_is_refused_at_build(pair):
    # two grids over one array would read the level they write: the run
    # would finish and be wrong, so the engine refuses to be built
    g = create_grid(16, 16, 16, init="random", seed=18)
    if pair == "same_grid":
        grids = (g, g)
    elif pair == "same_data":
        grids = (g, Grid3(16, 16, 16, data=g.data))
    else:
        flat = np.zeros(g.data.size + 1)
        grids = [Grid3(16, 16, 16, data=flat[i:i + g.data.size].reshape(
            g.data.shape)) for i in (0, 1)]
    cfg = _cfg(spec=BlockSpec(16, 8, 8), t=2)
    with pytest.raises(ValueError, match="share storage"):
        PipelineEngine(cfg, grids)
    with pytest.raises(ValueError, match="share storage"):
        run_pipelined(grids, cfg, 1)


@pytest.mark.parametrize("mode,read_only", [
    ("compressed", 0), ("two_grid", 0), ("two_grid", 1)])
def test_a_read_only_array_is_refused_at_build(mode, read_only, monkeypatch):
    # levels write every array of the run, in two-grid mode both of the pair
    def no_run(*_args):
        raise AssertionError("a run started")

    monkeypatch.setattr(PipelineEngine, "run_pass", no_run)
    cfg = _cfg(spec=BlockSpec(12, 4, 4), t=2, grid_mode=mode)
    g = create_grid(12, 12, 12, pad=cfg.pad, init="random", seed=19)
    grids = [g] if mode == "compressed" else [g, g.copy()]
    grids[read_only].data.flags.writeable = False
    with pytest.raises(ValueError, match="read-only"):
        PipelineEngine(cfg, grids)


def test_compressed_needs_pad_at_least_h():
    cfg = _cfg(n=1, t=2, T=1, grid_mode="compressed")
    g = create_grid(12, 12, 12, pad=1)  # h = 2 > pad
    with pytest.raises(ValueError):
        run_pipelined(g, cfg, 2)


# ---------------------------------------------------------------------------
# safety instrumentation and counter traces
# ---------------------------------------------------------------------------

def test_instrumented_gaps_respect_distances(monkeypatch):
    _needs_driver()
    install_jitter(monkeypatch, 0.05, 0.0005, seed=99)
    cfg = _cfg(spec=BlockSpec(16, 4, 4), n=2, t=2, T=1, d_l=1, d_u=2,
               grid_mode="compressed")
    g = create_grid(16, 16, 16, pad=cfg.h)
    g.interior_view()[...] = create_grid(16, 16, 16, init="random",
                                         seed=3).interior_view()
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
               sync_mode=sync, grid_mode="compressed")
    g = create_grid(16, 16, 16, pad=cfg.h, init="random", seed=3)
    return cfg, run_pipelined(g, cfg, 2)


@pytest.mark.parametrize("sync", ["relaxed", "barrier"])
def test_driver_and_walker_stats_agree(sync, monkeypatch):
    _needs_driver()
    # the first run must not walk
    monkeypatch.setattr(pipeline.PipelineEngine, "_walk", None)
    install_jitter(monkeypatch, 0.05, 0.0005, seed=99)
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


def _stalled_engine(sync, watchdog_s, spec=BlockSpec(12, 4, 4)):
    cfg = _cfg(spec=spec, t=2, sync_mode=sync, watchdog_s=watchdog_s)
    g = create_grid(12, 12, 12, init="random", seed=5)
    return PipelineEngine(cfg, (g, g.copy()))


def _run_in_thread(engine, passes, positions):
    """A thread running ``positions`` of the team through the engine's
    private run entry, and the list that receives its PipelineDeadlock."""
    errors = []

    def team():
        try:
            engine._drive(engine._plan(passes), positions)
        except PipelineDeadlock as exc:
            errors.append(exc)

    th = threading.Thread(target=team, daemon=True)
    th.start()
    return th, errors


def _deadlock_of(engine, passes, positions, watchdog_s):
    """The PipelineDeadlock raised by running only ``positions``, asserted
    with a join deadline so that a dead watchdog fails instead of hanging."""
    th, errors = _run_in_thread(engine, passes, positions)
    th.join(timeout=watchdog_s + 1.0)
    stuck = th.is_alive()
    engine.abort()  # releases a thread whose watchdog never fired
    th.join(timeout=2.0)
    assert not stuck
    assert len(errors) == 1
    assert "no pipeline progress" in str(errors[0])
    return errors[0]


def _abort_of(engine, passes, positions):
    """The PipelineDeadlock raised by running only ``positions`` when the
    engine is aborted while they wait for a position that never moves."""
    th, errors = _run_in_thread(engine, passes, positions)
    time.sleep(0.2)
    assert th.is_alive()  # waiting for a predecessor that never moves
    engine.abort()
    th.join(timeout=2.0)
    assert not th.is_alive()
    assert len(errors) == 1
    assert "run aborted" in str(errors[0])
    return errors[0]


@pytest.mark.parametrize("sync", ["relaxed", "barrier"])
def test_rear_thread_alone_raises_deadlock(sync):
    _needs_driver()
    for passes in (1, 3):
        engine = _stalled_engine(sync, watchdog_s=0.3)
        exc = _deadlock_of(engine, passes, [1], 0.3)  # the front never starts
        assert "counters = [0, " in str(exc)


def test_front_thread_alone_stops_at_the_pass_boundary():
    # three blocks fit within d_u = 3, so the front finishes its first pass
    # without its successor and then waits for it at the pass boundary
    _needs_driver()
    engine = _stalled_engine("relaxed", watchdog_s=0.3,
                             spec=BlockSpec(12, 12, 4))
    exc = _deadlock_of(engine, 2, [0], 0.3)
    assert "counters = [6, 0]" in str(exc)  # 3 blocks plus the wind-down
    assert engine.stats[0, pipeline._BLOCKS] == 3


@pytest.mark.parametrize("sync", ["relaxed", "barrier"])
def test_abort_word_stops_a_spinning_thread(sync):
    _needs_driver()
    engine = _stalled_engine(sync, watchdog_s=60.0)
    _abort_of(engine, 1, [1])
    assert engine.stats[1, pipeline._SPINS] > 0
    assert engine.stats[1, pipeline._BLOCKS] == 0


@pytest.mark.parametrize("failure", ["deadlock", "abort"])
@pytest.mark.parametrize("sync", ["relaxed", "barrier"])
def test_engine_runs_again_after_a_failed_partial_run(failure, sync, oracle):
    # the failed run leaves a counter moved or the barrier count short, the
    # abort word set and the stats filled: the next run resets every one
    _needs_driver()
    engine = _stalled_engine(sync, watchdog_s=0.3 if failure == "deadlock"
                             else 60.0, spec=BlockSpec(12, 12, 4))
    initial = [g.data.copy() for g in engine.grids]
    if failure == "deadlock":
        _deadlock_of(engine, 2, [0], 0.3)  # the front runs a block or a pass
        assert engine.counters[0] > 0
    else:
        _abort_of(engine, 2, [1])
    assert engine.ctl[pipeline._CTL_ABORT] == 1
    for g, data in zip(engine.grids, initial):
        g.data[...] = data  # undo what the front wrote
    st = engine.run_passes(2)
    assert_bitwise(engine.current_grid().interior_view(),
                   oracle.after_sweeps(12, 5, 2 * engine.cfg.h))
    assert [t.blocks for t in st.threads] == [2 * 3] * engine.cfg.threads
    assert st.pred_violations == 0


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
# multi-pass runs: one call per run, a barrier between passes
# ---------------------------------------------------------------------------

def _tail_delays(engine, count):
    """Delays on the last two blocks of every pass, longest on the rear
    position: a pass that began before the one before had ended everywhere
    would read unfinished data here."""
    delays = np.zeros((count, engine.cfg.threads, engine.plan.total_blocks))
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
    monkeypatch.setattr(pipeline.PipelineEngine, "_delays", _tail_delays)
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
    # the compiled driver starts and joins the threads of the positions
    # after the first itself, and the walker starts none: no run starts a
    # Python thread
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
    assert st.passes == 4 and not started
    assert [th.blocks for th in st.threads] == [4 * 9] * t


# only the walker runs Python code in a position, so only it can raise there
@pytest.mark.parametrize("walk", [True], ids=["walker"])
def test_error_in_the_calling_threads_position_aborts_the_others(
        walk, monkeypatch):
    # positions 1 and 2 would wait for a front position that never moves:
    # the run must end soon, not after the 60 s watchdog
    def failing(*args):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(pipeline, "apply_window", failing)
    cfg = _cfg(spec=BlockSpec(16, 4, 4), t=3, watchdog_s=60.0)
    g = create_grid(16, 16, 16, init="random", seed=16)
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="injected fault"):
        run_pipelined((g, g.copy()), cfg, 2)
    assert time.monotonic() - t0 < 5.0


def test_abort_in_the_second_pass_stops_every_thread(monkeypatch):
    _needs_driver()
    install_jitter(monkeypatch, 1.0, 0.004)
    cfg = _cfg(spec=BlockSpec(16, 4, 4), t=2, watchdog_s=60.0)
    g = create_grid(16, 16, 16, init="random", seed=5)
    engine = PipelineEngine(cfg, (g, g.copy()))
    th, errors = _run_in_thread(engine, 4, range(2))
    deadline = time.monotonic() + 10.0
    while engine.stats[:, pipeline._BLOCKS].min() <= 16:  # both in pass 2
        assert th.is_alive() and time.monotonic() < deadline
        time.sleep(0.001)
    engine.abort()
    th.join(timeout=2.0)
    assert not th.is_alive()
    assert len(errors) == 1 and "aborted" in str(errors[0])
    assert engine.stats[:, pipeline._BLOCKS].max() <= 2 * 16


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
    g0 = create_grid(12, 12, 12, pad=cfg.pad, init="random", seed=12)
    engines = []
    for calls in ([4], [1, 1, 1, 1]):
        engine = PipelineEngine(cfg, g0.copy(),
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
    faces = g0.capture_boundary_faces()
    out = [a.interior_view().copy()]
    for _ in range(levels):
        kernel.write_ring_strips(a.data, faces, whole, off, 0b111111,
                                 g0.shape)
        kernel._apply_window_numpy(a.data, b.data, whole, off, off)
        a, b = b, a
        out.append(a.interior_view().copy())
    return out


def _ringed_pair(dims, pad):
    """A grid with a nonzero Dirichlet ring unlike the zero pad below it, and
    its copy with that pad."""
    g0 = create_grid(*dims)
    g0.data[...] = np.random.default_rng(21).random(g0.data.shape) + 1.0
    g = create_grid(*dims, pad=pad)
    o, (nx, ny, nz) = g.origin, dims
    g.data[o - 1:o + nz + 1, o - 1:o + ny + 1, o - 1:o + nx + 1] = g0.data
    return g0, g


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
    g0, g = _ringed_pair((nx, ny, nz), h)
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
def test_compressed_run_without_neighbours_keeps_its_ring(walk, request):
    # with no neighbour, no pass restores the whole ring: the first reads
    # the ring the engine's faces were read from, a later one the ring that
    # the strips of the last level before it wrote.  Check both: one call of
    # 5 passes against the oracle, and the ring at the grid's frame after
    # each single pass
    if walk:
        request.getfixturevalue("walker_calls")
    cfg = _cfg(spec=BlockSpec(8, 4, 4), t=2, T=2, grid_mode="compressed")
    dims, passes = (16, 12, 10), 5
    g0, g = _ringed_pair(dims, cfg.h)
    expected = _faces_reference(g0, passes * cfg.h)
    engine = PipelineEngine(cfg, g)
    engine.run_passes(passes)
    assert g.alignment == cfg.h
    assert_bitwise(g.interior_view(), expected[-1])
    for face, want in zip(g.capture_boundary_faces(), engine.faces):
        assert_bitwise(face, want)

    _, g = _ringed_pair(dims, cfg.h)
    engine = PipelineEngine(cfg, g)
    for q in range(1, passes + 1):
        engine.run_passes(1)
        assert_bitwise(g.interior_view(), expected[q * cfg.h])
        for face, want in zip(g.capture_boundary_faces(), engine.faces):
            assert_bitwise(face, want)


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
def test_back_to_back_compressed_runs_keep_the_ring(walk, request):
    # each run_pipelined call builds a new engine, which reads its faces
    # from the ring at the frame the run before left: 2 passes end at
    # alignment 0, 4 more at 0 again, 3 more at h
    if walk:
        request.getfixturevalue("walker_calls")
    cfg = _cfg(spec=BlockSpec(8, 4, 4), t=2, T=2, grid_mode="compressed")
    dims, seed = (16, 12, 10), 9
    g = create_grid(*dims, pad=cfg.h, init="random_ring", seed=seed)
    expected = create_grid(*dims, init="random_ring", seed=seed)
    scratch = expected.copy()
    for passes in (2, 4, 3):
        st = run_pipelined(g, cfg, passes)
        for _ in range(cfg.h * passes):
            reference_sweep(expected, scratch)
            expected, scratch = scratch, expected
        assert st.result is g
        assert_bitwise(g.interior_view(), expected.interior_view())
    assert g.alignment == cfg.h


@pytest.mark.parametrize("at_h", [False, True],
                         ids=["alignment_0", "alignment_h"])
def test_engine_faces_are_the_ring_when_it_is_built(at_h):
    cfg = _cfg(spec=BlockSpec(8, 4, 4), t=2, T=2, grid_mode="compressed")
    alignment = cfg.h if at_h else 0
    g = Grid3(16, 12, 10, pad=cfg.h, alignment=alignment)
    fill_field(g, "random_ring", seed=10)
    (nx, ny, nz), o = g.shape, g.origin - alignment
    ring = g.data[o - 1:o + nz + 1, o - 1:o + ny + 1, o - 1:o + nx + 1]
    engine = PipelineEngine(cfg, g)
    inner = (slice(1, -1),) * 3
    want = []
    for axis in range(3):  # (x, y, z), each low then high, as bit order
        for at in (0, -1):
            idx = list(inner)
            idx[2 - axis] = at
            want.append(ring[tuple(idx)])
    assert len(engine.faces) == 6
    for face, expected in zip(engine.faces, want):
        assert face.flags.c_contiguous and face.dtype == np.float64
        assert not np.shares_memory(face, g.data)
        assert_bitwise(face, expected)
    assert np.all(np.concatenate([f.ravel() for f in want]) >= 1.0)


def test_an_engine_with_no_ring_side_reads_no_faces():
    cfg = _cfg(t=2, grid_mode="compressed")
    g = create_grid(12, 12, 12, pad=cfg.h)
    assert PipelineEngine(cfg, g, neighbors=((True, True),) * 3).faces == ()
    two = _cfg(t=2)
    assert PipelineEngine(two, (g, g.copy())).faces == ()


@pytest.mark.parametrize("neighbors,restores", [
    (((False, False),) * 3, 0),
    (((False, False), (False, True), (False, False)), 4)],
    ids=["no_neighbour", "one_neighbour"])
def test_whole_ring_restores_per_run(neighbors, restores, walker_calls,
                                     monkeypatch):
    # a 4-pass run rewrites its ring sides in full before every pass when
    # some side borders a neighbour, and before none when no side does
    calls = []
    real = pipeline.write_ring_strips

    def counting(dst, faces, window, dst_off, sides, dims):
        calls.append((window, sides))
        real(dst, faces, window, dst_off, sides, dims)

    monkeypatch.setattr(pipeline, "write_ring_strips", counting)
    cfg = _cfg(spec=BlockSpec(8, 4, 4), t=2, T=2, grid_mode="compressed")
    g = create_grid(16, 12, 10, pad=cfg.h, init="random_ring", seed=8)
    engine = PipelineEngine(cfg, g, neighbors=neighbors)
    engine.run_passes(4)
    whole = tuple((0, n) for n in g.shape)
    assert [sides for window, sides in calls if window == whole] == \
        [engine.ring] * restores
    assert walker_calls and g.alignment == 0


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
def test_a_new_engine_on_a_changed_ring_reads_the_new_values(walk, request):
    # Dirichlet values are fixed when an engine is built: after a run, the
    # ring at the grid's frame is given other values, and the strips of a
    # new engine on the grid must write those
    if walk:
        request.getfixturevalue("walker_calls")
    cfg = _cfg(spec=BlockSpec(8, 4, 4), t=2, T=2, grid_mode="compressed")
    g0, g = _ringed_pair((16, 12, 10), cfg.h)
    old = PipelineEngine(cfg, g)
    old.run_passes(2)
    g1 = g0.copy()  # g's interior now, in a ring of new values
    g1.data[...] = np.random.default_rng(22).random(g1.data.shape) + 3.0
    g1.interior_view()[...] = g.interior_view()
    o, p = g1.origin, g.origin - g.alignment
    nx, ny, nz = g.shape
    g.data[p - 1:p + nz + 1, p - 1:p + ny + 1, p - 1:p + nx + 1] = \
        g1.data[o - 1:o + nz + 1, o - 1:o + ny + 1, o - 1:o + nx + 1]
    engine = PipelineEngine(cfg, g)
    assert not any(np.array_equal(a, b)
                   for a, b in zip(old.faces, engine.faces))
    engine.run_passes(1)
    assert_bitwise(g.interior_view(), _faces_reference(g1, cfg.h)[-1])


@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
@pytest.mark.parametrize("direction", [1, -1])
def test_work_table_matches_a_plain_build(mode, direction):
    # short last blocks on x and y, a last block of 4 (3 + 1) on z, live
    # ranges shrinking on the low x and high z sides as on a rank with
    # neighbours there
    dims, spec = (13, 10, 7), BlockSpec(5, 4, 3)
    cfg = _cfg(spec=spec, t=2, T=2, grid_mode=mode)
    nbs = ((True, False), (False, False), (False, True))

    def live(ax, u):
        lo, hi = nbs[ax]
        return (u if lo else 0, dims[ax] - (u if hi else 0))

    g = create_grid(*dims, pad=cfg.pad)
    engine = PipelineEngine(cfg, g, neighbors=nbs)
    plan = decompose_blocks(g, spec)
    expected = []
    for base, _size in plan.blocks[::direction]:
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


def _planned(mode, done, count, T=1, neighbors=((False, False),) * 3):
    """An engine after ``done`` passes and the plan of its next run of
    ``count``, not started; h = T, so an odd T gives an odd h."""
    cfg = _cfg(spec=BlockSpec(12, 4, 4), T=T, grid_mode=mode)
    g = create_grid(12, 12, 12, pad=cfg.pad, init="random_ring", seed=11)
    if mode == "compressed" and done % 2:
        g.alignment = cfg.h  # where a forward pass left it
    engine = PipelineEngine(cfg, g, neighbors=neighbors)
    engine.passes_done = done
    return engine, engine._plan(count)


@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
@pytest.mark.parametrize("done", [0, 3])
def test_plan_directions_alternate_from_the_pass_count(mode, done):
    _engine, plan = _planned(mode, done, 5)
    assert plan[:, pipeline._DIR].tolist() == \
        [1 if (done + q) % 2 == 0 else -1 for q in range(5)]


@pytest.mark.parametrize("T", [2, 3])
@pytest.mark.parametrize("done", [0, 1, 4])
def test_two_grid_plan_parity_grows_by_h(T, done):
    engine, plan = _planned("two_grid", done, 5, T=T)
    parity = plan[:, pipeline._PARITY].tolist()
    assert engine.grids[parity[0]] is engine.current_grid()
    assert parity == [(parity[0] + q * T) % 2 for q in range(5)]


@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
@pytest.mark.parametrize("done", [0, 3])
def test_plan_passes_start_where_the_one_before_ended(mode, done):
    engine, plan = _planned(mode, done, 5, T=3)
    h, g = engine.cfg.h, engine.grids[0]
    dirs, base, shift = (plan[:, c].tolist() for c in (
        pipeline._DIR, pipeline._BASE, pipeline._SHIFT))
    assert shift == (dirs if mode == "compressed" else [0] * 5)
    assert base[0] == g.origin - g.alignment
    for q in range(4):
        assert base[q + 1] == base[q] - shift[q] * h
    engine.run_passes(5)
    assert g.alignment == g.origin - (base[-1] - shift[-1] * h)


@pytest.mark.parametrize("mode,neighbors,restore", [
    ("compressed", ((False, False),) * 3, "never"),
    ("compressed", ((False, False), (False, True), (False, False)), "every"),
    ("two_grid", ((False, False),) * 3, "none"),
    ("two_grid", ((False, False), (False, True), (False, False)), "none")])
@pytest.mark.parametrize("done", [0, 3])
def test_plan_restores_the_ring_where_no_strip_wrote_it(mode, neighbors,
                                                         restore, done):
    engine, plan = _planned(mode, done, 4, neighbors=neighbors)
    ring = engine.ring
    assert (ring == pipeline._ALL_SIDES) == (restore == "never")
    assert engine.restore == (ring if restore == "every" else 0)
    assert engine.spec.restore == engine.restore
    assert plan.shape == (4, 4)  # struct frame holds no restore mask
    assert restore == "none" or ring != 0


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
def test_the_run_spec_is_built_once_per_engine(walk, request, monkeypatch):
    # the driver's arguments are fixed when the engine is built: a run
    # writes only its plan into them
    if walk:
        request.getfixturevalue("walker_calls")
    built = []
    real = kernel.RunSpec

    def counting(**fields):
        built.append(fields)
        return real(**fields)

    monkeypatch.setattr(kernel, "RunSpec", counting)
    cfg = _cfg(spec=BlockSpec(8, 4, 4), t=2, T=2, grid_mode="compressed")
    g = create_grid(16, 12, 10, pad=cfg.h, init="random_ring", seed=6)
    engine = PipelineEngine(cfg, g)
    assert len(built) == 1
    for count in (1, 2, 3):
        engine.run_passes(count)
        driven = kernel.BACKEND == "c" and not walk
        assert engine.spec.passes == (count if driven else 0)
    assert len(built) == 1


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
def test_merged_last_blocks_equal_reference(mode, walk, request):
    # every axis ends in a block longer than its spec: 10 + 3, 8 + 1, 6 + 1
    if walk:
        request.getfixturevalue("walker_calls")
    dims, seed, passes = (23, 17, 13), 8, 2
    cfg = _cfg(spec=BlockSpec(10, 8, 6), t=2, T=2, grid_mode=mode)
    g = create_grid(*dims, pad=cfg.pad, init="random_ring", seed=seed)
    expected = create_grid(*dims, init="random_ring", seed=seed)
    scratch = expected.copy()
    for _ in range(cfg.h * passes):
        reference_sweep(expected, scratch)
        expected, scratch = scratch, expected
    st = run_pipelined(g, cfg, passes)
    assert decompose_blocks(g, cfg.spec).bases == ([0, 10], [0, 8], [0, 6])
    assert_bitwise(st.result.interior_view(), expected.interior_view())


def _shape_only(dims, cfg):
    """The grids of an engine of ``cfg`` on the given dims, whose storage no
    cell is written to: untouched ``np.zeros`` pages are virtual, enough to
    build an engine and its work tables with no memory behind them."""
    return [Grid3(*dims, pad=cfg.pad)
            for _ in range(2 if cfg.grid_mode == "two_grid" else 1)]


@pytest.mark.parametrize("dims,spec,mode,t,T,digests", [
    # the pipe_stream and pipe_fine benchmark shapes
    ((200, 200, 200), (200, 40, 40), "two_grid", 2, 2,
     ("dfb60d368cb8aea4eaa80318c19629cfdbf9f249c0577e10b71fad2467772b5a",
      "7c8afc835d5cef43d9dc5d1b91c28813a98bfe286506540e2ab886792f48acdd")),
    ((96, 96, 96), (96, 4, 4), "compressed", 2, 1,
     ("877b0c13c53225febe8bb4d065eecde3b2378717e879c6eaeb31f815da950bde",
      "208d4a6b4f9763473e9315e0288709053c5e86c9dfcbed8457bb257fb81a6fca")),
], ids=["pipe_stream", "pipe_fine"])
def test_exactly_dividing_work_tables_are_unchanged(dims, spec, mode, t, T,
                                                    digests):
    # SHA-256 of each direction's table as built before short last blocks
    # joined their neighbours: a spec that divides every axis has no short
    # block, so its tables must not move by a byte
    cfg = _cfg(spec=BlockSpec(*spec), t=t, T=T, grid_mode=mode)
    engine = PipelineEngine(cfg, _shape_only(dims, cfg))
    assert tuple(hashlib.sha256(engine.work_table(d).astype("<i8").tobytes())
                 .hexdigest() for d in (1, -1)) == digests

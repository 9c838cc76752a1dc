import gc
import sys
import threading
import time
import weakref

import pytest

from stencilpipe import kernel, pipeline
from stencilpipe import (
    BlockSpec,
    EffectiveDistances,
    PipelineConfig,
    PipelineDeadlock,
    PipelineEngine,
    SyncCounters,
    create_grid,
    estimate_max_distance,
    may_advance,
    run_pipelined,
)
from stencilpipe.pipeline import _Watchdog, predecessor_ready, successor_within
from tests.conftest import assert_bitwise


def _counters(values):
    c = SyncCounters(len(values))
    for i, v in enumerate(values):
        c.bump(i, v)
    return c


def _dist(n, d_l, d_u):
    return EffectiveDistances(d_l=(d_l,) * n, d_u=(d_u,) * n)


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


# ---------------------------------------------------------------------------
# may_advance: the two relaxed-synchronization conditions
# ---------------------------------------------------------------------------

def test_may_advance_predecessor_far_enough():
    c = _counters([2, 1])
    assert may_advance(c, 1, _dist(2, d_l=1, d_u=10**9)) is True


def test_may_advance_blocks_on_race_condition():
    c = _counters([1, 1])
    assert may_advance(c, 1, _dist(2, d_l=1, d_u=10**9)) is False


def test_may_advance_blocks_on_successor_distance():
    c = _counters([5, 3, 0])
    # first condition holds (5-3 >= 1) but 3-0 > d_u=1 violates the second
    assert may_advance(c, 1, _dist(3, d_l=1, d_u=1)) is False


def test_may_advance_front_and_rear_exemptions():
    d = _dist(2, d_l=1, d_u=1)
    # overall front ignores the predecessor condition but not the successor one
    assert may_advance(_counters([5, 0]), 0, d) is False  # 5-0 > d_u
    assert may_advance(_counters([1, 0]), 0, d) is True
    # overall rear ignores the successor condition
    assert may_advance(_counters([9, 0]), 1, d) is True


def test_may_advance_has_no_side_effects():
    c = _counters([3, 1])
    before = c.snapshot()
    may_advance(c, 1, _dist(2, 1, 3))
    assert c.snapshot() == before


def test_may_advance_bad_index():
    with pytest.raises(IndexError):
        may_advance(_counters([0]), 1, _dist(1, 1, 1))


def test_may_advance_is_both_predicates():
    d = _dist(3, d_l=2, d_u=3)
    for vals in [(a, b, c) for a in range(7) for b in range(a + 1)
                 for c in range(b + 1)]:
        c = _counters(list(vals))
        for i in range(3):
            pred, succ = predecessor_ready(c, i, d), successor_within(c, i, d)
            assert pred == (i == 0 or vals[i - 1] - vals[i] >= 2)
            assert succ == (i == 2 or vals[i] - vals[i + 1] <= 3)
            assert may_advance(c, i, d) == (pred and succ)


# ---------------------------------------------------------------------------
# effective distances / team delay
# ---------------------------------------------------------------------------

def test_team_delay_lands_on_front_and_rear_threads():
    cfg = _cfg(n=2, t=3, T=1, d_l=1, d_u=2, d_t=5)
    d = EffectiveDistances.from_config(cfg)
    # threads 0..5; team fronts: 0, 3; team rears: 2, 5
    assert d.d_l == (1, 1, 1, 6, 1, 1)  # overall front exempt
    assert d.d_u == (2, 2, 7, 2, 2, 2)  # overall rear exempt


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
    PipelineEngine(cfg, (a, b)).run_pass(1)
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


def test_counter_windown_final_values():
    cfg = _cfg(spec=BlockSpec(12, 6, 6), n=1, t=3, T=1, d_l=1, d_u=2)
    g0 = create_grid(12, 12, 12, init="random", seed=2)
    a, b = g0.copy(), g0.copy()
    st = PipelineEngine(cfg, (a, b)).run_pass(1)
    dist = EffectiveDistances.from_config(cfg)
    total = 4  # 12^3 with (12,6,6) blocks
    assert st.counters_final == [total + dist.d_u[i] for i in range(3)]


def test_spin_counts_are_reported():
    cfg = _cfg(spec=BlockSpec(16, 4, 4), n=1, t=4, T=1, grid_mode="compressed")
    g = create_grid(16, 16, 16, pad=cfg.h, init="random", seed=1)
    st = run_pipelined(g, cfg, 2)
    assert len(st.per_thread_spins) == 4
    assert st.spin_iterations_total == sum(st.per_thread_spins)
    assert st.mlups > 0 and st.wall_seconds > 0


def test_watchdog_raises_on_stuck_counters():
    c = SyncCounters(2)
    wd = _Watchdog(c, budget=0.05)
    wd.check()
    time.sleep(0.08)
    with pytest.raises(PipelineDeadlock) as exc:
        wd.check()
    assert "counters" in str(exc.value)


def test_watchdog_resets_on_progress():
    c = SyncCounters(2)
    wd = _Watchdog(c, budget=0.05)
    time.sleep(0.06)
    c.bump(0, 1)
    wd.check()  # progress happened; no raise


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


def test_pinning_hint_is_best_effort(oracle):
    cfg = _cfg(spec=BlockSpec(16, 8, 8), n=1, t=2, T=1, pin_threads=True)
    g0 = create_grid(16, 16, 16, init="random", seed=42)
    st = _run(g0, cfg, 2)
    assert_bitwise(st.result.interior_view(), oracle.after_sweeps(16, 42, 4))


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
    if kernel.BACKEND == "c":  # the first run must not walk
        monkeypatch.setattr(pipeline._Pass, "walk", None)
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
        for t in st.threads:
            assert 0.0 <= t.pred_wait_s <= st.wall_seconds
            assert 0.0 <= t.succ_wait_s <= st.wall_seconds
        assert st.pred_violations == 0
        if sync == "relaxed":
            assert st.pred_gap_min >= cfg.d_l
            assert st.succ_gap_max <= cfg.d_u + cfg.d_t + 1
    assert driven.block_updates == walked.block_updates == 2 * cfg.threads * 16
    assert driven.counters_final == walked.counters_final
    for d, w in zip(driven.threads, walked.threads):
        assert (d.blocks, d.windows, d.cells) == (w.blocks, w.windows, w.cells)


def _stalled_pass(sync, watchdog_s):
    cfg = _cfg(spec=BlockSpec(12, 4, 4), t=2, sync_mode=sync,
               watchdog_s=watchdog_s)
    g = create_grid(12, 12, 12, init="random", seed=5)
    return pipeline._Pass(PipelineEngine(cfg, (g, g.copy())), 1)


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
@pytest.mark.parametrize("sync", ["relaxed", "barrier"])
def test_rear_thread_alone_raises_deadlock(sync, walk, request):
    if walk:
        request.getfixturevalue("walker_calls")
    run = _stalled_pass(sync, watchdog_s=0.3)
    errors = []

    def rear_only():
        try:
            run.run([1])  # the front thread never starts
        except PipelineDeadlock as exc:
            errors.append(exc)

    th = threading.Thread(target=rear_only, daemon=True)
    th.start()
    th.join(timeout=0.3 + 1.0)
    stuck = th.is_alive()
    run.abort()  # releases a thread whose watchdog never fired
    th.join(timeout=2.0)
    assert not stuck
    assert len(errors) == 1
    assert "no pipeline progress" in str(errors[0]) or "barrier" in str(errors[0])
    assert "counters = [0, " in str(errors[0])


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
@pytest.mark.parametrize("sync", ["relaxed", "barrier"])
def test_abort_word_stops_a_spinning_thread(sync, walk, request):
    if walk:
        request.getfixturevalue("walker_calls")
    elif kernel.BACKEND != "c":
        pytest.skip("no compiled driver")
    run = _stalled_pass(sync, watchdog_s=60.0)
    assert run.walker == walk
    codes = []
    th = threading.Thread(
        target=lambda: codes.append((run.walk if walk else run.drive)(1)),
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


@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
def test_live_range_beyond_the_interior_raises(mode):
    cfg = _cfg(spec=BlockSpec(12, 4, 4), t=2, grid_mode=mode)
    g = create_grid(12, 12, 12, pad=cfg.h, init="random", seed=6)
    engine = PipelineEngine(cfg, g if mode == "compressed" else (g, g.copy()),
                            live_bounds=lambda ax, u: (0, 13 + cfg.h))
    with pytest.raises(ValueError, match="leaves the grid interior"):
        engine.run_pass(1)


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
def test_frames_beyond_the_arrays_raise(walk, request):
    # the compiled driver checks no bounds: Python checks the frames first
    if walk:
        request.getfixturevalue("walker_calls")
    cfg = _cfg(spec=BlockSpec(12, 4, 4), t=2, grid_mode="compressed")
    g = create_grid(12, 12, 12, pad=cfg.h, init="random", seed=6)
    g.alignment = g.pad + 1  # one cell beyond the head room
    with pytest.raises(ValueError, match="leave"):
        PipelineEngine(cfg, g).run_pass(-1)


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
    # 16 walker threads on few cores, switching as often as CPython allows
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

import itertools
import shutil
import sys
import threading

import numpy as np
import pytest

from stencilpipe import (
    BlockSpec,
    Grid3,
    PipelineConfig,
    create_grid,
    reference_sweep,
    run_pipelined,
    spatial_blocked_sweep,
)
from stencilpipe import kernel
from tests.conftest import assert_bitwise

# Frozen checksum of the 60^3 seed-42 grid after 8 reference sweeps, computed
# once with the scalar/NumPy reference path.
REF_60_SEED42_8SWEEPS = "5f3b56d7c9c1dd077ed2bdbd74898718695a950104ceb329990231fe103d6d15"


def _sweeps(g0, count):
    a, b = g0.copy(), g0.copy()
    for _ in range(count):
        reference_sweep(a, b)
        a, b = b, a
    return a


def _centre_after_sweep(g):
    """The centre cell of a 3^3 grid after one reference sweep."""
    out = g.copy()
    reference_sweep(g, out)
    return out.data[out.index(1, 1, 1)]


def test_cell_average_of_equal_neighbors():
    g = create_grid(3, 3, 3, init="constant", value=3.0)
    assert _centre_after_sweep(g) == 3.0


def test_cell_single_hot_neighbor():
    g = create_grid(3, 3, 3, init="constant", value=0.0)
    g.data[g.index(0, 1, 1)] = 1.0
    assert _centre_after_sweep(g) == 1.0 / 6.0


def test_cell_hand_sum():
    g = create_grid(3, 3, 3, init="constant", value=0.0)
    vals = {(0, 1, 1): 1.0, (2, 1, 1): 2.0, (1, 0, 1): 3.0,
            (1, 2, 1): 4.0, (1, 1, 0): 5.0, (1, 1, 2): 6.0}
    for cell, v in vals.items():
        g.data[g.index(*cell)] = v
    assert _centre_after_sweep(g) == 3.5  # 21/6


def test_constant_grid_is_fixed_point():
    g = create_grid(6, 6, 6, init="constant", value=1.0)
    out = _sweeps(g, 3)
    assert np.all(out.interior_view() == 1.0)


def test_impulse_spreads_one_sixth():
    g = create_grid(4, 4, 4, init="impulse")
    b = g.copy()
    reference_sweep(g, b)
    iv = b.interior_view()
    assert iv[2, 2, 2] == 0.0  # center value does not contribute to itself
    hot = np.argwhere(iv == 1.0 / 6.0)
    assert len(hot) == 6
    assert iv.sum() == 6 * (1.0 / 6.0)


def test_reference_checksum_pinned(oracle):
    out = oracle.after_sweeps(60, 42, 8)
    import hashlib
    digest = hashlib.sha256(np.ascontiguousarray(out).astype("<f8").tobytes()).hexdigest()
    assert digest == REF_60_SEED42_8SWEEPS


def test_dimension_mismatch_rejected():
    a = create_grid(4, 4, 4)
    b = create_grid(4, 4, 5)
    with pytest.raises(ValueError):
        reference_sweep(a, b)


def test_maximum_principle():
    g = create_grid(8, 8, 8, init="random", seed=5)
    lo, hi = g.data.min(), g.data.max()
    out = _sweeps(g, 4)
    iv = out.interior_view()
    assert iv.min() >= lo and iv.max() <= hi


@pytest.mark.parametrize("alpha", [0.5, 2.0, 8.0])
def test_linearity_for_power_of_two_scales(alpha):
    g = create_grid(8, 8, 8, init="random", seed=9)
    scaled = g.copy()
    scaled.data *= alpha
    out = _sweeps(g, 2)
    out_scaled = _sweeps(scaled, 2)
    assert_bitwise(out_scaled.interior_view(), out.interior_view() * alpha)


def test_blocked_sweep_whole_domain_equals_reference():
    g = create_grid(6, 6, 6, init="random", seed=1)
    b1, b2 = g.copy(), g.copy()
    reference_sweep(g, b1)
    spatial_blocked_sweep(g, b2, BlockSpec(6, 6, 6))
    assert_bitwise(b2.interior_view(), b1.interior_view())


def test_blocked_sweep_60_cubed_bitwise():
    g = create_grid(60, 60, 60, init="random", seed=42)
    b1, b2 = g.copy(), g.copy()
    reference_sweep(g, b1)
    spatial_blocked_sweep(g, b2, BlockSpec(60, 20, 20))
    assert_bitwise(b2.interior_view(), b1.interior_view())


@pytest.mark.parametrize("spec", [(7, 3, 3), (5, 4, 4)],
                         ids=["merged_last", "short_last"])
def test_blocked_sweep_truncated_edge_blocks_bitwise(spec):
    # 7 cells in blocks of 3 end in a 4-cell block (the 1-cell remainder
    # joins the block before it), in blocks of 4 in a short 3-cell one
    g = create_grid(7, 7, 7, init="random", seed=4)
    b1, b2 = g.copy(), g.copy()
    reference_sweep(g, b1)
    spatial_blocked_sweep(g, b2, BlockSpec(*spec))
    assert_bitwise(b2.interior_view(), b1.interior_view())


def test_constant_block_update_stays_constant():
    cfg = PipelineConfig(spec=BlockSpec(6, 3, 3), grid_mode="compressed")
    g = create_grid(6, 6, 6, pad=1, init="constant", value=1.0)
    stats = run_pipelined(g, cfg, 2)
    assert np.all(stats.result.interior_view() == 1.0)


def test_compressed_update_realigned_equals_two_grid_bitwise():
    # 6^3 random grid: one shifted in-place update, after re-alignment, must be
    # bitwise identical to the two-grid update of the same data.
    g0 = create_grid(6, 6, 6, init="random", seed=33)
    b = g0.copy()
    reference_sweep(g0, b)

    cfg = PipelineConfig(spec=BlockSpec(6, 6, 6), grid_mode="compressed")
    gc = create_grid(6, 6, 6, pad=2, init="random", seed=33)
    from stencilpipe.pipeline import PipelineEngine
    eng = PipelineEngine(cfg, gc)
    eng.run_passes(1)
    assert gc.alignment == 1
    assert_bitwise(gc.interior_view(), b.interior_view())


# ---------------------------------------------------------------------------
# compiled window kernel against the numpy body
# ---------------------------------------------------------------------------

DIMS = (9, 8, 7)   # logical interior (nx, ny, nz)
PAD = 2
WINDOWS = {
    "full": ((0, 9), (0, 8), (0, 7)),
    "thin_row": ((0, 9), (3, 4), (2, 3)),
    "thin_x": ((0, 1), (0, 8), (0, 7)),
    "single_cell": ((4, 5), (3, 4), (2, 3)),
    "truncated_edge": ((6, 9), (5, 8), (4, 7)),
}
# (src_off, dst_off, in place): the two-grid frame, and the compressed
# forward (write shifted toward lower indices) and backward passes
FRAMES = {
    "two_grid": (PAD + 1, PAD + 1, False),
    "forward_shift": (PAD + 1, PAD, True),
    "backward_shift": (PAD, PAD + 1, True),
}


def _random_storage(seed, nx=DIMS[0]):
    _, ny, nz = DIMS
    rng = np.random.default_rng(seed)
    return rng.random((nz + 2 + PAD, ny + 2 + PAD, nx + 2 + PAD))


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("name", WINDOWS)
def test_apply_window_bitwise_equals_numpy(name, frame):
    so, do, in_place = FRAMES[frame]
    src = _random_storage(3)
    dst = src if in_place else _random_storage(4)
    src_ref = src.copy()
    dst_ref = src_ref if in_place else dst.copy()
    kernel.apply_window(src, dst, WINDOWS[name], so, do)
    kernel._apply_window_numpy(src_ref, dst_ref, WINDOWS[name], so, do)
    assert_bitwise(dst, dst_ref)
    assert_bitwise(src, src_ref)


# x widths below, at and past the 4-lane AVX2 body, so that both the vector
# body and its scalar tail run, from an x start that is not lane-aligned
COPY_WINDOWS = {**WINDOWS, **{f"x_width_{w}": ((1, 1 + w), (0, 8), (0, 7))
                              for w in (1, 3, 5, 7, 37)}}


def _run_copy(lib, isa, src, dst, window, so, do):
    """Copy ``isa`` of the compiled window loop; nonzero when it cannot run."""
    (xl, xh), (yl, yh), (zl, zh) = window
    return lib.jacobi_window_isa(kernel.ISAS.index(isa), src.ctypes.data,
                                 dst.ctypes.data, src.strides[1] // 8,
                                 src.strides[0] // 8, so, do, xl, xh, yl, yh,
                                 zl, zh, do > so)


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("name", COPY_WINDOWS)
@pytest.mark.parametrize("isa", kernel.ISAS)
def test_every_compiled_copy_bitwise_equals_numpy(isa, name, frame):
    # apply_window runs only the copy chosen at load: call each one directly
    lib = kernel._compiled()
    if lib is None:
        pytest.skip("no compiled kernel: the numpy body runs")
    window = COPY_WINDOWS[name]
    so, do, in_place = FRAMES[frame]
    nx = max(DIMS[0], window[0][1])
    src = _random_storage(3, nx)
    dst = src if in_place else _random_storage(4, nx)
    src_ref = src.copy()
    dst_ref = src_ref if in_place else dst.copy()
    if _run_copy(lib, isa, src, dst, window, so, do):
        pytest.skip(f"the {isa} copy cannot run here: the CPU lacks {isa} "
                    "or the compiler does not target x86-64 with GCC/clang")
    kernel._apply_window_numpy(src_ref, dst_ref, window, so, do)
    assert_bitwise(dst, dst_ref)
    assert_bitwise(src, src_ref)


def _guarded():
    """A 2-cell margin of sentinels around the arrays the kernel sees: a
    write past their bounds would land in the margin."""
    outer = np.full((15, 16, 17), 7.0)
    return outer, outer[2:-2, 2:-2, 2:-2]


@pytest.mark.parametrize("window, so, do", [
    (((0, 9), (0, 8), (0, 7)), 0, 0),          # read halo below index 0
    (((0, 13), (0, 8), (0, 7)), 1, 1),         # read halo past the x end
    (((0, 9), (0, 8), (0, 10)), 1, 1),         # past the z end
    (((0, 9), (0, 8), (0, 7)), 1, 5),          # write past the x end
])
def test_apply_window_out_of_range_raises_and_writes_nothing(window, so, do):
    outer_src, src = _guarded()
    outer_dst, dst = _guarded()
    before = outer_dst.copy()
    with pytest.raises(ValueError, match="halo"):
        kernel.apply_window(src, dst, window, so, do)
    assert_bitwise(outer_dst, before)


@pytest.mark.parametrize("case", ["float32", "strides", "x_stride",
                                  "partial_element_stride", "read_only",
                                  "alias_unshifted", "alias_other_view"])
def test_apply_window_rejects_unsafe_arrays(case):
    a, b = np.zeros((6, 6, 6)), np.zeros((6, 6, 6))
    so = do = 1
    if case == "float32":
        b = b.astype(np.float32)
    elif case == "strides":
        b = np.zeros((6, 6, 8))[:, :, :6]
    elif case == "x_stride":
        a, b = (np.zeros((6, 6, 12))[:, :, ::2] for _ in range(2))
    elif case == "partial_element_stride":
        a, b = (np.lib.stride_tricks.as_strided(
            np.zeros(1000), shape=(6, 6, 6), strides=(404, 68, 8))
            for _ in range(2))
    elif case == "read_only":
        b.flags.writeable = False
    elif case == "alias_unshifted":
        b = a
    else:
        big = np.zeros((7, 7, 7))
        a, b, so, do = big[1:, 1:, 1:], big[:-1, :-1, :-1], 1, 2
    with pytest.raises(ValueError):
        kernel.apply_window(a, b, ((0, 4), (0, 4), (0, 4)), so, do)


def _ring_layer(g, axis, side, extent):
    """Logical cells (x, y, z) of the ring layer on one side of ``axis``,
    spanning ``extent`` ((lo, hi) per axis) on the other two axes."""
    ranges = [range(lo, hi) for lo, hi in extent]
    ranges[axis] = [(-1, g.shape[axis])[side]]
    return itertools.product(*ranges)


@pytest.mark.parametrize("bit", range(6))
def test_faces_and_ring_strips_in_bit_order(bit):
    # a non-cubic, padded and shifted grid whose cells all differ, so that a
    # mix-up of axes, sides or storage order shows here
    g = Grid3(5, 4, 3, pad=2, alignment=1)
    g.data[...] = np.arange(g.data.size).reshape(g.data.shape)
    faces = g.capture_boundary_faces()
    axis, side = divmod(bit, 2)
    face = faces[bit]
    assert len(faces) == 6
    assert face.dtype == np.float64 and face.flags.c_contiguous
    others = [a for a in (2, 1, 0) if a != axis]  # (z, y, x) minus axis
    assert face.shape == tuple(g.shape[a] for a in others)
    for cell in _ring_layer(g, axis, side, [(0, n) for n in g.shape]):
        assert face[tuple(cell[a] for a in others)] == g.data[g.index(*cell)]
    # one side's strip next to an off-origin window, nothing else
    window = ((1, 4), (2, 4), (1, 2))
    dst = np.full_like(g.data, -1.0)
    kernel.write_ring_strips(dst, faces, window, g.origin - g.alignment,
                             1 << bit, g.shape)
    expected = np.full_like(g.data, -1.0)
    for cell in _ring_layer(g, axis, side, window):
        expected[g.index(*cell)] = g.data[g.index(*cell)]
    assert (expected != -1.0).sum() == np.prod(
        [hi - lo for a, (lo, hi) in enumerate(window) if a != axis])
    assert_bitwise(dst, expected)


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """Forget the loaded kernel (restored afterwards) and cache into
    tmp_path, so that the next call loads from scratch."""
    monkeypatch.setattr(kernel, "_jacobi", None)
    monkeypatch.setattr(kernel, "_backend", None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path


def _window_pair(fn):
    src, dst = _random_storage(5), _random_storage(6)
    fn(src, dst, WINDOWS["full"], PAD + 1, PAD + 1)
    return dst


def test_no_compiler_falls_back_to_numpy_with_one_warning(fresh_loader,
                                                           monkeypatch):
    empty = fresh_loader / "no_tools"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    with pytest.warns(RuntimeWarning, match="numpy kernel") as record:
        got = _window_pair(kernel.apply_window)
        _window_pair(kernel.apply_window)
        assert kernel.BACKEND == "numpy"
        assert kernel.ISA == "numpy"
    assert len(record) == 1
    assert_bitwise(got, _window_pair(kernel._apply_window_numpy))


needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on PATH")


@needs_cc
def test_isa_names_the_copy_that_runs():
    # the best copy this CPU can run: AVX2 wherever jacobi_window_isa runs it
    lib = kernel._compiled()
    avx2 = _run_copy(lib, "avx2", _random_storage(5), _random_storage(6),
                     WINDOWS["single_cell"], PAD + 1, PAD + 1) == 0
    assert kernel.ISA == ("avx2" if avx2 else "baseline")
    assert kernel.ISAS[lib.jacobi_isa()] == kernel.ISA


@needs_cc
def test_second_load_reuses_cached_library(fresh_loader, monkeypatch):
    assert kernel.BACKEND == "c"
    assert len(list((fresh_loader / "cache" / "stencilpipe").glob("*.so"))) == 1

    def no_build(target):
        raise AssertionError("compiled again despite a cached library")

    monkeypatch.setattr(kernel, "_jacobi", None)
    monkeypatch.setattr(kernel, "_backend", None)
    monkeypatch.setattr(kernel, "_build", no_build)
    assert_bitwise(_window_pair(kernel.apply_window),
                   _window_pair(kernel._apply_window_numpy))
    assert kernel.BACKEND == "c"


@needs_cc
def test_unwritable_cache_builds_in_a_private_temp_dir(fresh_loader,
                                                        monkeypatch):
    blocker = fresh_loader / "a_file"
    blocker.write_text("not a directory")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert kernel.BACKEND == "c"
    assert_bitwise(_window_pair(kernel.apply_window),
                   _window_pair(kernel._apply_window_numpy))


@needs_cc
def test_concurrent_first_use_builds_once(fresh_loader, monkeypatch):
    builds = []
    real_build = kernel._build

    def counting_build(target):
        builds.append(target)
        real_build(target)

    monkeypatch.setattr(kernel, "_build", counting_build)
    expected = _window_pair(kernel._apply_window_numpy)
    results = [None] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda i=i: results.__setitem__(
                i, _window_pair(kernel.apply_window))) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert len(builds) == 1
    for got in results:
        assert_bitwise(got, expected)

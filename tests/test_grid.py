import os
import resource
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stencilpipe import (
    BlockSpec,
    Grid3,
    create_grid,
    decompose_blocks,
    read_snapshot,
    write_snapshot,
)
from stencilpipe import PipelineConfig, kernel
from stencilpipe.grid import (fill_field, seeded_field_checksum,
                              splitmix64_unit, splitmix64_unit_at)
from stencilpipe.halo import (RankTopology, decompose_domain,
                              materialize_subdomain)
from tests.conftest import assert_bitwise

# Frozen output of the deterministic field generator (SplitMix64 based); these
# must never drift, they anchor every seeded oracle in the suite.
FIELD_60_SEED42 = "fa5b509457fd250fd0d2ee349ead4cba2ee3e0371553af4166dc21d1d8690112"
FIELD_600_SEED42 = "b283cb61c807d14afd4610377cdbd48706393fad39dfa3b9827629cb4c5ac88c"


def test_zero_fill_all_stored_cells():
    g = create_grid(4, 4, 4, pad=0, init="constant", value=0.0)
    assert g.data.size == 216
    assert np.all(g.data == 0.0)


def test_extent_includes_pad():
    g = create_grid(4, 4, 4, pad=2, init="constant", value=1.0)
    assert g.data.shape == (8, 8, 8)
    assert np.all(g.data == 1.0)


def test_seeded_field_checksum_pinned():
    assert seeded_field_checksum(60, 60, 60, 42) == FIELD_60_SEED42
    g = create_grid(60, 60, 60, init="random", seed=42)
    assert g.checksum() == FIELD_60_SEED42


def test_seeded_field_checksum_600_cubed_streams():
    # The 600^3 field is checksummed without materializing the 1.7 GB grid.
    assert seeded_field_checksum(600, 600, 600, 42) == FIELD_600_SEED42


def test_create_grid_600_cubed_matches_streaming_generator():
    psutil = pytest.importorskip("psutil")
    if psutil.virtual_memory().available < 4 * 1024**3:
        pytest.skip("needs ~4 GB free for a 600^3 grid")
    g = create_grid(600, 600, 600, init="random", seed=42)
    assert g.checksum() == FIELD_600_SEED42


@pytest.mark.parametrize("dims", [(0, 4, 4), (4, -1, 4), (4, 4, 0)])
def test_bad_dimensions_rejected(dims):
    with pytest.raises(ValueError):
        create_grid(*dims)


def test_negative_pad_rejected():
    with pytest.raises(ValueError):
        create_grid(4, 4, 4, pad=-1)


@pytest.mark.parametrize("pad,alignment", [(0, 1), (2, 3), (2, -1)])
def test_alignment_outside_the_pad_rejected(pad, alignment):
    # alignment 1 without pad would put the ring inside interior_view()
    with pytest.raises(ValueError, match="alignment"):
        Grid3(4, 4, 4, pad=pad, alignment=alignment)


def test_data_of_wrong_shape_rejected():
    from stencilpipe import Grid3
    with pytest.raises(ValueError, match=r"\(5, 5, 5\).*\(6, 6, 6\)"):
        Grid3(4, 4, 4, data=np.zeros((5, 5, 5)))


def test_impulse_lands_at_center():
    g = create_grid(5, 5, 5, init="impulse")
    assert g.data.sum() == 1.0
    assert g.data[g.index(2, 2, 2)] == 1.0


def test_splitmix_values_in_unit_interval():
    v = splitmix64_unit(0, 10_000, seed=3)
    assert v.min() >= 0.0 and v.max() < 1.0
    # different seeds decorrelate
    assert not np.array_equal(v, splitmix64_unit(0, 10_000, seed=4))


def test_decompose_hand_enumerated():
    g = create_grid(6, 6, 6)
    plan = decompose_blocks(g, BlockSpec(6, 3, 3))
    bases = [b for b, _ in plan.blocks]
    assert bases == [(0, 0, 0), (0, 3, 0), (0, 0, 3), (0, 3, 3)]
    assert all(size == (6, 3, 3) for _, size in plan.blocks)


def test_whole_domain_is_one_block():
    g = create_grid(6, 6, 6)
    plan = decompose_blocks(g, BlockSpec(6, 6, 6))
    assert plan.total_blocks == 1


def test_block_larger_than_interior_rejected():
    g = create_grid(6, 6, 6)
    with pytest.raises(ValueError):
        decompose_blocks(g, BlockSpec(7, 3, 3))
    with pytest.raises(ValueError):
        decompose_blocks(g, BlockSpec(6, 0, 3))


@settings(max_examples=40, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 12)] * 3),
    spec=st.tuples(*[st.integers(1, 12)] * 3),
)
def test_tiling_property(dims, spec):
    # union of blocks == interior, pairwise disjoint, for every (grid, spec)
    nx, ny, nz = dims
    bx, by, bz = (min(s, d) for s, d in zip(spec, dims))
    g = create_grid(nx, ny, nz)
    plan = decompose_blocks(g, BlockSpec(bx, by, bz))
    cover = np.zeros((nz, ny, nx), dtype=np.int32)
    for (x, y, z), (sx, sy, sz) in plan.blocks:
        cover[z:z + sz, y:y + sy, x:x + sx] += 1
    assert np.all(cover == 1)


def _axis_sizes(plan, axis):
    """(base, size) of each block along one axis, in order."""
    return sorted({(b[axis], s[axis]) for b, s in plan.blocks})


@pytest.mark.parametrize("n,b,sizes", [
    (10, 4, [4, 4, 2]),   # 2*r == b: the short block stays
    (12, 5, [5, 7]),      # 2*r == b - 1: it joins the block before it
    (7, 5, [7]),          # ... even when that leaves one block
    (8, 8, [8]),          # one block: unchanged
    (12, 4, [4, 4, 4]),   # r == 0: nothing to join
])
def test_short_last_block_rule_at_its_boundary(n, b, sizes):
    g = create_grid(n, 3, 3)
    plan = decompose_blocks(g, BlockSpec(b, 3, 3))
    bases = [sum(sizes[:i]) for i in range(len(sizes))]
    assert plan.bases[0] == bases
    assert _axis_sizes(plan, 0) == list(zip(bases, sizes))


@settings(max_examples=60, deadline=None)
@given(
    dims=st.tuples(*[st.integers(1, 40)] * 3),
    spec=st.tuples(*[st.integers(1, 40)] * 3),
)
def test_no_block_shorter_than_half_its_spec(dims, spec):
    # and none as long as 1.5x the spec; every base is a multiple of the
    # spec (the engine's block index)
    spec = tuple(min(s, d) for s, d in zip(spec, dims))
    plan = decompose_blocks(create_grid(*dims), BlockSpec(*spec))
    for axis, b in enumerate(spec):
        blocks = _axis_sizes(plan, axis)
        assert [base for base, _ in blocks] == plan.bases[axis]
        assert all(base == i * b for i, (base, _) in enumerate(blocks))
        for _, size in blocks:
            assert b <= 2 * size < 3 * b


def test_index_map_x_neighbors_are_contiguous():
    g = create_grid(5, 4, 3)
    flat = g.data.ravel()
    base = np.ravel_multi_index(g.index(1, 2, 1), g.data.shape)
    nxt = np.ravel_multi_index(g.index(2, 2, 1), g.data.shape)
    assert nxt - base == 1
    assert flat[base] == g.data[g.index(1, 2, 1)]


def test_snapshot_roundtrip(tmp_path):
    g = create_grid(7, 5, 6, init="random", seed=11)
    path = tmp_path / "snap.grid"
    write_snapshot(g, path)
    back = read_snapshot(path)
    assert back.shape == g.shape
    assert np.array_equal(back.interior_view(), g.interior_view())
    # header is a plain ASCII line
    assert path.read_bytes().startswith(b"7 5 6\n")


def test_alignment_shifts_the_logical_origin():
    g = create_grid(4, 4, 4, pad=3, init="constant", value=2.0)
    home = g.index(0, 0, 0)
    g.alignment = 3
    shifted = g.index(0, 0, 0)
    assert tuple(h - s for h, s in zip(home, shifted)) == (3, 3, 3)
    # the shifted view starts three layers lower in storage
    g.data[shifted] = 9.0
    assert g.interior_view()[0, 0, 0] == 9.0


@pytest.mark.parametrize("dims,pad", [((4, 4, 4), 0), ((24, 16, 8), 3),
                                      ((96, 96, 96), 0), ((200, 40, 40), 2)])
def test_copy_never_lies_a_whole_page_from_its_source(dims, pad):
    # arrays a multiple of 2 MiB apart share their cache sets; a copy made
    # while its source is alive must be placed off every page multiple
    g = create_grid(*dims, pad=pad, init="random", seed=4)
    g.alignment = pad
    pair = [g]
    for _ in range(3):  # each copy is the next one's source
        pair.append(pair[-1].copy())
        src, dst = pair[-2], pair[-1]
        assert (dst.data.ctypes.data - src.data.ctypes.data) % 4096 != 0
        assert dst.data.dtype == np.float64 and dst.data.flags.c_contiguous
        assert dst.data.flags.writeable and dst.data.shape == src.data.shape
        assert not np.may_share_memory(dst.data, src.data)
        assert np.array_equal(dst.data, src.data)
        assert dst.alignment == pad and dst.pad == pad


# ---------------------------------------------------------------------------
# the compiled seeded fill against the numpy generator
# ---------------------------------------------------------------------------

@pytest.fixture
def numpy_fill(monkeypatch):
    """Call a fill function with the compiled library hidden, so that
    fill_field runs its numpy generator."""
    def call(fn, *args, **kw):
        with monkeypatch.context() as m:
            m.setattr(kernel, "_compiled", lambda: None)
            return fn(*args, **kw)
    return call


def _needs_compiled_fill():
    if kernel.BACKEND != "c":
        pytest.skip("no compiled library: fill_field runs the numpy "
                    "generator only")


def test_compiled_fill_matches_the_generator_on_a_strided_box(monkeypatch):
    # a box inside a dirty array: the box takes the generator at its own
    # linear indices, every cell around it 0.0, for every team size
    _needs_compiled_fill()
    first, row, plane = 1234, 50, 50 * 40
    z, y, x = np.ogrid[0:4, 0:4, 0:5]
    idx = (first + z * plane + y * row + x).astype(np.uint64)
    outside = np.ones((6, 7, 9), dtype=bool)
    outside[1:5, 2:6, 3:8] = False
    for threads in (1, 2, 3, 4):
        monkeypatch.setattr(kernel, "setup_threads", lambda data: threads)
        data = np.full((6, 7, 9), -1.0)
        assert kernel.splitmix64_fill(data, (1, 2, 3), (5, 6, 8), first, row,
                                      plane, 9) == threads
        assert_bitwise(data[1:5, 2:6, 3:8], splitmix64_unit_at(idx, 9))
        assert np.all(data[outside] == 0.0)


def test_compiled_fill_refuses_a_view_it_cannot_write():
    read_only = np.zeros((2, 3, 4))
    read_only.flags.writeable = False
    for data, box in ((np.zeros((2, 3, 8))[:, :, ::2], (2, 3, 4)),
                      (np.zeros((2, 3, 4), "f4"), (2, 3, 4)),
                      (read_only, (2, 3, 4)), (np.zeros((2, 3, 4)), (2, 4, 4)),
                      (np.zeros((2, 3, 4)), (2, 3, 5))):
        with pytest.raises(ValueError, match="splitmix64_fill"):
            kernel.splitmix64_fill(data, (0, 0, 0), box, 0, 4, 12, 1)
        assert not data.any()


def _seeded_oracle(g, seed, origin=(0, 0, 0), global_dims=None):
    """Every stored cell of g under the "random" rule, built from zeros and
    splitmix64_unit_at alone: the generator at each cell of the global
    interior, 0.0 elsewhere."""
    nx, ny, nz = global_dims or g.shape
    want = np.zeros(g.data.shape)
    z, y, x = np.ogrid[0:g.nz, 0:g.ny, 0:g.nx]
    gx, gy, gz = x + origin[0], y + origin[1], z + origin[2]
    inside = (0 <= gx) & (gx < nx) & (0 <= gy) & (gy < ny) \
        & (0 <= gz) & (gz < nz)
    idx = np.where(inside, (gz * ny + gy) * nx + gx, 0).astype(np.uint64)
    o = g.origin - g.alignment
    want[o:o + g.nz, o:o + g.ny, o:o + g.nx] = \
        np.where(inside, splitmix64_unit_at(idx, seed), 0.0)
    return want


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["whole", "aligned", "share", "halo_share",
                                  "one_plane", "no_interior", "far_below_x",
                                  "far_below_z"])
def test_compiled_fill_writes_every_stored_cell_once(case, threads,
                                                     monkeypatch):
    # fill_field over a team of 1-4 threads (more than the planes of a
    # one-plane grid's three) into a grid that holds other values: every
    # stored cell must equal the generator-and-zeros oracle, also for a
    # share that lies wholly past the global grid on one axis
    _needs_compiled_fill()
    dims, pad, alignment, origin, global_dims = {
        "whole": ((13, 7, 5), 0, 0, (0, 0, 0), None),
        "aligned": ((13, 7, 5), 2, 1, (0, 0, 0), None),
        "share": ((6, 10, 8), 1, 0, (6, 0, 0), (12, 10, 8)),
        "halo_share": ((16, 13, 12), 1, 1, (-2, -1, -3), (12, 10, 8)),
        "one_plane": ((9, 4, 1), 0, 0, (0, 0, 2), (9, 4, 3)),
        "no_interior": ((4, 5, 6), 1, 0, (12, 0, 0), (12, 10, 8)),
        "far_below_x": ((4, 4, 4), 0, 0, (-20, 0, 0), (8, 8, 8)),
        "far_below_z": ((4, 5, 6), 1, 1, (0, 3, -20), (8, 8, 8)),
    }[case]
    ran = []
    fill = kernel.splitmix64_fill
    monkeypatch.setattr(kernel, "setup_threads", lambda data: threads)
    monkeypatch.setattr(kernel, "splitmix64_fill",
                        lambda *a, **k: ran.append(fill(*a, **k)) or ran[-1])
    g = Grid3(*dims, pad=pad, alignment=alignment)
    g.data[...] = np.nan
    fill_field(g, "random", seed=17, origin=origin, global_dims=global_dims)
    assert ran == [min(threads, g.data.shape[0])]
    assert_bitwise(g.data, _seeded_oracle(g, 17, origin, global_dims))


@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_compiled_copy_equals_its_source_with_any_team(threads, monkeypatch):
    _needs_compiled_fill()
    monkeypatch.setattr(kernel, "setup_threads", lambda data: threads)
    for dims, pad in (((13, 7, 5), 2), ((9, 4, 1), 0)):
        src = create_grid(*dims, pad=pad, init="random_ring", seed=6)
        dst = np.full(src.data.shape, np.nan)
        assert kernel.copy_grid(dst, src.data) \
            == min(threads, src.data.shape[0])
        assert_bitwise(dst, src.data)
    with pytest.raises(ValueError, match="copy_grid"):
        kernel.copy_grid(src.data, src.data)


def test_setup_threads_follow_cpus_grain_and_planes(monkeypatch):
    # broadcast views: nz planes of mib MiB in all, with no memory behind
    def big(nz, mib):
        return np.broadcast_to(np.zeros(1), (nz, 1, (mib << 17) // nz))

    monkeypatch.setattr(kernel.os, "sched_getaffinity",
                        lambda pid: set(range(8)), raising=False)
    grain = kernel._GRAIN >> 20
    assert kernel.setup_threads(big(64, 64 * grain)) == 8
    assert kernel.setup_threads(big(64, 3 * grain)) == 3
    assert kernel.setup_threads(big(64, grain - 1)) == 1
    assert kernel.setup_threads(big(2, 64 * grain)) == 2
    monkeypatch.setattr(kernel.os, "sched_getaffinity",
                        lambda pid: {0}, raising=False)
    assert kernel.setup_threads(big(64, 64 * grain)) == 1


def test_a_setup_thread_that_cannot_start_leaves_its_planes_to_the_caller():
    # a child whose stack limit exceeds the address space: glibc sizes a
    # new thread's stack by that limit, so no team thread starts, and the
    # calling thread must fill and copy every plane itself
    _needs_compiled_fill()
    huge = 1 << 47
    hard = resource.getrlimit(resource.RLIMIT_STACK)[1]
    if hard != resource.RLIM_INFINITY and hard < huge:
        pytest.skip(f"the hard stack limit {hard} is too low to raise")
    body = (
        "import numpy as np\n"
        "from stencilpipe import kernel\n"
        "from stencilpipe.grid import Grid3, fill_field\n"
        "kernel.setup_threads = lambda data: 4\n"
        "want, got = Grid3(13, 7, 6, pad=1), Grid3(13, 7, 6, pad=1)\n"
        "fill_field(want, 'random', seed=3)\n"
        "got.data[...] = np.nan\n"
        "box = ((2, 2, 2), (8, 9, 15))\n"
        "assert kernel.splitmix64_fill(got.data, *box, 0, 13, 91, 3) == 1\n"
        "assert np.array_equal(got.data, want.data)\n"
        "copy = np.full(want.data.shape, np.nan)\n"
        "assert kernel.copy_grid(copy, want.data) == 1\n"
        "assert np.array_equal(copy, want.data)\n")
    child = ("import os, resource, sys; resource.setrlimit(resource.RLIMIT_"
             f"STACK, ({huge}, {hard})); os.execv(sys.executable, "
             "[sys.executable, '-c', sys.argv[1]])")
    env = dict(os.environ, PYTHONPATH=str(Path(kernel.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", child, body], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("init", ["random", "random_ring"])
@pytest.mark.parametrize("pad,alignment", [(0, 0), (2, 0), (2, 1)])
def test_compiled_fill_equals_numpy_on_whole_grids(init, pad, alignment,
                                                   numpy_fill):
    grids = [Grid3(13, 7, 5, pad=pad, alignment=alignment) for _ in range(2)]
    fill_field(grids[0], init, seed=21)
    numpy_fill(fill_field, grids[1], init, seed=21)
    assert_bitwise(grids[0].data, grids[1].data)
    assert np.count_nonzero(grids[0].interior_view()) > 0


@pytest.mark.parametrize("init", ["random", "random_ring"])
@pytest.mark.parametrize("topo", [(2, 1, 1), (2, 2, 1)])
@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
def test_compiled_fill_equals_numpy_on_rank_shares(init, topo, mode,
                                                   numpy_fill):
    cfg = PipelineConfig(spec=BlockSpec(4, 4, 4), t=2, T=1, grid_mode=mode)
    for sub in decompose_domain((12, 10, 8), RankTopology(*topo), cfg.h):
        got = materialize_subdomain(sub, cfg, seed=5, init=init)
        want = numpy_fill(materialize_subdomain, sub, cfg, seed=5, init=init)
        assert_bitwise(got.data, want.data)
    # a share whose halo reaches past the global interior on every side, and
    # one that lies wholly below it in x
    for origin in ((-2, -1, -3), (-20, 0, 0)):
        grids = [Grid3(16, 13, 12, pad=1) for _ in range(2)]
        args = (init, 0.0, 5, origin, (12, 10, 8))
        fill_field(grids[0], *args)
        numpy_fill(fill_field, grids[1], *args)
        assert_bitwise(grids[0].data, grids[1].data)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_generator_range_ends_are_accepted(seed, numpy_fill):
    grids = [Grid3(9, 4, 3, pad=1) for _ in range(2)]
    fill_field(grids[0], "random", seed=seed)
    numpy_fill(fill_field, grids[1], "random", seed=seed)
    assert_bitwise(grids[0].data, grids[1].data)
    assert_bitwise(grids[0].interior_view().ravel(),
                   splitmix64_unit(0, 9 * 4 * 3, seed))


@pytest.mark.parametrize("init", ["random", "random_ring"])
@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("backend", ["library", "numpy"])
def test_seed_outside_the_range_changes_no_cell(init, seed, backend,
                                                numpy_fill):
    g = create_grid(6, 5, 4, pad=1, init="constant", value=3.5)
    fill = fill_field if backend == "library" else (
        lambda *a, **k: numpy_fill(fill_field, *a, **k))
    with pytest.raises(ValueError, match="seed"):
        fill(g, init, seed=seed)
    assert np.all(g.data == 3.5)


def test_two_threads_fill_like_one(numpy_fill):
    dims = [(64, 48, 40), (40, 64, 48)]
    want = [Grid3(*d, pad=1) for d in dims]
    for g, seed in zip(want, (3, 4)):
        numpy_fill(fill_field, g, "random_ring", seed=seed)
    got = [Grid3(*d, pad=1) for d in dims]
    start = threading.Barrier(2)
    errors = []

    def body(g, seed):
        try:
            start.wait()
            fill_field(g, "random_ring", seed=seed)
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(g, seed))
               for g, seed in zip(got, (3, 4))]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    for g, w in zip(got, want):
        assert_bitwise(g.data, w.data)

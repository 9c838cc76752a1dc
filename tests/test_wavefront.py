"""The compiled driver's wavefront: a thread's T levels of a block run over
chunks of z planes, each level one plane behind the one before.  A chunk is
the fewest planes whose x*y window holds CHUNK_CELLS (8192) cells, so the
blocks here are taller than their chunks: 96x96 planes give one-plane chunks,
96x48 windows two-plane ones and 40x40 windows six-plane ones.  Every run is
checked bitwise against plain reference sweeps, on a grid whose Dirichlet
ring is nonzero, so that a ring strip written too early or at the wrong
frame shows."""

import numpy as np
import pytest

from stencilpipe import (BlockSpec, PipelineConfig, create_grid, pipeline,
                         reference_sweep, run_pipelined)
from tests.conftest import assert_bitwise


def _ringed(dims, seed, pad=0):
    """A random interior inside a ring whose every cell has its own nonzero
    value."""
    g = create_grid(*dims, pad=pad, init="random", seed=seed)
    o = g.origin - g.alignment
    nx, ny, nz = dims
    box = g.data[o - 1:o + nz + 1, o - 1:o + ny + 1, o - 1:o + nx + 1]
    x = np.arange(-1, nx + 1)
    y = np.arange(-1, ny + 1)[:, None]
    z = np.arange(-1, nz + 1)[:, None, None]
    ring = (x == -1) | (x == nx) | (y == -1) | (y == ny) | (z == -1) | (z == nz)
    box[...] = np.where(ring, 1.0 + (7 * x + 13 * y + 29 * z) % 17 / 16, box)
    return g


def _reference(g0, sweeps):
    a, b = g0.copy(), g0.copy()
    for _ in range(sweeps):
        reference_sweep(a, b)
        a, b = b, a
    return a.interior_view()


def _run(dims, spec, T, mode, passes, seed=11, t=2):
    cfg = PipelineConfig(spec=BlockSpec(*spec), t=t, T=T, d_l=1, d_u=2,
                         grid_mode=mode)
    g0 = _ringed(dims, seed)
    st = run_pipelined(_ringed(dims, seed, pad=cfg.pad), cfg, passes)
    return g0, cfg, st


def _walked(monkeypatch, *args, **kw):
    """The same run through the Python walker, level by level."""
    real = pipeline.apply_window
    monkeypatch.setattr(pipeline, "apply_window", lambda *a: real(*a))
    try:
        return _run(*args, **kw)[2]
    finally:
        monkeypatch.undo()


# (dims, block): one-plane chunks; blocks of 7 over 23 planes leave a last
# block of 2, shorter than T >= 3; two-plane chunks over blocks of 5 with two
# blocks along y; six-plane chunks over blocks of 9
SHAPES = {
    "plane_chunks": ((96, 96, 23), (96, 96, 7)),
    "two_plane_chunks": ((96, 96, 16), (96, 48, 5)),
    "six_plane_chunks": ((40, 40, 30), (40, 40, 9)),
}


@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
@pytest.mark.parametrize("T", [2, 3, 4])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_wavefront_equals_reference(shape, T, mode, monkeypatch):
    dims, spec = SHAPES[shape]
    passes = 2  # one forward and one backward pass
    g0, cfg, st = _run(dims, spec, T, mode, passes)
    assert_bitwise(st.result.interior_view(), _reference(g0, cfg.h * passes))
    assert st.pred_violations == 0
    walked = _walked(monkeypatch, dims, spec, T, mode, passes)
    for d, w in zip(st.threads, walked.threads, strict=True):
        assert (d.blocks, d.windows, d.cells) == (w.blocks, w.windows, w.cells)


@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
def test_wavefront_with_blocks_shorter_than_T(mode, monkeypatch):
    # blocks of 3 planes and T=4: the later levels' windows slide out of
    # their block, and whole rows of the table are empty
    dims, spec, T, passes = (96, 96, 13), (96, 96, 3), 4, 4
    g0, cfg, st = _run(dims, spec, T, mode, passes, t=1)
    assert_bitwise(st.result.interior_view(), _reference(g0, cfg.h * passes))
    walked = _walked(monkeypatch, dims, spec, T, mode, passes, t=1)
    (d,), (w,) = st.threads, walked.threads
    assert d.windows < d.blocks * T  # some rows were empty
    assert (d.blocks, d.windows, d.cells) == (w.blocks, w.windows, w.cells)

"""3D grid storage, block decomposition and block traversal.

The grid is stored as one contiguous double-precision array with axes ordered
(z, y, x) so that the x index is the fastest-varying one (long inner loop,
unit stride between x-neighbors).  Around the interior sits a fixed one-cell
Dirichlet ring; below the ring (on the low-index side of every axis) an
optional ``pad`` region provides the head room the shifted single-array
update scheme needs to slide data toward lower indices and back.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

BOUNDARY = 1  # fixed Dirichlet ring width, one layer per side


def splitmix64_unit(start: int, count: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random doubles in [0, 1) for linear indices
    start..start+count-1.  SplitMix64 finalizer; stable across platforms and
    library versions, so checksums pinned in tests never drift."""
    return splitmix64_unit_at(np.arange(start, start + count, dtype=np.uint64),
                              seed)


def splitmix64_unit_at(idx: np.ndarray, seed: int) -> np.ndarray:
    """:func:`splitmix64_unit` for an array of uint64 linear indices (any
    shape).  Integer-only up to the final scaling, so the value of an index
    does not depend on which call produced it."""
    z = idx * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def seeded_field_checksum(nx: int, ny: int, nz: int, seed: int,
                          chunk: int = 1 << 20) -> str:
    """SHA-256 of the little-endian bytes of the seeded random field, streamed
    so the full grid never has to be materialized."""
    h = hashlib.sha256()
    total = nx * ny * nz
    pos = 0
    while pos < total:
        n = min(chunk, total - pos)
        h.update(splitmix64_unit(pos, n, seed).astype("<f8").tobytes())
        pos += n
    return h.hexdigest()


class Grid3:
    """Padded 3D double grid.

    Logical interior cells are (i, j, k) with 0 <= i < nx etc.; the Dirichlet
    ring sits at logical -1 and n per axis.  ``alignment`` in [0, pad] is the
    current shift of the logical origin toward lower storage indices: logical
    cell c of axis a lives at storage index ``pad + BOUNDARY + c - alignment``.
    """

    def __init__(self, nx, ny, nz, pad=0, data=None, alignment=0):
        if min(nx, ny, nz) < 1:
            raise ValueError(f"grid dimensions must be >= 1, got {(nx, ny, nz)}")
        if pad < 0:
            raise ValueError(f"pad must be >= 0, got {pad}")
        self.nx, self.ny, self.nz = nx, ny, nz
        self.pad = pad
        self.alignment = alignment
        expected = tuple(n + 2 * BOUNDARY + pad for n in (nz, ny, nx))
        if data is None:
            data = np.zeros(expected, dtype=np.float64)
        if data.shape != expected:
            raise ValueError(f"data shape {data.shape} does not match the "
                             f"expected storage shape {expected}")
        self.data = data
        # Dirichlet face values in logical coordinates, captured once the ring
        # is filled (capture_boundary_faces); needed to re-materialize the
        # ring at shifted positions during compressed sweeps.
        self.faces = ()

    @property
    def origin(self) -> int:
        """Storage index of logical cell 0 at alignment 0 (same per axis)."""
        return self.pad + BOUNDARY

    @property
    def shape(self):
        return (self.nx, self.ny, self.nz)

    def index(self, i, j, k):
        """Storage indices (z, y, x) of logical cell (i, j, k) at the current
        alignment."""
        o = self.origin - self.alignment
        return (o + k, o + j, o + i)

    def interior_view(self) -> np.ndarray:
        """View of the interior at the current alignment, axes (z, y, x)."""
        o = self.origin - self.alignment
        return self.data[o:o + self.nz, o:o + self.ny, o:o + self.nx]

    def capture_boundary_faces(self):
        """Record the six Dirichlet face layers as ``faces``, C-contiguous
        (z, y, x) arrays without the face's own axis, at index
        ``2*axis + side`` (the work table's side bit).  Interior extent only:
        ring edges and corners are never read by the 7-point stencil."""
        o = self.origin - self.alignment
        interior = [slice(o, o + n) for n in (self.nz, self.ny, self.nx)]
        faces = []
        for axis, n in enumerate(self.shape):
            for at in (o - 1, o + n):
                idx = list(interior)
                idx[2 - axis] = at
                faces.append(self.data[tuple(idx)].copy())
        self.faces = tuple(faces)

    def copy(self) -> "Grid3":
        g = Grid3(self.nx, self.ny, self.nz, self.pad,
                  data=self.data.copy(), alignment=self.alignment)
        g.faces = tuple(f.copy() for f in self.faces)
        return g

    def checksum(self) -> str:
        h = hashlib.sha256()
        iv = self.interior_view()
        for k in range(self.nz):  # slab-wise: no full contiguous copy needed
            h.update(np.ascontiguousarray(iv[k]).astype("<f8").tobytes())
        return h.hexdigest()


def fill_field(g: Grid3, init="constant", value=0.0, seed=0, origin=(0, 0, 0),
               global_dims=None) -> None:
    """Fill every stored cell of ``g`` in place with an init rule's global
    field.  Logical cell (0, 0, 0) of ``g`` is global cell ``origin``, and
    ``global_dims`` is the global interior (``g``'s own dims when None), so a
    whole grid and a rank's share of it hold the same values cell for cell.

    init rules:
      "constant"  -- every stored cell (interior and ring) equals ``value``
      "impulse"   -- all zero except a 1.0 at the global interior center cell
      "random"    -- global interior cells from the seeded deterministic
                     generator at their global linear index, all else zero
    """
    if init not in ("constant", "impulse", "random"):
        raise ValueError(f"unknown init rule {init!r}")
    nx, ny, nz = global_dims or g.shape
    g.data[...] = value if init == "constant" else 0.0
    if init == "impulse":
        c = tuple(n // 2 - o for n, o in zip((nx, ny, nz), origin))
        if all(0 <= i < n for i, n in zip(c, g.shape)):
            g.data[g.index(*c)] = 1.0
    elif init == "random":
        ox, oy, oz = origin
        x0, x1 = max(ox, 0), min(ox + g.nx, nx)
        y0, y1 = max(oy, 0), min(oy + g.ny, ny)
        if x0 >= x1 or y0 >= y1:
            return
        iv = g.interior_view()
        rows = (np.arange(y0, y1, dtype=np.uint64) * np.uint64(nx))[:, None] \
            + np.arange(x0, x1, dtype=np.uint64)
        for z in range(max(oz, 0), min(oz + g.nz, nz)):
            # one z-slab per call keeps the generator temporaries small
            iv[z - oz, y0 - oy:y1 - oy, x0 - ox:x1 - ox] = splitmix64_unit_at(
                rows + np.uint64(z * ny * nx), seed)


def create_grid(nx, ny, nz, pad=0, init="constant", value=0.0, seed=0) -> Grid3:
    """Allocate a grid and fill it with an init rule (:func:`fill_field`)."""
    g = Grid3(nx, ny, nz, pad)
    fill_field(g, init, value, seed)
    g.capture_boundary_faces()
    return g


@dataclass(frozen=True)
class BlockSpec:
    """Block edge lengths in cells, (bx, by, bz)."""
    bx: int
    by: int
    bz: int

    def validate(self, grid: Grid3):
        for b, n, name in ((self.bx, grid.nx, "bx"), (self.by, grid.ny, "by"),
                           (self.bz, grid.nz, "bz")):
            if not 1 <= b <= n:
                raise ValueError(f"{name}={b} outside [1, {n}]")


def _axis_bases(n: int, b: int):
    return list(range(0, n, b))


@dataclass
class BlockPlan:
    """Ordered tiling of the interior.

    ``blocks`` lists (base, size) pairs, x fastest / z outermost for
    direction +1, exactly reversed for -1.  ``bases`` holds the per-axis base
    coordinates; the pipelined sweep derives its per-update window boundaries
    from them.
    """
    bases: tuple  # (x_bases, y_bases, z_bases)
    blocks: list = field(default_factory=list)

    @property
    def total_blocks(self) -> int:
        return len(self.blocks)


def decompose_blocks(grid: Grid3, spec: BlockSpec, direction: int = 1) -> BlockPlan:
    """Tile the interior with blocks; last block per axis may be truncated."""
    spec.validate(grid)
    if direction not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, got {direction}")
    xb = _axis_bases(grid.nx, spec.bx)
    yb = _axis_bases(grid.ny, spec.by)
    zb = _axis_bases(grid.nz, spec.bz)
    xs = [(x, min(spec.bx, grid.nx - x)) for x in xb]
    ys = [(y, min(spec.by, grid.ny - y)) for y in yb]
    zs = [(z, min(spec.bz, grid.nz - z)) for z in zb]
    blocks = [((x, y, z), (sx, sy, sz))
              for z, sz in zs for y, sy in ys for x, sx in xs]
    if direction == -1:
        blocks.reverse()
    return BlockPlan(bases=(xb, yb, zb), blocks=blocks)


def write_snapshot(grid: Grid3, path):
    """Snapshot format: ASCII header "nx ny nz\\n" then raw little-endian
    doubles of the interior in storage order (x fastest)."""
    with open(path, "wb") as f:
        f.write(f"{grid.nx} {grid.ny} {grid.nz}\n".encode("ascii"))
        f.write(np.ascontiguousarray(grid.interior_view()).astype("<f8").tobytes())


def read_snapshot(path) -> Grid3:
    with open(path, "rb") as f:
        header = f.readline().decode("ascii").split()
        nx, ny, nz = (int(v) for v in header)
        raw = f.read(nx * ny * nz * 8)
    if len(raw) != nx * ny * nz * 8:
        raise ValueError(f"snapshot {path} truncated")
    g = Grid3(nx, ny, nz, pad=0)
    g.interior_view()[...] = np.frombuffer(raw, dtype="<f8").reshape(nz, ny, nx)
    g.capture_boundary_faces()
    return g

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
from dataclasses import dataclass

import numpy as np

BOUNDARY = 1  # fixed Dirichlet ring width, one layer per side

# Grid3.copy places its storage this many bytes past the source's, modulo a
# page.  Two arrays a multiple of 2 MiB apart map their cells to the same
# cache sets, and a Jacobi sweep from one into the other runs about 2.5x
# slower; glibc puts a large allocation made while its twin is alive at such
# a distance about every other time.
_PAGE = 4096
_COPY_SKEW = 2048 + 64


def splitmix64_unit(start: int, count: int, seed: int) -> np.ndarray:
    """Deterministic pseudo-random doubles in [0, 1) for linear indices
    start..start+count-1.  SplitMix64 finalizer; stable across platforms and
    library versions, so checksums pinned in tests never drift."""
    return splitmix64_unit_at(np.arange(start, start + count, dtype=np.uint64),
                              seed)


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def splitmix64_unit_at(idx: np.ndarray, seed: int) -> np.ndarray:
    """:func:`splitmix64_unit` for an array of uint64 linear indices (any
    shape).  Integer-only up to the final scaling, so the value of an index
    does not depend on which call produced it."""
    _check_seed(seed)
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
        if not 0 <= alignment <= pad:
            raise ValueError(f"alignment must lie in [0, pad={pad}], got "
                             f"{alignment}")
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

    def capture_boundary_faces(self) -> tuple:
        """Copies of the six Dirichlet face layers at the current alignment:
        C-contiguous (z, y, x) arrays without the face's own axis, at index
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
        return tuple(faces)

    def copy(self) -> "Grid3":
        """An independent grid with equal cells, whose storage lies
        _COPY_SKEW bytes past this one's modulo a page (the pair of a
        two-grid run is a grid and its copy).  The compiled library copies
        the grid in one pass, its z planes split over a team of threads that
        each first-touch the pages they write (``kernel.copy_grid``); numpy
        copies it without a compiler."""
        from . import kernel  # kernel imports this module

        buf = np.empty(self.data.nbytes + _PAGE, dtype=np.uint8)
        start = (self.data.ctypes.data + _COPY_SKEW - buf.ctypes.data) % _PAGE
        data = buf[start:start + self.data.nbytes].view(np.float64)
        data = data.reshape(self.data.shape)
        if not kernel.copy_grid(data, self.data):
            data[...] = self.data
        return Grid3(self.nx, self.ny, self.nz, self.pad, data=data,
                     alignment=self.alignment)

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
      "random_ring" -- "random", and each global Dirichlet ring cell (x, y,
                     z) set to 1 + ((7x + 13y + 29z) mod 17) / 16, so that
                     the ring differs from the zero pad below it

    The random rules write every stored cell once, in one call to the
    compiled library (``kernel.splitmix64_fill``): the seeded field in the
    global interior, 0 elsewhere, so a reused grid comes out the same as a
    fresh one.  The call splits the z planes over a team of threads, each
    first-touching the pages it writes, with the interpreter lock released,
    so rank threads fill their grids at the same time.  Without a compiler
    every cell is zeroed first and :func:`splitmix64_unit_at` fills the
    interior one z-slab at a time.  Both give bitwise equal cells.  The
    ``random_ring`` ring is written after either fill.  A seed outside
    [0, 2**64) raises ValueError before any cell changes.
    """
    from . import kernel  # kernel imports this module

    if init not in ("constant", "impulse", "random", "random_ring"):
        raise ValueError(f"unknown init rule {init!r}")
    seeded = init in ("random", "random_ring")
    if seeded:
        _check_seed(seed)  # before any cell changes
    nx, ny, nz = global_dims or g.shape
    # the global interior's box within g, as global (x, y, z) bounds and as
    # storage (z, y, x) bounds; an empty box has hi == lo, both within g's
    # interior on every axis, so that it lies in the storage too
    lo = [min(max(c, 0), c + m) for c, m in zip(origin, g.shape)]
    hi = [max(min(c + m, n), a)
          for c, m, n, a in zip(origin, g.shape, (nx, ny, nz), lo)]
    o = g.origin - g.alignment
    box_at = [[o + v - c for v, c in zip(b[::-1], origin[::-1])]
              for b in (lo, hi)]
    first = (lo[2] * ny + lo[1]) * nx + lo[0]
    if not (seeded and kernel.splitmix64_fill(g.data, *box_at, first, nx,
                                              ny * nx, seed)):
        g.data[...] = value if init == "constant" else 0.0
        if seeded:
            box = g.data[tuple(slice(a, b) for a, b in zip(*box_at))]
            (x0, y0, z0), (x1, y1, z1) = lo, hi
            rows = (np.arange(y0, y1, dtype=np.uint64)
                    * np.uint64(nx))[:, None] \
                + np.arange(x0, x1, dtype=np.uint64)
            for z in range(z0, z1):
                # one z-slab per call keeps the generator temporaries small
                box[z - z0] = splitmix64_unit_at(
                    rows + np.uint64(z * ny * nx), seed)
    if init == "random_ring":
        # per (z, y, x) axis of g's interior and its own ring: the global
        # coordinate of each index, and the indices within [-1, n]
        box = g.data[o - 1:o + g.nz + 1, o - 1:o + g.ny + 1, o - 1:o + g.nx + 1]
        coords = [np.arange(-1, m + 1) + c
                  for m, c in zip((g.nz, g.ny, g.nx), origin[::-1])]
        inside = [slice(max(-1 - c[0], 0), max(n + 1 - c[0], 0))
                  for c, n in zip(coords, (nz, ny, nx))]
        for axis, n in enumerate((nz, ny, nx)):
            for at in (-1, n):  # a plane of the global ring, if in the box
                i = at - coords[axis][0]
                if 0 <= i < box.shape[axis]:
                    idx = inside.copy()
                    idx[axis] = slice(i, i + 1)
                    z, y, x = np.ix_(*(c[s] for c, s in zip(coords, idx)))
                    box[tuple(idx)] = 1.0 + (29 * z + 13 * y + 7 * x) % 17 / 16
    if init == "impulse":
        c = tuple(n // 2 - o for n, o in zip((nx, ny, nz), origin))
        if all(0 <= i < n for i, n in zip(c, g.shape)):
            g.data[g.index(*c)] = 1.0


def create_grid(nx, ny, nz, pad=0, init="constant", value=0.0, seed=0) -> Grid3:
    """Allocate a grid and fill it with an init rule (:func:`fill_field`)."""
    g = Grid3(nx, ny, nz, pad)
    fill_field(g, init, value, seed)
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
    """Block bases of one axis (1 <= b <= n): every multiple of ``b`` below
    ``n``, except that a last remainder shorter than half of ``b`` joins the
    block before it.  No block is then shorter than b / 2 or as long as
    1.5 b; the first base always stays, since n - 0 >= b."""
    bases = list(range(0, n, b))
    if 2 * (n - bases[-1]) < b:
        bases.pop()
    return bases


def decompose_blocks(grid: Grid3, spec: BlockSpec):
    """The tiling of the interior by blocks of the spec's edge lengths, as
    its per-axis bases ``(xs, ys, zs)`` (:func:`_axis_bases`).  A block runs
    from a base to the next or to the end of the axis, so the last takes
    what is left: a remainder r with 2*r >= b stays a short block of r
    cells, a shorter one joins the block before it (b + r cells)."""
    spec.validate(grid)
    return tuple(_axis_bases(n, b)
                 for n, b in zip(grid.shape, (spec.bx, spec.by, spec.bz)))


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
    return g

"""Jacobi stencil updates on windows and whole grids.

Every execution path funnels through :func:`apply_window`, which fixes the
per-cell summation order (x-low, x-high, y-low, y-high, z-low, z-high, then
multiply by 1/6).  Because the order never changes, blocked, shifted and
pipelined runs are bitwise identical to the plain reference sweep, which is
the oracle for everything else.

``apply_window`` runs a compiled C loop (``_jacobi.c``), built with the system
``cc`` on first use and cached.  ctypes releases the interpreter lock for the
call, so pipeline and rank threads compute at the same time.  The same
library holds the pipelined run driver (``pipeline_run``, one call per run
that starts and joins the run's threads, arguments in :class:`RunSpec`) and
the two grid setup passes: the seeded field fill (:func:`splitmix64_fill`,
which ``grid.fill_field`` calls) and the grid copy (:func:`copy_grid`, which
``grid.Grid3.copy`` calls).  Each setup pass is one call that writes every
stored cell once, its z planes split over a team of threads
(:func:`setup_threads`) that it starts and joins, each first-touching the
pages it writes; with the interpreter lock released, rank threads set up
their grids at the same time too.  Where no compiler works each falls back
to its numpy body, which ``reference_sweep`` and
``grid.seeded_field_checksum`` always use; ``BACKEND`` reads ``"c"`` or
``"numpy"``.  The library holds a baseline and, on x86-64, an AVX2 copy of
the window loop and picks one when it loads; ``ISA`` reads ``"avx2"``,
``"baseline"`` or ``"numpy"``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
import warnings
from contextlib import suppress
from pathlib import Path

import numpy as np

from .grid import Grid3, BlockSpec, decompose_blocks

SIXTH = 1.0 / 6.0

_SOURCE = Path(__file__).with_name("_jacobi.c")
# -ffp-contract=off forbids fused multiply-adds, which would change result
# bits; fast-math (reassociation) would too and must never be added.
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared", "-pthread")
_ITEM = np.dtype(np.float64).itemsize
# the window loop copies of _jacobi.c by index, as jacobi_window_isa takes them
ISAS = ("baseline", "avx2")
# Fewest bytes of storage per thread of a setup pass.  Starting and joining a
# team thread costs about 35 us and a fill of fresh pages about 0.4 ms per
# MiB (2-vCPU Xeon), so a 4 MiB share pays about 2% for its thread.  Grids
# under two grains stay in the calling thread, a dist_tcp rank's 7.9 MB grid
# among them.  The team is sized from the whole affinity mask, whatever
# other rank threads of the process fill at the same time; on the same host
# in-process dist setups of 4 ranks (2,2,1 at 240^3 and 320^3) and 8 ranks
# (2,2,2 at 240^3), each fill on 2 threads, were no slower than with every
# fill on 1.
_GRAIN = 4 << 20

_load_lock = threading.Lock()
_jacobi = None      # the compiled library once loaded, None on numpy
_backend = None     # "c" or "numpy" once the first load was attempted


def _build(target: Path) -> None:
    """Compile the C source into ``target``.  The output goes to a per-pid
    temporary first and is renamed into place, so a concurrent process never
    loads a half-written library."""
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(["cc", *_CFLAGS, "-o", str(tmp), str(_SOURCE)],
                       check=True, capture_output=True)
        os.replace(tmp, target)
    finally:
        with suppress(FileNotFoundError):
            tmp.unlink()


class RunSpec(ctypes.Structure):
    """``struct run_spec`` of ``_jacobi.c``: what every thread of one
    pipelined run shares (see ``pipeline.PipelineEngine``), built with the
    engine.  ``plan`` points at the run's pass plan, one ``struct frame`` of
    four int64 per pass, which a run sets with ``passes``."""
    _fields_ = [("rows", ctypes.c_void_p * 2), ("nblocks", ctypes.c_int64),
                ("h", ctypes.c_int64), ("T", ctypes.c_int64),
                ("nt", ctypes.c_int64), ("passes", ctypes.c_int64),
                ("plan", ctypes.c_void_p), ("grid", ctypes.c_void_p * 2),
                ("sy", ctypes.c_int64), ("sz", ctypes.c_int64),
                ("face", ctypes.c_void_p * 6), ("restore", ctypes.c_int64),
                ("nx", ctypes.c_int64),
                ("ny", ctypes.c_int64), ("nz", ctypes.c_int64),
                ("counters", ctypes.c_void_p), ("ctl", ctypes.c_void_p),
                ("d_l", ctypes.c_void_p), ("d_u", ctypes.c_void_p),
                ("barrier", ctypes.c_int64), ("watchdog_s", ctypes.c_double)]


def _bind(path: Path):
    lib = ctypes.CDLL(str(path))  # CDLL: every call drops the GIL
    window = [ctypes.c_void_p, ctypes.c_void_p] + [ctypes.c_ssize_t] * 10 \
        + [ctypes.c_int]
    lib.jacobi_window.argtypes = window
    lib.jacobi_window.restype = None
    lib.jacobi_window_isa.argtypes = [ctypes.c_int] + window
    lib.jacobi_window_isa.restype = ctypes.c_int
    lib.jacobi_isa.argtypes = []
    lib.jacobi_isa.restype = ctypes.c_int
    lib.pipeline_run.argtypes = [ctypes.POINTER(RunSpec), ctypes.c_void_p,
                                 ctypes.c_int64] + [ctypes.c_void_p] * 3
    lib.pipeline_run.restype = ctypes.c_int
    lib.splitmix64_fill.argtypes = [ctypes.c_void_p] \
        + [ctypes.c_int64] * 3 + [ctypes.POINTER(ctypes.c_int64)] * 2 \
        + [ctypes.c_uint64] * 4 + [ctypes.c_int64]
    lib.splitmix64_fill.restype = ctypes.c_int64
    lib.copy_grid.argtypes = [ctypes.c_void_p] * 2 + [ctypes.c_int64] * 3
    lib.copy_grid.restype = ctypes.c_int64
    lib.run_spec_size.argtypes = []
    lib.run_spec_size.restype = ctypes.c_int64
    if lib.run_spec_size() != ctypes.sizeof(RunSpec):
        raise OSError(f"{path}: struct run_spec does not match RunSpec")
    return lib


def _load_compiled():
    """The compiled library, from the cache or freshly built.

    The cache file is keyed by the source, the flags and the compiler
    version, under ``$XDG_CACHE_HOME/stencilpipe`` (``~/.cache`` when unset);
    if that directory is unwritable the library is built in a private
    temporary directory for this process only."""
    version = subprocess.run(["cc", "--version"], check=True,
                             capture_output=True).stdout
    key = hashlib.sha256(b"\0".join(
        [_SOURCE.read_bytes(), " ".join(_CFLAGS).encode(), version])).hexdigest()
    base = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    target = Path(base) / "stencilpipe" / f"jacobi-{key[:16]}.so"
    try:
        if not target.exists():
            target.parent.mkdir(parents=True, exist_ok=True)
            _build(target)
        return _bind(target)
    except OSError:  # cache directory unwritable, or its file unloadable
        with tempfile.TemporaryDirectory(prefix="stencilpipe-") as tmp:
            target = Path(tmp) / target.name
            _build(target)
            return _bind(target)  # the mapping outlives the deleted file


def _compiled():
    """The compiled library, loading it on first use; None when no compiler
    works (one RuntimeWarning, then the numpy body)."""
    global _jacobi, _backend
    if _backend is None:
        with _load_lock:
            if _backend is None:
                try:
                    _jacobi = _load_compiled()
                except (OSError, subprocess.CalledProcessError) as exc:
                    detail = str(exc)
                    if isinstance(exc, subprocess.CalledProcessError):
                        detail += ": " + exc.stderr.decode(errors="replace")
                    warnings.warn(
                        f"stencilpipe: compiled kernel unavailable ({detail.strip()}); "
                        "using the numpy kernel", RuntimeWarning, stacklevel=2)
                _backend = "numpy" if _jacobi is None else "c"
    return _jacobi


def __getattr__(name):
    if name == "BACKEND":  # resolved lazily: loading may run the compiler
        _compiled()
        return _backend
    if name == "ISA":
        lib = _compiled()
        return "numpy" if lib is None else ISAS[lib.jacobi_isa()]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def apply_window(src: np.ndarray, dst: np.ndarray, window, src_off: int,
                 dst_off: int) -> None:
    """Update one rectangular window of logical cells.

    window = ((xlo, xhi), (ylo, yhi), (zlo, zhi)) half-open in logical
    coordinates; src_off/dst_off translate logical coordinate 0 to the storage
    index of the source and destination frames (same offset on every axis).
    src and dst may be one array only when the frames differ: the diagonally
    shifted in-place write of compressed mode, which the traversal order makes
    equal to computing the whole window before any store.

    Raises ValueError unless both arrays are float64 with equal strides and
    a unit x stride, dst is writable, and the window plus its one-cell read
    halo lies inside both arrays: the compiled loop checks no bounds.
    """
    (xl, xh), (yl, yh), (zl, zh) = window
    if xl >= xh or yl >= yh or zl >= zh:
        return
    check_arrays(src, dst)
    for lo, hi, ns, nd in zip((xl, yl, zl), (xh, yh, zh), src.shape[::-1],
                              dst.shape[::-1]):
        if lo + src_off - 1 < 0 or hi + src_off + 1 > ns \
                or lo + dst_off - 1 < 0 or hi + dst_off + 1 > nd:
            raise ValueError(
                f"window {window} plus its halo at offsets {src_off}/"
                f"{dst_off} leaves arrays of shape {src.shape}/{dst.shape}")
    sp, dp = src.ctypes.data, dst.ctypes.data
    if np.may_share_memory(src, dst) and (sp != dp or src_off == dst_off):
        raise ValueError("src and dst may overlap only as one array written "
                         "in a shifted frame")
    lib = _compiled()
    if lib is None:
        _apply_window_numpy(src, dst, window, src_off, dst_off)
        return
    lib.jacobi_window(sp, dp, src.strides[1] // _ITEM, src.strides[0] // _ITEM,
                      src_off, dst_off, xl, xh, yl, yh, zl, zh,
                      dst_off > src_off)


def setup_threads(data: np.ndarray) -> int:
    """Threads for a setup pass (:func:`splitmix64_fill`, :func:`copy_grid`)
    over ``data``: the CPUs this process may run on, at most one per
    ``_GRAIN`` bytes of storage and one per z plane, and at least one."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return max(1, min(cpus, data.nbytes // _GRAIN, data.shape[0]))


def _storage(data: np.ndarray, name: str) -> None:
    if data.dtype != np.float64 or data.ndim != 3 \
            or not data.flags.c_contiguous or not data.flags.writeable:
        raise ValueError(f"{name} needs a writable C-contiguous (z, y, x) "
                         f"float64 array, got {data.dtype} {data.strides}")


def splitmix64_fill(data: np.ndarray, lo, hi, first: int, row: int,
                    plane: int, seed: int) -> int:
    """Write every cell of ``data``, a C-contiguous (z, y, x) float64 array,
    once: a cell of the box ``lo <= (z, y, x) < hi`` (storage indices) at
    box offset (z, y, x) takes the seeded field of
    ``grid.splitmix64_unit_at`` at global linear index ``first + z*plane +
    y*row + x``, bitwise as the numpy generator gives it, and every other
    cell 0.0, whatever it held before.  The z planes split over a team of
    :func:`setup_threads` pthreads that each first-touch the pages they
    write; a thread that cannot start leaves its planes to the calling
    thread.  The call runs with the interpreter lock released, so rank
    threads fill their grids at the same time.  Returns the number of
    threads that filled, or 0, with no cell written, when no compiler works;
    the caller then runs the numpy generator."""
    _storage(data, "splitmix64_fill")
    if not all(0 <= a <= b <= n for a, b, n in zip(lo, hi, data.shape)):
        raise ValueError(f"splitmix64_fill box {tuple(lo)}..{tuple(hi)} "
                         f"leaves the storage of shape {data.shape}")
    lib = _compiled()
    if lib is None:
        return 0
    box = [(ctypes.c_int64 * 3)(*v) for v in (lo, hi)]
    return lib.splitmix64_fill(data.ctypes.data, *data.shape, *box, first,
                               row, plane, seed, setup_threads(data))


def copy_grid(dst: np.ndarray, src: np.ndarray) -> int:
    """Copy ``src`` into ``dst``, C-contiguous (z, y, x) float64 arrays of
    one shape that do not overlap, with the z planes split over a team of
    threads as :func:`splitmix64_fill` splits them, each first-touching the
    pages of ``dst`` it writes.  Returns the number of threads that copied,
    or 0, with no cell copied, when no compiler works."""
    _storage(dst, "copy_grid")
    if src.dtype != np.float64 or not src.flags.c_contiguous \
            or src.shape != dst.shape or np.may_share_memory(src, dst):
        raise ValueError(f"copy_grid needs a C-contiguous float64 source of "
                         f"shape {dst.shape} apart from the destination")
    lib = _compiled()
    if lib is None:
        return 0
    nz, ny, nx = dst.shape
    return lib.copy_grid(dst.ctypes.data, src.ctypes.data, nz, ny * nx,
                         setup_threads(dst))


def check_arrays(src: np.ndarray, dst: np.ndarray) -> None:
    """Raise ValueError unless the compiled loop can read ``src`` and write
    ``dst``: float64, equal whole-element strides with a unit x stride and a
    writable destination."""
    if src.dtype != np.float64 or dst.dtype != np.float64:
        raise ValueError(f"apply_window needs float64 arrays, got {src.dtype} "
                         f"and {dst.dtype}")
    if src.strides != dst.strides or src.strides[2] != _ITEM \
            or src.strides[1] % _ITEM or src.strides[0] % _ITEM:
        raise ValueError(f"apply_window needs equal whole-element strides "
                         f"with unit x stride, got {src.strides} and "
                         f"{dst.strides}")
    if not dst.flags.writeable:
        raise ValueError("apply_window destination is read-only")


def _apply_window_numpy(src: np.ndarray, dst: np.ndarray, window,
                        src_off: int, dst_off: int) -> None:
    """The numpy body of :func:`apply_window`: the oracle of reference_sweep
    and the fallback when no compiler works.  The window result is fully
    computed before any store."""
    (xl, xh), (yl, yh), (zl, zh) = window
    so, do = src_off, dst_off
    xs, ys, zs = slice(xl + so, xh + so), slice(yl + so, yh + so), slice(zl + so, zh + so)
    buf = np.add(src[zs, ys, xl + so - 1:xh + so - 1],
                 src[zs, ys, xl + so + 1:xh + so + 1])
    buf += src[zs, yl + so - 1:yh + so - 1, xs]
    buf += src[zs, yl + so + 1:yh + so + 1, xs]
    buf += src[zl + so - 1:zh + so - 1, ys, xs]
    buf += src[zl + so + 1:zh + so + 1, ys, xs]
    buf *= SIXTH
    dst[zl + do:zh + do, yl + do:yh + do, xl + do:xh + do] = buf


def write_ring_strips(dst: np.ndarray, faces, window, dst_off: int,
                      sides: int, dims) -> None:
    """Re-materialize Dirichlet values next to a window in the destination
    frame.  ``sides`` is a bit mask (bit 2*axis + side, as the work table's)
    of the physical domain faces the window touches; ``faces`` holds the face
    values at the same index (``Grid3.capture_boundary_faces``, as the
    engine reads them when it is built).  Each strip spans the window's
    extent in the other two axes.  Needed only when the write frame is
    displaced (compressed mode): the shifted ring position must hold boundary
    values before the next update level reads them."""
    span = [slice(lo, hi) for lo, hi in window[::-1]]  # (z, y, x)
    at = [slice(lo + dst_off, hi + dst_off) for lo, hi in window[::-1]]
    for bit in range(6):
        if sides >> bit & 1:
            axis, side = divmod(bit, 2)
            idx = list(at)
            idx[2 - axis] = (dims[axis] if side else -1) + dst_off
            strip = faces[bit][tuple(span[:2 - axis] + span[3 - axis:])]
            dst[tuple(idx)] = strip


def _copy_ring(a: Grid3, b: Grid3) -> None:
    """Copy the one-cell boundary shell of A onto B (same alignment)."""
    o = a.origin - a.alignment
    nx, ny, nz = a.shape
    sa, sb = a.data, b.data
    sl = (slice(o - 1, o + nz + 1), slice(o - 1, o + ny + 1), slice(o - 1, o + nx + 1))
    for axis in range(3):
        for face in (o - 1, (o + (nz, ny, nx)[axis])):
            idx = list(sl)
            idx[axis] = face
            idx = tuple(idx)
            sb[idx] = sa[idx]


def reference_sweep(a: Grid3, b: Grid3) -> None:
    """One plain Jacobi sweep: B.interior = stencil(A), B.ring = A.ring.

    This is the oracle for every blocked, compressed and pipelined path.
    """
    if a.shape != b.shape:
        raise ValueError(f"grid shapes differ: {a.shape} vs {b.shape}")
    if a.alignment != b.alignment:
        raise ValueError("reference_sweep requires equal alignments")
    window = ((0, a.nx), (0, a.ny), (0, a.nz))
    off = a.origin - a.alignment
    _apply_window_numpy(a.data, b.data, window, off, off)
    _copy_ring(a, b)


def spatial_blocked_sweep(a: Grid3, b: Grid3, spec: BlockSpec) -> None:
    """Reference sweep traversed block by block (no temporal skew).  Block
    order cannot change per-cell arithmetic, so the result is bitwise equal to
    reference_sweep."""
    if a.shape != b.shape:
        raise ValueError(f"grid shapes differ: {a.shape} vs {b.shape}")
    plan = decompose_blocks(a, spec)
    off = a.origin - a.alignment
    for (bx, by, bz), (sx, sy, sz) in plan.blocks:
        window = ((bx, bx + sx), (by, by + sy), (bz, bz + sz))
        apply_window(a.data, b.data, window, off, off)
    _copy_ring(a, b)

"""Domain decomposition and multi-layer halo exchange.

Each rank owns an even share of the global interior plus h halo layers per
side that has a neighbor, where h = n*t*T of the compute configuration.  A
cycle applies h updates with the pipelined engine, update s covering the
owned region expanded by h-s layers on neighbored sides, then refreshes all
halos with one message per side per axis: the x phase ships owned-extent
faces, the y and z phases also forward the halo strips received in earlier
phases, so edge and corner data arrives transitively and no rank ever talks
diagonally.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from .grid import Grid3, splitmix64_unit_at
from .pipeline import PipelineConfig, PipelineEngine
from .transport import ProtocolError, pack_frame, unpack_frame


@dataclass(frozen=True)
class RankTopology:
    """Cartesian process grid, rank = cx + px*(cy + py*cz)."""
    px: int
    py: int
    pz: int

    def __post_init__(self):
        if min(self.px, self.py, self.pz) < 1:
            raise ValueError("process counts must be >= 1")

    @property
    def ranks(self) -> int:
        return self.px * self.py * self.pz

    @property
    def dims(self):
        return (self.px, self.py, self.pz)

    def coords(self, rank: int):
        if not 0 <= rank < self.ranks:
            raise ValueError(f"rank {rank} outside 0..{self.ranks - 1}")
        cx = rank % self.px
        cy = (rank // self.px) % self.py
        cz = rank // (self.px * self.py)
        return (cx, cy, cz)

    def rank_of(self, cx: int, cy: int, cz: int) -> int:
        return cx + self.px * (cy + self.py * cz)

    def neighbor(self, rank: int, axis: int, side: int):
        """Adjacent rank along axis (0=x,1=y,2=z) toward side (0=low,1=high),
        or None at the physical boundary."""
        c = list(self.coords(rank))
        c[axis] += 1 if side == 1 else -1
        if not 0 <= c[axis] < self.dims[axis]:
            return None
        return self.rank_of(*c)


@dataclass(frozen=True)
class HaloSpec:
    """Halo width in layers; equals the updates per exchange cycle."""
    h: int

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("halo width must be >= 1")


@dataclass
class Subdomain:
    """One rank's share: owned interior extents, halo widths that exist per
    side, and the owned region's position inside the local grid and the
    global domain."""
    rank: int
    topo: RankTopology
    h: int
    owned: tuple                # (ox, oy, oz)
    has_nb: tuple               # per axis (lo: bool, hi: bool)
    global_origin: tuple        # global coords of local logical (0,0,0)
    grid: Grid3 | None = None

    @property
    def local_dims(self):
        return tuple(o + self.h * (lo + hi)
                     for o, (lo, hi) in zip(self.owned, self.has_nb))

    @property
    def owned_lo(self):
        """Local logical start of the owned region per axis."""
        return tuple(self.h if lo else 0 for (lo, _hi) in self.has_nb)

    def owned_box(self):
        return tuple((s, s + o) for s, o in zip(self.owned_lo, self.owned))

    def physical_sides(self):
        return {ax: (not lo, not hi) for ax, (lo, hi) in enumerate(self.has_nb)}


def decompose_domain(global_dims, topo: RankTopology, halo: HaloSpec):
    """Split the global interior evenly; every rank gets its owned share plus
    h halo layers per neighbored side.  Owned regions tile the global domain;
    each halo cell mirrors a cell owned by exactly one neighbor."""
    h = halo.h
    owned = []
    for n, p, name in zip(global_dims, topo.dims, "xyz"):
        if n % p != 0:
            raise ValueError(f"global {name} extent {n} not divisible by {p}")
        owned.append(n // p)
    subs = []
    for rank in range(topo.ranks):
        c = topo.coords(rank)
        has_nb = tuple((c[ax] > 0, c[ax] < topo.dims[ax] - 1) for ax in range(3))
        for ax in range(3):
            if any(has_nb[ax]) and owned[ax] < max(2 * (h - 1), h):
                raise ValueError(
                    f"owned extent {owned[ax]} too thin for h={h} "
                    f"(needs >= {max(2 * (h - 1), h)})")
        origin = tuple(c[ax] * owned[ax] - (h if has_nb[ax][0] else 0)
                       for ax in range(3))
        subs.append(Subdomain(rank=rank, topo=topo, h=h, owned=tuple(owned),
                              has_nb=has_nb, global_origin=origin))
    return subs


def global_field_box(global_dims, seed: int, box):
    """Values of the seeded global field over a local box given in global
    coordinates; cells outside the global interior (the Dirichlet ring and
    beyond) are zero, matching the global grid's random fill."""
    nx, ny, nz = global_dims
    (xl, xh), (yl, yh), (zl, zh) = box
    out = np.zeros((zh - zl, yh - yl, xh - xl))
    x0, x1 = max(xl, 0), min(xh, nx)
    y0, y1 = max(yl, 0), min(yh, ny)
    if x0 >= x1 or y0 >= y1:
        return out
    # one hash call per z-slab keeps the index temporaries at slab size
    rows = (np.arange(y0, y1, dtype=np.uint64) * np.uint64(nx))[:, None] \
        + np.arange(x0, x1, dtype=np.uint64)
    for z in range(max(zl, 0), min(zh, nz)):
        out[z - zl, y0 - yl:y1 - yl, x0 - xl:x1 - xl] = splitmix64_unit_at(
            rows + np.uint64(z * ny * nx), seed)
    return out


def materialize_subdomain(sub: Subdomain, cfg: PipelineConfig, seed: int = 42,
                          init: str = "random", value: float = 0.0) -> Grid3:
    """Allocate and fill the rank-local grid from the global init rule."""
    mx, my, mz = sub.local_dims
    pad = cfg.h if cfg.grid_mode == "compressed" else 0
    g = Grid3(mx, my, mz, pad=pad)
    if init == "constant":
        g.data[...] = value
    elif init == "random":
        ox, oy, oz = sub.global_origin
        g.interior_view()[...] = global_field_box(
            (sub.topo.px * sub.owned[0], sub.topo.py * sub.owned[1],
             sub.topo.pz * sub.owned[2]),
            seed, ((ox, ox + mx), (oy, oy + my), (oz, oz + mz)))
    else:
        raise ValueError(f"unsupported distributed init {init!r}")
    g.capture_boundary_faces()
    sub.grid = g
    return g


# ---------------------------------------------------------------------------
# exchange plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MessageSpec:
    axis: int
    side: int                  # 0 = low neighbor, 1 = high neighbor
    neighbor: int
    send_box: tuple            # local logical ((xl,xh),(yl,yh),(zl,zh))
    recv_box: tuple
    nbytes: int


@dataclass
class HaloPlan:
    messages: list             # phase order: x sides, y sides, z sides

    @property
    def total_bytes(self):
        return sum(m.nbytes for m in self.messages)


def build_halo_plan(sub: Subdomain) -> HaloPlan:
    """Message boxes per axis and side.  Tangential extents grow with the
    phase: the x phase covers owned y/z only, later phases span the full
    local extent of already-exchanged axes so received halo data is forwarded
    onward (that is what delivers edges and corners without extra messages).
    """
    h = sub.h
    mx, my, mz = sub.local_dims
    olo = sub.owned_lo
    full = ((0, mx), (0, my), (0, mz))
    ownr = sub.owned_box()
    msgs = []
    for axis in range(3):
        # earlier axes: full local extent; later axes: owned extent only
        tang = [full[a] if a < axis else ownr[a] for a in range(3)]
        for side in (0, 1):
            nb = sub.topo.neighbor(sub.rank, axis, side)
            if nb is None:
                continue
            lo = olo[axis]
            o = sub.owned[axis]
            if side == 0:
                send_span = (lo, lo + h)
                recv_span = (0, h)
            else:
                send_span = (lo + o - h, lo + o)
                recv_span = (lo + o, lo + o + h)
            send_box = tuple(send_span if a == axis else tang[a] for a in range(3))
            recv_box = tuple(recv_span if a == axis else tang[a] for a in range(3))
            cells = 1
            for b in send_box:
                cells *= b[1] - b[0]
            msgs.append(MessageSpec(axis=axis, side=side, neighbor=nb,
                                    send_box=send_box, recv_box=recv_box,
                                    nbytes=cells * 8))
    return HaloPlan(messages=msgs)


def _box_slices(grid: Grid3, box):
    off = grid.origin - grid.alignment
    (xl, xh), (yl, yh), (zl, zh) = box
    return (slice(zl + off, zh + off), slice(yl + off, yh + off),
            slice(xl + off, xh + off))


def exchange_multilayer_halos(sub: Subdomain, plan: HaloPlan, ep,
                              cycle_index: int = 0, timings=None) -> None:
    """Three sequential axis phases, one full-duplex message per neighbored
    side; afterwards every halo cell (faces, edges, corners) holds its
    owner's value."""
    g = sub.grid
    t = timings if timings is not None else {}
    for m in plan.messages:
        t0 = time.perf_counter()
        view = g.data[_box_slices(g, m.send_box)]
        payload = np.ascontiguousarray(view).astype("<f8", copy=False).tobytes()
        frame = pack_frame(m.axis, m.side, cycle_index, payload)
        t1 = time.perf_counter()
        incoming = ep.sendrecv(m.neighbor, frame,
                               len(payload) + 16)
        t2 = time.perf_counter()
        axis, side, cycle, data = unpack_frame(incoming)
        if axis != m.axis or side != 1 - m.side or cycle != cycle_index:
            raise ProtocolError(
                f"rank {sub.rank}: unexpected frame (axis={axis}, side={side}, "
                f"cycle={cycle}) for message {m.axis}/{m.side}/{cycle_index}")
        if len(data) != m.nbytes:
            raise ProtocolError(
                f"rank {sub.rank}: payload {len(data)} bytes, expected {m.nbytes}")
        shape = tuple(b[1] - b[0] for b in reversed(m.recv_box))
        g.data[_box_slices(g, m.recv_box)] = \
            np.frombuffer(data, dtype="<f8").reshape(shape)
        t3 = time.perf_counter()
        t["pack_s"] = t.get("pack_s", 0.0) + (t1 - t0)
        t["transfer_s"] = t.get("transfer_s", 0.0) + (t2 - t1)
        t["unpack_s"] = t.get("unpack_s", 0.0) + (t3 - t2)
        t["messages"] = t.get("messages", 0) + 1
        t["bytes"] = t.get("bytes", 0) + m.nbytes


# ---------------------------------------------------------------------------
# distributed cycles
# ---------------------------------------------------------------------------

def _live_bounds_for(sub: Subdomain, cfg: PipelineConfig):
    """Update region at level u: owned expanded by h-u layers on neighbored
    sides, i.e. the live range shrinks one layer per level from those sides."""
    dims = sub.local_dims

    def live(ax, u):
        lo_nb, hi_nb = sub.has_nb[ax]
        lo = u if lo_nb else 0
        hi = dims[ax] - u if hi_nb else dims[ax]
        return (lo, hi)

    return live


class RankRuntime:
    """Per-rank state for a distributed run: subdomain, grid, engine, plan."""

    def __init__(self, sub: Subdomain, cfg: PipelineConfig, ep, seed=42,
                 init="random", value=0.0):
        if cfg.h != sub.h:
            raise ValueError(f"halo width {sub.h} != pipeline h {cfg.h}")
        self.sub = sub
        self.cfg = cfg
        self.ep = ep
        materialize_subdomain(sub, cfg, seed=seed, init=init, value=value)
        grids = (sub.grid if cfg.grid_mode == "compressed"
                 else (sub.grid, sub.grid.copy()))
        self.engine = PipelineEngine(cfg, grids,
                                     live_bounds=_live_bounds_for(sub, cfg),
                                     physical_sides=sub.physical_sides())
        self.plan = build_halo_plan(sub)
        self.timings = {"compute_s": 0.0}

    def check_config_hash(self, digest: bytes):
        """Abort unless all neighbors run the identical configuration."""
        seen = set()
        for m in self.plan.messages:
            if m.neighbor in seen:
                continue
            seen.add(m.neighbor)
            theirs = self.ep.sendrecv(m.neighbor, digest, len(digest))
            if theirs != digest:
                raise ProtocolError(
                    f"rank {self.sub.rank}: config hash mismatch with rank "
                    f"{m.neighbor}")

    def cycle(self, index: int):
        """h updates (shrinking regions) followed by the halo exchange: one
        pass, whose direction follows the engine's pass count as the index
        does."""
        t0 = time.perf_counter()
        pass_stats = self.engine.run_passes(1)
        self.timings["compute_s"] += time.perf_counter() - t0
        # only the grid holding the latest update level needs fresh halos
        self.sub.grid = self.engine.current_grid()
        exchange_multilayer_halos(self.sub, self.plan, self.ep,
                                  cycle_index=index, timings=self.timings)
        return pass_stats

    def owned_view(self):
        g = self.engine.current_grid()
        return g.data[_box_slices(g, self.sub.owned_box())]


def run_digest(cfg: PipelineConfig, global_dims, passes, seed, init,
               topo=(1, 1, 1)) -> str:
    """SHA-256 hex of everything that decides a run's output: the resolved
    global dims (so strong and weak scaling alike), the rank topology, the
    pass or cycle count, the seed and init rule, and the pipeline shape.
    Watchdog, jitter and pinning change timing only and are left out."""
    b = cfg.spec
    text = "\n".join([
        f"dims={tuple(int(d) for d in global_dims)}",
        f"topo={tuple(int(p) for p in topo)}", f"passes={passes}",
        f"seed={seed}", f"init={init}", f"n={cfg.n}", f"t={cfg.t}",
        f"T={cfg.T}", f"d_l={cfg.d_l}", f"d_u={cfg.d_u}", f"d_t={cfg.d_t}",
        f"block={(b.bx, b.by, b.bz)}", f"sync={cfg.sync_mode}",
        f"mode={cfg.grid_mode}"])
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class DistConfig:
    topo: RankTopology
    cfg: PipelineConfig
    cycles: int
    global_dims: tuple | None = None   # strong scaling: fixed global size
    per_rank_dims: tuple | None = None  # weak scaling: fixed local size
    mode: str = "strong"
    seed: int = 42
    init: str = "random"

    def resolved_global(self):
        if self.mode == "strong":
            if self.global_dims is None:
                raise ValueError("strong mode needs global_dims")
            return self.global_dims
        if self.mode == "weak":
            if self.per_rank_dims is None:
                raise ValueError("weak mode needs per_rank_dims")
            return tuple(d * p for d, p in
                         zip(self.per_rank_dims, self.topo.dims))
        raise ValueError(f"unknown scaling mode {self.mode!r}")

    def digest(self) -> str:
        return run_digest(self.cfg, self.resolved_global(), self.cycles,
                          self.seed, self.init, self.topo.dims)


def run_rank(dist: DistConfig, rank: int, ep) -> RankRuntime:
    """Execute all cycles for one rank; returns its runtime with timings."""
    gd = dist.resolved_global()
    subs = decompose_domain(gd, dist.topo, HaloSpec(dist.cfg.h))
    rt = RankRuntime(subs[rank], dist.cfg, ep, seed=dist.seed, init=dist.init)
    rt.check_config_hash(bytes.fromhex(dist.digest()))
    t0 = time.perf_counter()
    for c in range(dist.cycles):
        rt.cycle(c)
    wall = time.perf_counter() - t0
    ox, oy, oz = rt.sub.owned
    rt.timings["wall_s"] = wall
    rt.timings["mlups"] = (ox * oy * oz * dist.cfg.h * dist.cycles
                           / wall / 1e6)
    return rt


def run_distributed_inprocess(dist: DistConfig):
    """All ranks as threads over the in-process transport; returns the list
    of per-rank runtimes (stats in .timings, data via .owned_view()).  The
    first rank to fail aborts the fabric, which ends its peers' waits, and
    its error is the one raised."""
    import threading
    from .transport import InProcessFabric

    fabric = InProcessFabric(dist.topo.ranks)
    eps = fabric.endpoints()
    out = [None] * dist.topo.ranks
    errors = []

    def body(r):
        try:
            out[r] = run_rank(dist, r, eps[r])
        except BaseException as exc:
            errors.append((r, exc))
            fabric.abort()

    threads = [threading.Thread(target=body, args=(r,), daemon=True)
               for r in range(dist.topo.ranks)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0][1]
    return out


def assemble_global(runtimes) -> Grid3:
    """Stitch owned regions into one global grid (test-scale only)."""
    dist_topo = runtimes[0].sub.topo
    owned = runtimes[0].sub.owned
    gd = tuple(o * p for o, p in zip(owned, dist_topo.dims))
    g = Grid3(*gd, pad=0)
    iv = g.interior_view()
    for rt in runtimes:
        c = rt.sub.topo.coords(rt.sub.rank)
        x0, y0, z0 = (c[ax] * owned[ax] for ax in range(3))
        iv[z0:z0 + owned[2], y0:y0 + owned[1], x0:x0 + owned[0]] = rt.owned_view()
    g.capture_boundary_faces()
    return g

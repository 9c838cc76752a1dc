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
import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import grid
from .grid import Grid3
from .pipeline import PipelineConfig, PipelineEngine
from .transport import ProtocolError

# Wire frame of one halo message: axis, side, 2 pad bytes, payload length,
# cycle index; the payload follows as raw little-endian doubles in send-box
# storage order.
FRAME_HEADER = struct.Struct("<BB2xIQ")


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

    @property
    def local_dims(self):
        return tuple(o + self.h * (lo + hi)
                     for o, (lo, hi) in zip(self.owned, self.has_nb))

    @property
    def global_dims(self):
        return tuple(o * p for o, p in zip(self.owned, self.topo.dims))

    @property
    def owned_lo(self):
        """Local logical start of the owned region per axis."""
        return tuple(self.h if lo else 0 for (lo, _hi) in self.has_nb)

    def owned_box(self):
        return tuple((s, s + o) for s, o in zip(self.owned_lo, self.owned))


def decompose_domain(global_dims, topo: RankTopology, h: int):
    """Split the global interior evenly; every rank gets its owned share plus
    h halo layers per neighbored side, h being the updates per exchange
    cycle.  Owned regions tile the global domain; each halo cell mirrors a
    cell owned by exactly one neighbor."""
    if h < 1:
        raise ValueError("halo width must be >= 1")
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


def materialize_subdomain(sub: Subdomain, cfg: PipelineConfig, seed: int = 42,
                          init: str = "random", value: float = 0.0) -> Grid3:
    """Allocate the rank-local grid at ``cfg.pad``, the one grid a rank's
    engine takes in either mode, and fill it with the global init rule's
    values at the rank's global position."""
    g = Grid3(*sub.local_dims, pad=cfg.pad)
    grid.fill_field(g, init, value, seed, origin=sub.global_origin,
                    global_dims=sub.global_dims)
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
    # header plus payload, rewritten by every exchange of this message
    frame: bytearray = field(compare=False, repr=False)

    @property
    def shape(self):
        """(z, y, x) extents of the send box, which the receive box shares."""
        return tuple(hi - lo for lo, hi in reversed(self.send_box))


def build_halo_plan(sub: Subdomain) -> list:
    """One message per neighbored side, in phase order: x sides, y sides,
    z sides.  Tangential extents grow with the phase: the x phase covers
    owned y/z only, later phases span the full local extent of
    already-exchanged axes so received halo data is forwarded onward (that
    is what delivers edges and corners without extra messages)."""
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
            nbytes = 8 * math.prod(hi - lo for lo, hi in send_box)
            msgs.append(MessageSpec(axis=axis, side=side, neighbor=nb,
                                    send_box=send_box, recv_box=recv_box,
                                    nbytes=nbytes,
                                    frame=bytearray(FRAME_HEADER.size + nbytes)))
    return msgs


def _box_slices(g: Grid3, box):
    off = g.origin - g.alignment
    (xl, xh), (yl, yh), (zl, zh) = box
    return (slice(zl + off, zh + off), slice(yl + off, yh + off),
            slice(xl + off, xh + off))


def exchange_multilayer_halos(g: Grid3, plan: list, ep,
                              cycle_index: int = 0, timings=None,
                              timeout: float = 60.0) -> None:
    """Three sequential axis phases, one full-duplex message per neighbored
    side; afterwards every halo cell of g (faces, edges, corners) holds its
    owner's value.  Each message goes out from its plan entry's frame, and
    the peer's frame must carry the mirror header before any cell changes.
    A message not answered within ``timeout`` seconds raises
    TransportError.  ``timings`` sums pack, transfer and unpack seconds;
    transfer runs from the send until the peer's whole frame has arrived,
    so it includes the time the peer still spends computing before it
    sends, not only the wire.  Of it, ``wait_s`` (from ``ep.sendrecv``) is
    the time until the frame's first byte arrived."""
    t = timings if timings is not None else {}
    for m in plan:
        t0 = time.perf_counter()
        FRAME_HEADER.pack_into(m.frame, 0, m.axis, m.side, m.nbytes, cycle_index)
        payload = np.frombuffer(m.frame, "<f8", offset=FRAME_HEADER.size)
        payload.reshape(m.shape)[...] = g.data[_box_slices(g, m.send_box)]
        t1 = time.perf_counter()
        incoming = ep.sendrecv(m.neighbor, m.frame, len(m.frame),
                               timeout=timeout, timings=t)
        t2 = time.perf_counter()
        header = FRAME_HEADER.unpack_from(incoming)
        if header != (m.axis, 1 - m.side, m.nbytes, cycle_index):
            raise ProtocolError(
                f"rank {ep.rank}: unexpected frame (axis, side, length, "
                f"cycle) = {header} for message {m.axis}/{m.side}/{cycle_index}")
        g.data[_box_slices(g, m.recv_box)] = np.frombuffer(
            incoming, "<f8", offset=FRAME_HEADER.size).reshape(m.shape)
        t3 = time.perf_counter()
        t["pack_s"] = t.get("pack_s", 0.0) + (t1 - t0)
        t["transfer_s"] = t.get("transfer_s", 0.0) + (t2 - t1)
        t["unpack_s"] = t.get("unpack_s", 0.0) + (t3 - t2)
        t["messages"] = t.get("messages", 0) + 1
        t["bytes"] = t.get("bytes", 0) + m.nbytes


# ---------------------------------------------------------------------------
# distributed cycles
# ---------------------------------------------------------------------------

@dataclass
class DistConfig:
    """The run; topology 1,1,1 for ``solve``.  ``cycles`` counts its passes,
    one halo exchange after each on a rank with neighbours."""
    topo: RankTopology
    cfg: PipelineConfig
    cycles: int
    global_dims: tuple
    seed: int = 42
    init: str = "random"

    def __post_init__(self):
        if self.cycles < 0:
            raise ValueError(f"pass count must be >= 0, got {self.cycles}")

    def digest(self) -> str:
        """SHA-256 hex of everything that decides the run's output: the
        global dims (for weak scaling, the per-rank dims times the topology,
        so strong and weak runs of one domain match), the rank topology, the
        pass count, the seed and init rule, and the pipeline shape.  The
        watchdog changes timing only and is left out."""
        cfg, b = self.cfg, self.cfg.spec
        text = "\n".join([
            f"dims={tuple(int(d) for d in self.global_dims)}",
            f"topo={tuple(int(p) for p in self.topo.dims)}",
            f"passes={self.cycles}", f"seed={self.seed}", f"init={self.init}",
            f"n={cfg.n}", f"t={cfg.t}", f"T={cfg.T}", f"d_l={cfg.d_l}",
            f"d_u={cfg.d_u}", f"d_t={cfg.d_t}", f"block={(b.bx, b.by, b.bz)}",
            f"sync={cfg.sync_mode}", f"mode={cfg.grid_mode}"])
        return hashlib.sha256(text.encode()).hexdigest()


class RankRuntime:
    """Per-rank state for a distributed run: the rank's subdomain of the
    run, its grid, engine and halo plan."""

    def __init__(self, dist: DistConfig, rank: int, ep):
        cfg = dist.cfg
        self.sub = decompose_domain(dist.global_dims, dist.topo, cfg.h)[rank]
        self.cfg = cfg
        self.ep = ep
        self.engine = PipelineEngine(
            cfg, materialize_subdomain(self.sub, cfg, seed=dist.seed,
                                       init=dist.init),
            neighbors=self.sub.has_nb)
        self.plan = build_halo_plan(self.sub)
        self.timings = {"compute_s": 0.0}

    def check_config_hash(self, digest: bytes):
        """Abort unless all neighbors run the identical configuration."""
        seen = set()
        for m in self.plan:
            if m.neighbor in seen:
                continue
            seen.add(m.neighbor)
            theirs = self.ep.sendrecv(m.neighbor, digest, len(digest),
                                      timeout=self.cfg.watchdog_s)
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
        exchange_multilayer_halos(self.engine.current_grid(), self.plan,
                                  self.ep, cycle_index=index,
                                  timings=self.timings,
                                  timeout=self.cfg.watchdog_s)
        return pass_stats

    def owned_view(self):
        g = self.engine.current_grid()
        return g.data[_box_slices(g, self.sub.owned_box())]


def run_rank(dist: DistConfig, rank: int, ep) -> RankRuntime:
    """Run rank ``rank`` of ``dist`` over ``ep``: the config-hash handshake,
    then every cycle; returns its runtime with timings."""
    rt = RankRuntime(dist, rank, ep)
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
    """All ranks as threads, linked by an in-process fabric's socket pairs;
    returns the list of per-rank runtimes (stats in .timings, data via
    .owned_view()).  The first rank to fail aborts the fabric, which ends
    its peers' waits, and its error is the one raised.  Every link is
    closed once the ranks have joined."""
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
    for ep in eps:
        ep.close()
    if errors:
        raise errors[0][1]
    return out


def assemble_global(runtimes) -> Grid3:
    """Stitch owned regions into one global grid (test-scale only)."""
    owned = runtimes[0].sub.owned
    g = Grid3(*runtimes[0].sub.global_dims, pad=0)
    iv = g.interior_view()
    for rt in runtimes:
        c = rt.sub.topo.coords(rt.sub.rank)
        x0, y0, z0 = (c[ax] * owned[ax] for ax in range(3))
        iv[z0:z0 + owned[2], y0:y0 + owned[1], x0:x0 + owned[0]] = rt.owned_view()
    return g

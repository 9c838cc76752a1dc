import itertools
import threading

import numpy as np
import pytest

from stencilpipe import BlockSpec, PipelineConfig, grid, pipeline
from stencilpipe.grid import Grid3, create_grid, fill_field
from stencilpipe.kernel import reference_sweep
from stencilpipe.halo import (
    FRAME_HEADER,
    DistConfig,
    RankRuntime,
    RankTopology,
    assemble_global,
    build_halo_plan,
    decompose_domain,
    exchange_multilayer_halos,
    materialize_subdomain,
    run_digest,
    run_distributed_inprocess,
    run_rank,
)
from stencilpipe.transport import InProcessFabric, ProtocolError, tcp_endpoint
from tests.conftest import assert_bitwise, free_ports


def _cfg(n=1, t=1, T=1, mode="two_grid", spec=(20, 10, 10), **kw):
    return PipelineConfig(spec=BlockSpec(*spec), n=n, t=t, T=T,
                          grid_mode=mode, **kw)


def _run_ranks(subs, fn):
    eps = InProcessFabric(len(subs)).endpoints()
    errs, out = [], [None] * len(subs)

    def body(r):
        try:
            out[r] = fn(subs[r], eps[r])
        except BaseException as exc:
            errs.append(exc)

    ts = [threading.Thread(target=body, args=(r,), daemon=True) for r in range(len(subs))]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    if errs:
        raise errs[0]
    return out


# ---------------------------------------------------------------------------
# topology and decomposition geometry
# ---------------------------------------------------------------------------

def test_topology_coords_roundtrip_and_symmetry():
    topo = RankTopology(3, 2, 2)
    assert topo.ranks == 12
    for r in range(topo.ranks):
        assert topo.rank_of(*topo.coords(r)) == r
        for ax in range(3):
            for side in (0, 1):
                nb = topo.neighbor(r, ax, side)
                if nb is not None:
                    assert topo.neighbor(nb, ax, 1 - side) == r


def test_single_rank_needs_no_halos():
    subs = decompose_domain((60, 60, 60), RankTopology(1, 1, 1), 4)
    (sub,) = subs
    assert sub.local_dims == (60, 60, 60)
    assert sub.owned_lo == (0, 0, 0)
    assert build_halo_plan(sub) == []


def test_two_rank_cut_geometry():
    subs = decompose_domain((60, 60, 60), RankTopology(2, 1, 1), 4)
    a, b = subs
    assert a.owned == (30, 60, 60)
    assert a.local_dims == (34, 60, 60)  # 4-layer halo at the cut only
    assert b.owned_lo == (4, 0, 0)
    assert a.global_origin == (0, 0, 0) and b.global_origin == (26, 0, 0)


def test_owned_regions_tile_global_domain():
    topo = RankTopology(2, 2, 2)
    subs = decompose_domain((24, 24, 24), topo, 2)
    cover = np.zeros((24, 24, 24), dtype=int)
    for s in subs:
        gx, gy, gz = (s.global_origin[ax] + s.owned_lo[ax] for ax in range(3))
        cover[gz:gz + s.owned[2], gy:gy + s.owned[1], gx:gx + s.owned[0]] += 1
    assert np.all(cover == 1)


def test_thin_interior_rejected():
    # owned 20 with h=16 falls below the 2(h-1) feasibility floor
    with pytest.raises(ValueError):
        decompose_domain((60, 60, 60), RankTopology(3, 1, 1), 16)


def test_interior_at_feasibility_floor_allowed():
    # owned 30 per axis carries h=16 (floor is 2*(16-1) = 30)
    subs = decompose_domain((60, 60, 60), RankTopology(2, 2, 2), 16)
    assert subs[0].owned == (30, 30, 30)
    subs8 = decompose_domain((60, 60, 60), RankTopology(2, 2, 2), 8)
    assert subs8[0].owned == (30, 30, 30)  # 30 > 2*7


def test_indivisible_axis_rejected():
    with pytest.raises(ValueError):
        decompose_domain((61, 60, 60), RankTopology(2, 1, 1), 2)


@pytest.mark.parametrize("init", ["constant", "impulse", "random"])
def test_one_field_for_whole_and_rank_grids(init):
    whole = create_grid(12, 10, 8, init=init, value=2.5, seed=7)
    wv = whole.interior_view()
    subs = decompose_domain((12, 10, 8), RankTopology(2, 2, 2), 2)
    for sub, mode in zip(subs, itertools.cycle(("two_grid", "compressed"))):
        g = materialize_subdomain(sub, _cfg(t=2, mode=mode, spec=(4, 4, 4)),
                                  seed=7, init=init, value=2.5)
        o, m = sub.global_origin, sub.local_dims
        assert_bitwise(g.interior_view(), wv[o[2]:o[2] + m[2],
                                             o[1]:o[1] + m[1],
                                             o[0]:o[0] + m[0]])
        # the ring on the sides without a neighbour is the global ring
        for ax in range(3):
            for side in (0, 1):
                if not sub.has_nb[ax][side]:
                    face = tuple(slice(o[a], o[a] + m[a])
                                 for a in (2, 1, 0) if a != ax)
                    assert_bitwise(g.faces[2 * ax + side],
                                   whole.faces[2 * ax + side][face])
    # a grid reaching past the global interior on both sides of every axis:
    # the global ring and beyond hold the rule's background value, the rest
    # equals the whole grid's interior
    g = Grid3(16, 13, 12)
    fill_field(g, init, 2.5, 7, origin=(-2, -1, -3), global_dims=(12, 10, 8))
    padded = np.full((12, 13, 16), 2.5 if init == "constant" else 0.0)
    padded[3:11, 1:11, 2:14] = wv
    assert_bitwise(g.interior_view(), padded)


# ---------------------------------------------------------------------------
# exchange correctness
# ---------------------------------------------------------------------------

def test_single_layer_exchange_classic():
    topo = RankTopology(2, 1, 1)
    subs = decompose_domain((12, 12, 12), topo, 1)
    cfg = _cfg(spec=(6, 6, 6))

    def body(sub, ep):
        g = materialize_subdomain(sub, cfg, init="constant",
                                  value=float(sub.rank + 1))
        plan = build_halo_plan(sub)
        exchange_multilayer_halos(g, plan, ep)
        return g

    grids = _run_ranks(subs, body)
    # rank 0's single halo layer now holds rank 1's value
    iv0 = grids[0].interior_view()
    assert np.all(iv0[:, :, -1] == 2.0)
    assert np.all(iv0[:, :, :-1] == 1.0)


@pytest.mark.parametrize("topo_dims,h", [
    ((2, 1, 1), 2), ((2, 2, 1), 2), ((2, 2, 2), 2),
    ((3, 2, 1), 1), ((2, 2, 2), 4), ((3, 3, 3), 4), ((3, 3, 3), 2),
])
def test_rank_id_fill_ownership_oracle(topo_dims, h):
    """After one exchange every halo cell equals its owner's rank id,
    including edge and corner cells delivered by forwarding."""
    topo = RankTopology(*topo_dims)
    n_per = 12 if max(topo_dims) < 3 else 18
    gd = tuple(n_per * p for p in topo_dims)
    subs = decompose_domain(gd, topo, h)
    cfg = _cfg(spec=(4, 4, 4))

    def body(sub, ep):
        g = materialize_subdomain(sub, cfg, init="constant", value=0.0)
        ob = sub.owned_box()
        g.interior_view()[ob[2][0]:ob[2][1], ob[1][0]:ob[1][1],
                          ob[0][0]:ob[0][1]] = float(sub.rank)
        plan = build_halo_plan(sub)
        exchange_multilayer_halos(g, plan, ep)
        return (sub, g)

    for sub, g in _run_ranks(subs, body):
        iv = g.interior_view()
        mx, my, mz = sub.local_dims
        olo = sub.owned_lo
        for z in range(mz):
            for y in range(my):
                for x in range(mx):
                    gx = sub.global_origin[0] + x
                    gy = sub.global_origin[1] + y
                    gz = sub.global_origin[2] + z
                    owner = sub.topo.rank_of(gx // sub.owned[0],
                                             gy // sub.owned[1],
                                             gz // sub.owned[2])
                    assert iv[z, y, x] == float(owner), (
                        f"rank {sub.rank} cell {(x, y, z)}")


def test_exchange_idempotent():
    topo = RankTopology(2, 2, 1)
    subs = decompose_domain((12, 12, 12), topo, 2)
    cfg = _cfg(spec=(4, 4, 4))

    def body(sub, ep):
        g = materialize_subdomain(sub, cfg, seed=5)
        plan = build_halo_plan(sub)
        exchange_multilayer_halos(g, plan, ep, cycle_index=0)
        first = g.data.copy()
        exchange_multilayer_halos(g, plan, ep, cycle_index=0)
        return np.array_equal(g.data, first)

    assert all(_run_ranks(subs, body))


class _ScriptedEndpoint:
    """Records every frame it is handed and answers each with the next
    scripted reply, so that one rank's exchange runs without a peer."""

    def __init__(self, rank, replies):
        self.rank = rank
        self.replies = list(replies)
        self.sent = []

    def sendrecv(self, neighbor, outgoing, expected_len, timeout=60.0):
        self.sent.append((neighbor, bytes(outgoing)))
        return self.replies.pop(0)


def _frame(header, nbytes, fill=-1.0):
    return FRAME_HEADER.pack(*header) + np.full(nbytes // 8, fill).tobytes()


def _box(iv, box):
    (xl, xh), (yl, yh), (zl, zh) = box
    return iv[zl:zh, yl:yh, xl:xh]


def test_exchange_sends_the_documented_wire_frame():
    # rank 0 of 2x1x2 sends one x and one z message, each to its high side;
    # the z message forwards the x halo that the first reply filled with -1
    sub = decompose_domain((12, 8, 12), RankTopology(2, 1, 2), 2)[0]
    g = materialize_subdomain(sub, _cfg(spec=(4, 4, 4)), seed=3)
    plan = build_halo_plan(sub)
    assert [(m.axis, m.side) for m in plan] == [(0, 1), (2, 1)]
    cycle = 5
    ep = _ScriptedEndpoint(0, [_frame((m.axis, 0, m.nbytes, cycle), m.nbytes)
                               for m in plan])
    iv = g.interior_view().copy()
    expected = []
    for m in plan:
        payload = _box(iv, m.send_box).astype("<f8").tobytes()
        # axis u8, side u8, 2 pad bytes, payload length u32, cycle u64
        header = (bytes([m.axis, m.side, 0, 0])
                  + len(payload).to_bytes(4, "little")
                  + cycle.to_bytes(8, "little"))
        assert header == FRAME_HEADER.pack(m.axis, m.side, m.nbytes, cycle)
        expected.append((m.neighbor, header + payload))
        _box(iv, m.recv_box)[...] = -1.0
    exchange_multilayer_halos(g, plan, ep, cycle_index=cycle)
    assert FRAME_HEADER.size == 16
    assert ep.sent == expected
    assert_bitwise(g.interior_view(), iv)


@pytest.mark.parametrize("bad", ["cycle", "side", "length"])
def test_unexpected_peer_frame_is_rejected_before_any_cell_changes(bad):
    sub = decompose_domain((12, 8, 8), RankTopology(2, 1, 1), 2)[1]
    g = materialize_subdomain(sub, _cfg(spec=(4, 4, 4)), seed=3)
    (m,) = build_halo_plan(sub)
    assert (m.axis, m.side) == (0, 0)
    header = {"cycle": (0, 1, m.nbytes, 8), "side": (0, 0, m.nbytes, 7),
              "length": (0, 1, m.nbytes - 8, 7)}[bad]
    # the frame has the full expected length: only its header is wrong
    ep = _ScriptedEndpoint(1, [_frame(header, m.nbytes)])
    before = g.data.copy()
    with pytest.raises(ProtocolError, match="rank 1: unexpected frame"):
        exchange_multilayer_halos(g, [m], ep, cycle_index=7)
    assert_bitwise(g.data, before)


def test_message_count_two_per_axis_regardless_of_h():
    topo = RankTopology(3, 3, 3)
    for h in (1, 2, 4):
        subs = decompose_domain((24, 24, 24), topo, h)
        center = subs[topo.rank_of(1, 1, 1)]
        plan = build_halo_plan(center)
        assert len(plan) == 6
        per_axis = {}
        for m in plan:
            per_axis[m.axis] = per_axis.get(m.axis, 0) + 1
        assert per_axis == {0: 2, 1: 2, 2: 2}


def test_later_axis_messages_include_earlier_halos():
    subs = decompose_domain((12, 12, 12), RankTopology(2, 2, 2), 2)
    sub = subs[subs[0].topo.rank_of(1, 1, 1)]
    plan = build_halo_plan(sub)
    x_msg = next(m for m in plan if m.axis == 0)
    y_msg = next(m for m in plan if m.axis == 1)
    z_msg = next(m for m in plan if m.axis == 2)
    # x phase: owned tangential extents; later phases: full local extents
    assert x_msg.send_box[1] == sub.owned_box()[1]
    assert y_msg.send_box[0] == (0, sub.local_dims[0])
    assert z_msg.send_box[0] == (0, sub.local_dims[0])
    assert z_msg.send_box[1] == (0, sub.local_dims[1])


# ---------------------------------------------------------------------------
# distributed cycles against the single-rank oracle
# ---------------------------------------------------------------------------

def test_single_rank_cycle_reduces_to_run_pipelined(oracle):
    cfg = _cfg(n=1, t=2, T=1, mode="compressed", spec=(20, 10, 10))
    dist = DistConfig(topo=RankTopology(1, 1, 1), cfg=cfg, cycles=2,
                      global_dims=(40, 40, 40), seed=42)
    (rt,) = run_distributed_inprocess(dist)
    assert_bitwise(rt.owned_view(), oracle.after_sweeps(40, 42, 4))


@pytest.mark.parametrize("topo_dims,nt,T,mode", [
    ((2, 1, 1), 2, 1, "two_grid"),
    ((2, 1, 1), 2, 2, "compressed"),
    ((2, 2, 1), 2, 2, "two_grid"),
    ((2, 2, 2), 2, 1, "compressed"),
])
def test_distributed_cycles_match_undecomposed_oracle(topo_dims, nt, T, mode,
                                                      oracle):
    cfg = _cfg(n=1, t=nt, T=T, mode=mode, spec=(20, 10, 10))
    dist = DistConfig(topo=RankTopology(*topo_dims), cfg=cfg, cycles=2,
                      global_dims=(40, 40, 40), seed=42)
    runtimes = run_distributed_inprocess(dist)
    assembled = assemble_global(runtimes)
    assert_bitwise(assembled.interior_view(),
                   oracle.after_sweeps(40, 42, cfg.h * 2))


def _swept(dims, seed, sweeps):
    """The whole random-init grid after that many reference sweeps."""
    a = create_grid(*dims, init="random", seed=seed)
    b = a.copy()
    for _ in range(sweeps):
        reference_sweep(a, b)
        a, b = b, a
    return a


def _fill_with_ring(real):
    """``fill_field`` that also gives the global Dirichlet ring nonzero
    values, each a function of its cell's global position, so that a whole
    grid and every rank's share of it hold the same ring."""
    def fill(g, init="constant", value=0.0, seed=0, origin=(0, 0, 0),
             global_dims=None):
        real(g, init, value, seed, origin, global_dims)
        nx, ny, nz = global_dims or g.shape
        gx = np.arange(-1, g.nx + 1) + origin[0]
        gy = (np.arange(-1, g.ny + 1) + origin[1])[:, None]
        gz = (np.arange(-1, g.nz + 1) + origin[2])[:, None, None]
        ring = ((gx == -1) | (gx == nx) | (gy == -1) | (gy == ny)
                | (gz == -1) | (gz == nz))
        o = g.origin - g.alignment
        box = g.data[o - 1:o + g.nz + 1, o - 1:o + g.ny + 1, o - 1:o + g.nx + 1]
        box[...] = np.where(ring, 1.0 + (7 * gx + 13 * gy + 29 * gz) % 17 / 16,
                            box)
    return fill


@pytest.mark.parametrize("walk", [False, True], ids=["driver", "walker"])
@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
@pytest.mark.parametrize("topo_dims", [(2, 1, 1), (2, 2, 1)])
def test_distributed_cycles_match_the_oracle_with_a_nonzero_ring(
        topo_dims, mode, walk, monkeypatch):
    # with a zero ring, a rank that misses the ring restore at a pass start
    # (compressed mode) reads the zero pad, which equals the ring by accident
    monkeypatch.setattr(grid, "fill_field", _fill_with_ring(fill_field))
    if walk:  # a wrapped kernel name sends every pass through the walker
        real = pipeline.apply_window
        monkeypatch.setattr(pipeline, "apply_window",
                            lambda *args: real(*args))
    dims, seed, cycles = (24, 24, 16), 5, 3
    cfg = _cfg(t=2, T=2, mode=mode, spec=(8, 8, 8))
    expected = _swept(dims, seed, cycles * cfg.h)
    assert all(np.all(f > 0) for f in expected.faces)
    dist = DistConfig(topo=RankTopology(*topo_dims), cfg=cfg, cycles=cycles,
                      global_dims=dims, seed=seed)
    assembled = assemble_global(run_distributed_inprocess(dist))
    assert_bitwise(assembled.interior_view(), expected.interior_view())


@pytest.mark.parametrize("mode", ["two_grid", "compressed"])
def test_tcp_ranks_reusing_their_frames_match_the_oracle(mode):
    # 2x2x1: every rank sends two messages per cycle, each from the same
    # frame buffer in every cycle, over real loopback sockets
    dims, seed, cycles = (24, 24, 16), 3, 3
    cfg = _cfg(t=2, T=1, mode=mode, spec=(8, 8, 8))
    dist = DistConfig(topo=RankTopology(2, 2, 1), cfg=cfg, cycles=cycles,
                      global_dims=dims, seed=seed)
    addresses = [("127.0.0.1", port) for port in free_ports(4)]
    eps, out, errors = [None] * 4, [None] * 4, []

    def body(r):
        try:
            eps[r] = tcp_endpoint(r, addresses)
            out[r] = run_rank(dist, r, eps[r])
        except Exception as exc:  # unblock the peers
            errors.append(exc)
            for ep in eps:
                if ep is not None:
                    ep.close()

    ts = [threading.Thread(target=body, args=(r,), daemon=True)
          for r in range(4)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=60)
    for ep in eps:
        if ep is not None:
            ep.close()
    assert not errors and not any(t.is_alive() for t in ts)
    assert all(rt.timings["messages"] == 2 * cycles for rt in out)
    assert_bitwise(assemble_global(out).interior_view(),
                   _swept(dims, seed, cycles * cfg.h).interior_view())


def test_per_phase_timings_reported():
    cfg = _cfg(n=1, t=2, T=1, spec=(10, 10, 10))
    dist = DistConfig(topo=RankTopology(2, 1, 1), cfg=cfg, cycles=2,
                      global_dims=(20, 20, 20))
    for rt in run_distributed_inprocess(dist):
        t = rt.timings
        for key in ("compute_s", "pack_s", "transfer_s", "unpack_s",
                    "wall_s", "mlups"):
            assert key in t
        assert t["messages"] == 2  # one neighbored side, one exchange per cycle


def test_rank_error_ends_its_inprocess_peers(monkeypatch):
    # without an abort the peer waits 60 s for a halo that never comes
    real = RankRuntime.cycle

    def cycle(self, index):
        if self.sub.rank == 0:
            raise RuntimeError("injected rank fault")
        return real(self, index)

    monkeypatch.setattr(RankRuntime, "cycle", cycle)
    dist = DistConfig(topo=RankTopology(2, 1, 1),
                      cfg=_cfg(t=1, T=1, spec=(10, 10, 10)), cycles=2,
                      global_dims=(20, 20, 20))
    errors = []

    def run():
        try:
            run_distributed_inprocess(dist)
        except Exception as exc:
            errors.append(exc)

    th = threading.Thread(target=run, daemon=True)
    th.start()
    th.join(timeout=5.0)
    assert not th.is_alive()
    assert len(errors) == 1 and str(errors[0]) == "injected rank fault"


def test_config_hash_mismatch_aborts():
    topo = RankTopology(2, 1, 1)
    eps = InProcessFabric(2).endpoints()
    cfgs = [_cfg(n=1, t=2, T=1, spec=(10, 10, 10)),
            _cfg(n=1, t=2, T=1, d_u=7, spec=(10, 10, 10))]
    errs = []

    def body(r):
        dist = DistConfig(topo=topo, cfg=cfgs[r], cycles=1,
                          global_dims=(20, 20, 20))
        try:
            run_rank(dist, r, eps[r])
        except RuntimeError as exc:
            errs.append(str(exc))

    ts = [threading.Thread(target=body, args=(r,), daemon=True) for r in range(2)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=30)
    assert any("config hash" in e for e in errs)


def test_handshake_rejects_ranks_that_differ_only_in_init():
    topo = RankTopology(2, 1, 1)
    eps = InProcessFabric(2).endpoints()
    cfg = _cfg(n=1, t=2, T=1, spec=(10, 10, 10))
    errs = []

    def body(r):
        dist = DistConfig(topo=topo, cfg=cfg, cycles=1,
                          global_dims=(20, 20, 20),
                          init=("random", "constant")[r])
        try:
            run_rank(dist, r, eps[r])
        except Exception as exc:
            errs.append(exc)

    ts = [threading.Thread(target=body, args=(r,), daemon=True) for r in range(2)]
    for t in ts:
        t.start()
    for t in ts:
        t.join(timeout=30)
    assert len(errs) == 2
    assert all(isinstance(e, ProtocolError) and "config hash" in str(e)
               for e in errs)


_DIGEST_BASE = dict(global_dims=(24, 24, 24), passes=2, seed=42,
                    init="random", topo=(1, 1, 1))


@pytest.mark.parametrize("change", [
    dict(global_dims=(48, 24, 24)), dict(topo=(2, 1, 1)),
    dict(topo=(1, 2, 1)), dict(passes=3), dict(seed=43),
    dict(init="constant"), dict(n=2), dict(t=2), dict(T=2), dict(d_l=2),
    dict(d_u=4), dict(d_t=1), dict(spec=(12, 8, 8)),
    dict(sync_mode="barrier"), dict(mode="compressed"),
], ids=lambda c: ",".join(f"{k}={v}" for k, v in c.items()))
def test_run_digest_covers_every_output_input(change):
    run, cfg_kw = dict(_DIGEST_BASE), dict(spec=(8, 8, 8))
    for key, val in change.items():
        (run if key in run else cfg_kw)[key] = val
    base = run_digest(_cfg(spec=(8, 8, 8)), **_DIGEST_BASE)
    assert run_digest(_cfg(**cfg_kw), **run) != base


def test_run_digest_ignores_timing_only_settings():
    base = run_digest(_cfg(spec=(8, 8, 8)), **_DIGEST_BASE)
    timing = _cfg(spec=(8, 8, 8), watchdog_s=5.0, jitter_prob=0.5,
                  jitter_max_s=0.001, jitter_seed=9)
    assert run_digest(timing, **_DIGEST_BASE) == base
    assert len(base) == 64 and set(base) <= set("0123456789abcdef")


def test_halo_width_must_match_pipeline_h():
    topo = RankTopology(2, 1, 1)
    subs = decompose_domain((20, 20, 20), topo, 4)
    cfg = _cfg(n=1, t=2, T=1, spec=(10, 10, 10))  # h=2, mismatch
    from stencilpipe.halo import RankRuntime
    eps = InProcessFabric(2).endpoints()
    with pytest.raises(ValueError):
        RankRuntime(subs[0], cfg, eps[0])

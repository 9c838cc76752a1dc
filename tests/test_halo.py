import threading

import numpy as np
import pytest

from stencilpipe import BlockSpec, PipelineConfig
from stencilpipe.halo import (
    DistConfig,
    HaloSpec,
    RankRuntime,
    RankTopology,
    assemble_global,
    build_halo_plan,
    decompose_domain,
    exchange_multilayer_halos,
    global_field_box,
    materialize_subdomain,
    run_digest,
    run_distributed_inprocess,
    run_rank,
)
from stencilpipe.transport import ProtocolError, create_topology
from tests.conftest import assert_bitwise


def _cfg(n=1, t=1, T=1, mode="two_grid", spec=(20, 10, 10), **kw):
    return PipelineConfig(spec=BlockSpec(*spec), n=n, t=t, T=T,
                          grid_mode=mode, **kw)


def _run_ranks(subs, fn):
    eps = create_topology(len(subs))
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
    subs = decompose_domain((60, 60, 60), RankTopology(1, 1, 1), HaloSpec(4))
    (sub,) = subs
    assert sub.local_dims == (60, 60, 60)
    assert sub.owned_lo == (0, 0, 0)
    assert build_halo_plan(sub).messages == []


def test_two_rank_cut_geometry():
    subs = decompose_domain((60, 60, 60), RankTopology(2, 1, 1), HaloSpec(4))
    a, b = subs
    assert a.owned == (30, 60, 60)
    assert a.local_dims == (34, 60, 60)  # 4-layer halo at the cut only
    assert b.owned_lo == (4, 0, 0)
    assert a.global_origin == (0, 0, 0) and b.global_origin == (26, 0, 0)


def test_owned_regions_tile_global_domain():
    topo = RankTopology(2, 2, 2)
    subs = decompose_domain((24, 24, 24), topo, HaloSpec(2))
    cover = np.zeros((24, 24, 24), dtype=int)
    for s in subs:
        gx, gy, gz = (s.global_origin[ax] + s.owned_lo[ax] for ax in range(3))
        cover[gz:gz + s.owned[2], gy:gy + s.owned[1], gx:gx + s.owned[0]] += 1
    assert np.all(cover == 1)


def test_thin_interior_rejected():
    # owned 20 with h=16 falls below the 2(h-1) feasibility floor
    with pytest.raises(ValueError):
        decompose_domain((60, 60, 60), RankTopology(3, 1, 1), HaloSpec(16))


def test_interior_at_feasibility_floor_allowed():
    # owned 30 per axis carries h=16 (floor is 2*(16-1) = 30)
    subs = decompose_domain((60, 60, 60), RankTopology(2, 2, 2), HaloSpec(16))
    assert subs[0].owned == (30, 30, 30)
    subs8 = decompose_domain((60, 60, 60), RankTopology(2, 2, 2), HaloSpec(8))
    assert subs8[0].owned == (30, 30, 30)  # 30 > 2*7


def test_indivisible_axis_rejected():
    with pytest.raises(ValueError):
        decompose_domain((61, 60, 60), RankTopology(2, 1, 1), HaloSpec(2))


def test_global_field_box_matches_create_grid():
    from stencilpipe import create_grid
    g = create_grid(12, 10, 8, init="random", seed=7)
    box = global_field_box((12, 10, 8), 7, ((0, 12), (0, 10), (0, 8)))
    assert np.array_equal(box, g.interior_view())
    # outside the interior the field is zero (the global ring)
    edge = global_field_box((12, 10, 8), 7, ((-2, 1), (0, 2), (0, 2)))
    assert np.all(edge[:, :, :2] == 0.0)
    # a box clipped on the low and high side of every axis: the global ring
    # and beyond read zero, the rest equals the padded global grid
    clipped = global_field_box((12, 10, 8), 7, ((-2, 14), (-1, 12), (-3, 9)))
    padded = np.zeros((12, 13, 16))
    padded[3:11, 1:11, 2:14] = g.interior_view()
    assert np.array_equal(clipped, padded)


# ---------------------------------------------------------------------------
# exchange correctness
# ---------------------------------------------------------------------------

def test_single_layer_exchange_classic():
    topo = RankTopology(2, 1, 1)
    subs = decompose_domain((12, 12, 12), topo, HaloSpec(1))
    cfg = _cfg(spec=(6, 6, 6))

    def body(sub, ep):
        g = materialize_subdomain(sub, cfg, init="constant",
                                  value=float(sub.rank + 1))
        plan = build_halo_plan(sub)
        exchange_multilayer_halos(sub, plan, ep)
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
    subs = decompose_domain(gd, topo, HaloSpec(h))
    cfg = _cfg(spec=(4, 4, 4))

    def body(sub, ep):
        g = materialize_subdomain(sub, cfg, init="constant", value=0.0)
        ob = sub.owned_box()
        g.interior_view()[ob[2][0]:ob[2][1], ob[1][0]:ob[1][1],
                          ob[0][0]:ob[0][1]] = float(sub.rank)
        plan = build_halo_plan(sub)
        exchange_multilayer_halos(sub, plan, ep)
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
    subs = decompose_domain((12, 12, 12), topo, HaloSpec(2))
    cfg = _cfg(spec=(4, 4, 4))

    def body(sub, ep):
        g = materialize_subdomain(sub, cfg, seed=5)
        plan = build_halo_plan(sub)
        exchange_multilayer_halos(sub, plan, ep, cycle_index=0)
        first = g.data.copy()
        exchange_multilayer_halos(sub, plan, ep, cycle_index=0)
        return np.array_equal(g.data, first)

    assert all(_run_ranks(subs, body))


def test_message_count_two_per_axis_regardless_of_h():
    topo = RankTopology(3, 3, 3)
    for h in (1, 2, 4):
        subs = decompose_domain((24, 24, 24), topo, HaloSpec(h))
        center = subs[topo.rank_of(1, 1, 1)]
        plan = build_halo_plan(center)
        assert len(plan.messages) == 6
        per_axis = {}
        for m in plan.messages:
            per_axis[m.axis] = per_axis.get(m.axis, 0) + 1
        assert per_axis == {0: 2, 1: 2, 2: 2}


def test_later_axis_messages_include_earlier_halos():
    subs = decompose_domain((12, 12, 12), RankTopology(2, 2, 2), HaloSpec(2))
    sub = subs[subs[0].topo.rank_of(1, 1, 1)]
    plan = build_halo_plan(sub)
    x_msg = next(m for m in plan.messages if m.axis == 0)
    y_msg = next(m for m in plan.messages if m.axis == 1)
    z_msg = next(m for m in plan.messages if m.axis == 2)
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
                      global_dims=(40, 40, 40), mode="strong", seed=42)
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
                      global_dims=(40, 40, 40), mode="strong", seed=42)
    runtimes = run_distributed_inprocess(dist)
    assembled = assemble_global(runtimes)
    assert_bitwise(assembled.interior_view(),
                   oracle.after_sweeps(40, 42, cfg.h * 2))


def test_weak_mode_resolves_per_rank_size(oracle):
    cfg = _cfg(n=1, t=2, T=1, mode="two_grid", spec=(12, 6, 6))
    dist = DistConfig(topo=RankTopology(2, 1, 1), cfg=cfg, cycles=2,
                      per_rank_dims=(12, 24, 24), mode="weak", seed=42)
    assert dist.resolved_global() == (24, 24, 24)
    runtimes = run_distributed_inprocess(dist)
    assembled = assemble_global(runtimes)
    assert_bitwise(assembled.interior_view(),
                   oracle.after_sweeps(24, 42, cfg.h * 2))


def test_per_phase_timings_reported():
    cfg = _cfg(n=1, t=2, T=1, spec=(10, 10, 10))
    dist = DistConfig(topo=RankTopology(2, 1, 1), cfg=cfg, cycles=2,
                      global_dims=(20, 20, 20), mode="strong")
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
    eps = create_topology(2)
    cfgs = [_cfg(n=1, t=2, T=1, spec=(10, 10, 10)),
            _cfg(n=1, t=2, T=1, d_u=7, spec=(10, 10, 10))]
    errs = []

    def body(r):
        dist = DistConfig(topo=topo, cfg=cfgs[r], cycles=1,
                          global_dims=(20, 20, 20), mode="strong")
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
    eps = create_topology(2)
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
    timing = _cfg(spec=(8, 8, 8), watchdog_s=5.0, pin_threads=True,
                  jitter_prob=0.5, jitter_max_s=0.001, jitter_seed=9)
    assert run_digest(timing, **_DIGEST_BASE) == base
    assert len(base) == 64 and set(base) <= set("0123456789abcdef")


def test_halo_width_must_match_pipeline_h():
    topo = RankTopology(2, 1, 1)
    subs = decompose_domain((20, 20, 20), topo, HaloSpec(4))
    cfg = _cfg(n=1, t=2, T=1, spec=(10, 10, 10))  # h=2, mismatch
    from stencilpipe.halo import RankRuntime
    eps = create_topology(2)
    with pytest.raises(ValueError):
        RankRuntime(subs[0], cfg, eps[0])

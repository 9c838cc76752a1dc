import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stencilpipe.perfmodel import (
    MachineModel,
    ModelFormatError,
    NetworkModel,
    baseline_perf,
    cache_cycle_model,
    comm_efficiency,
    default_bj,
    l3_scalability_check,
    load_machine_model,
    load_network_model,
    multihalo_advantage,
    parse_machine_model,
    parse_network_model,
    pipelined_bound,
)

EP = load_machine_model("nehalem_ep")
EX = load_machine_model("nehalem_ex")
IST = load_machine_model("istanbul")
QDR = load_network_model("qdr_ib")

# Regression anchors, frozen after the first evaluation of the halo model.
ADV_15_32 = 1.0775
ADV_50_2 = 1.0409683426443204
ADV_50_32 = 0.8448096722395391
EFF_100_2 = 0.7582650894752806
EFF_20_2 = 0.24691358024691362


def test_shipped_models_present():
    for name in ("istanbul", "nehalem_ep", "nehalem_ex"):
        assert isinstance(load_machine_model(name), MachineModel)


def test_machine_file_fields():
    assert EP.cores_per_group == 4 and EP.cache_design == "inclusive"
    assert EX.cores_per_group == 8 and EX.m_ucmax == 176.2e9
    assert IST.cores_per_group == 6 and IST.cache_design == "exclusive"
    assert (EP.m_s, EP.m_um1, EP.m_uc1, EP.m_ucmax) == (19.0e9, 16.2e9, 28.3e9, 51.2e9)
    assert (IST.m_s, IST.m_um1, IST.m_uc1) == (10.5e9, 6.9e9, 15.7e9)


def test_model_file_roundtrip_from_path(tmp_path):
    src = tmp_path / "custom.model"
    src.write_text(
        "name = Custom\nfreq_hz = 1e9\ncores_per_group = 2\n"
        "cache_design = inclusive\nl3_size_bytes = 1e6\n"
        "m_s = 8e9\nm_um1 = 6e9\nm_uc1 = 9e9\nm_ucmax = 20e9\n"
        "jacobi.core_cycles = 10\njacobi.L3.transfers = 1@4.0\n"
        "jacobi.L3.bytes_per_update = 64\n")
    m = load_machine_model(str(src))
    r = cache_cycle_model(m, "jacobi", "L3")
    assert (r.cycles_min, r.cycles_max) == (14.0, 14.0)


_GOOD = ("name = X\nfreq_hz = 1e9\ncores_per_group = 1\ncache_design = i\n"
         "l3_size_bytes = 1\nm_s = 1\nm_um1 = 1\nm_uc1 = 2\nm_ucmax = 2\n")
# files whose value on one line does not convert, and what the error names
_UNCONVERTED = {
    _GOOD.replace("cores_per_group = 1", "cores_per_group = two"):
        r"line 3: cores_per_group: .*'two'",
    _GOOD.replace("m_s = 1", "m_s = lots"): r"line 6: m_s: .*'lots'",
    _GOOD + "jacobi.core_cycles = fast\n": r"line 10: jacobi.core_cycles: ",
    _GOOD + "jacobi.core_cycles = 1\njacobi.L2.transfers = 2@x\n":
        r"line 11: jacobi.L2.transfers: bad transfer entry '2@x'",
}


@pytest.mark.parametrize("bad", [
    "name = X\n",                               # missing fields
    "freq_hz == 2\n",                           # malformed line
    "name = X\nfreq_hz = 1e9\ncores_per_group = 1\ncache_design = i\n"
    "l3_size_bytes = 1\nm_s = 1\nm_um1 = 2\nm_uc1 = 1\nm_ucmax = 1\n",  # uc1 < um1
    _GOOD.replace("freq_hz = 1e9", "freq_hz = -1"),
    _GOOD.replace("freq_hz = 1e9", "freq_hz = 0"),
    _GOOD.replace("freq_hz = 1e9", "freq_hz = nan"),
    _GOOD.replace("freq_hz = 1e9", "freq_hz = inf"),
    _GOOD.replace("m_s = 1", "m_s = inf"),
    _GOOD + "jacobi.core_cycles = 0\njacobi.L1.bytes_per_update = 64\n",
    _GOOD + "jacobi.core_cycles = -2\n",
    _GOOD + "jacobi.core_cycles = inf\n",
    *_UNCONVERTED,
])
def test_bad_model_files_rejected(bad):
    parse_machine_model(_GOOD)
    with pytest.raises(ModelFormatError, match=_UNCONVERTED.get(bad)):
        parse_machine_model(bad)


# ---------------------------------------------------------------------------
# bandwidth baselines
# ---------------------------------------------------------------------------

def test_baseline_perf_table_values():
    assert baseline_perf(EP) == 1187.5e6
    assert baseline_perf(EX) == 493.75e6


def test_baseline_perf_unit_case():
    m = MachineModel(name="u", freq_hz=1.0, cores_per_group=1,
                     cache_design="inclusive", l3_size_bytes=1.0,
                     m_s=16.0, m_um1=16.0, m_uc1=16.0, m_ucmax=16.0, kernels={})
    assert baseline_perf(m) == 1.0


def test_pipelined_bound_values():
    assert pipelined_bound(EP, 1) == 1012.5e6
    assert pipelined_bound(EP, 4) == 4 * pipelined_bound(EP, 1)
    assert pipelined_bound(EP, 1) == EP.m_um1 / 16.0
    with pytest.raises(ValueError):
        pipelined_bound(EP, 0)


@settings(max_examples=30, deadline=None)
@given(alpha=st.integers(-8, 8).map(lambda e: 2.0 ** e))
def test_baselines_linear_in_bandwidth(alpha):
    scaled = MachineModel(name="s", freq_hz=EP.freq_hz,
                          cores_per_group=EP.cores_per_group,
                          cache_design=EP.cache_design,
                          l3_size_bytes=EP.l3_size_bytes,
                          m_s=EP.m_s * alpha, m_um1=EP.m_um1 * alpha,
                          m_uc1=EP.m_uc1 * alpha, m_ucmax=EP.m_ucmax * alpha,
                          kernels={})
    assert baseline_perf(scaled) == alpha * baseline_perf(EP)
    assert pipelined_bound(scaled, 3) == alpha * pipelined_bound(EP, 3)


# ---------------------------------------------------------------------------
# in-cache cycle model
# ---------------------------------------------------------------------------

def test_nehalem_jacobi_l1_cycles():
    r = cache_cycle_model(EP, "jacobi", "L1")
    assert (r.cycles_min, r.cycles_max) == (20.0, 20.0)


def test_nehalem_jacobi_l3_cycles_and_bandwidth():
    r = cache_cycle_model(EP, "jacobi", "L3")
    assert (r.cycles_min, r.cycles_max) == (24.0, 28.0)
    assert round(r.bandwidth_min / 1e9, 1) == 12.2
    assert round(r.bandwidth_max / 1e9, 1) == 14.2


def test_istanbul_jacobi_l3_cycles_and_bandwidth():
    r = cache_cycle_model(IST, "jacobi", "L3")
    assert (r.cycles_min, r.cycles_max) == (26.0, 26.0)
    assert abs(r.bandwidth_min - 12.8e9) <= 0.1e9
    assert r.bandwidth_min == r.bandwidth_max


def test_update_kernel_cycles():
    assert cache_cycle_model(EP, "update", "L1").cycles_min == 4.0
    r = cache_cycle_model(EP, "update", "L3")
    assert (r.cycles_min, r.cycles_max) == (12.0, 12.0)
    # 128 bytes in 12 cycles at 2.66 GHz lands on the measured in-L3 update
    # bandwidth of this chip
    assert abs(r.bandwidth_min - EP.m_uc1) < 0.1e9
    assert cache_cycle_model(IST, "update", "L3").cycles_max == 18.0


def test_unknown_level_rejected():
    with pytest.raises(ValueError):
        cache_cycle_model(EP, "jacobi", "L4")
    with pytest.raises(ValueError):
        cache_cycle_model(EP, "triad", "L1")


def test_nehalem_ex_matches_ep_in_cache():
    for lvl in ("L1", "L2", "L3"):
        a = cache_cycle_model(EP, "jacobi", lvl)
        b = cache_cycle_model(EX, "jacobi", lvl)
        assert (a.cycles_min, a.cycles_max) == (b.cycles_min, b.cycles_max)


# ---------------------------------------------------------------------------
# shared-cache scalability criterion
# ---------------------------------------------------------------------------

def test_scalability_nehalem_ep_t4_marginal():
    required, scales = l3_scalability_check(EP, 4, 10e9)
    assert required == 50e9 and scales is True
    required5, scales5 = l3_scalability_check(EP, 5, 10e9)
    assert required5 == 60e9 and scales5 is False


def test_scalability_nehalem_ex_t8():
    required, scales = l3_scalability_check(EX, 8, 13e9)
    assert required == 117e9 and scales is True


def test_scalability_t0_is_memory_streams_only():
    required, _ = l3_scalability_check(EP, 0, 10e9)
    assert required == 10e9


def test_default_bj_is_cycle_model_lower_bound():
    assert default_bj(EP) == cache_cycle_model(EP, "jacobi", "L3").bandwidth_min


# ---------------------------------------------------------------------------
# multi-layer halo model
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(L=st.integers(2, 500))
def test_advantage_h1_is_exactly_one(L):
    assert multihalo_advantage(L, 1, QDR) == 1.0


def test_advantage_vanishes_at_large_subdomains():
    for h in (2, 8, 16, 32):
        assert 0.95 <= multihalo_advantage(400, h, QDR) <= 1.05


def test_aggregation_wins_at_tiny_subdomains():
    assert multihalo_advantage(15, 32, QDR) > 1.0


def test_halo_overhead_degrades_mid_sizes_for_large_h():
    assert multihalo_advantage(50, 32, QDR) < multihalo_advantage(50, 2, QDR)


def test_efficiency_free_network_is_one():
    free = NetworkModel(latency_s=1e-30, bandwidth_Bps=1e30, node_perf_lups=2e9)
    assert comm_efficiency(100, 2, free) == pytest.approx(1.0, abs=1e-9)


def test_efficiency_monotone_in_subdomain_size():
    vals = [comm_efficiency(L, 2, QDR) for L in range(20, 401, 10)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 0.5
    assert comm_efficiency(400, 2, QDR) > comm_efficiency(50, 2, QDR)


def test_pinned_regression_anchors():
    assert multihalo_advantage(15, 32, QDR) == ADV_15_32
    assert multihalo_advantage(50, 2, QDR) == ADV_50_2
    assert multihalo_advantage(50, 32, QDR) == ADV_50_32
    assert comm_efficiency(100, 2, QDR) == EFF_100_2
    assert comm_efficiency(20, 2, QDR) == EFF_20_2


def test_model_precondition_errors():
    with pytest.raises(ValueError):
        multihalo_advantage(0, 2, QDR)
    with pytest.raises(ValueError):
        comm_efficiency(10, 0, QDR)
    for latency in ("0", "nan", "inf"):
        with pytest.raises(ModelFormatError):
            parse_network_model(f"latency_s = {latency}\nbandwidth_Bps = 1\n"
                                "node_perf_lups = 1\n")
    with pytest.raises(ModelFormatError):  # nan behind a positive value
        parse_network_model("latency_s = 1\nbandwidth_Bps = nan\n"
                            "node_perf_lups = 1\n")
    for b_j in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite b_j"):
            l3_scalability_check(EP, 2, b_j)

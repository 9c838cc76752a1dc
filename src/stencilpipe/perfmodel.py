"""Analytical performance models.

Three families:

* bandwidth baselines: a perfectly streamed Jacobi moves 16 bytes of memory
  traffic per cell update, so peak LUP/s is bandwidth / 16;
* an in-cache cycle model: per 64-byte cacheline update, core execution
  cycles plus the cycles of every cacheline transfer between cache levels
  that does not overlap with execution; machine descriptions ship as data
  files so new machines need no code changes;
* a latency/bandwidth model of multi-layer halo exchange that compares
  exchanging h layers every h updates against the classic one layer per
  update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .flatfile import parse_flat

CACHELINE = 64
BYTES_PER_UPDATE = 16.0  # streamed Jacobi: 8 B read + 8 B write per cell


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class TransferEntry:
    cachelines: float        # lines moved per cacheline update
    cycles_per_line: float
    overlappable: bool = False  # may fully hide behind core execution

    @property
    def cycles(self) -> float:
        return self.cachelines * self.cycles_per_line


@dataclass(frozen=True)
class LevelTraffic:
    transfers: tuple           # TransferEntry...
    bytes_per_update: float    # traffic crossing the data level per CL update


@dataclass(frozen=True)
class KernelModel:
    core_cycles: float         # cycles per cacheline update on L1 data
    levels: dict               # level name -> LevelTraffic

    def __post_init__(self):
        if not 0 < self.core_cycles < math.inf:  # the model divides by it
            raise ModelFormatError("core_cycles must be finite and > 0")


@dataclass(frozen=True)
class MachineModel:
    name: str
    freq_hz: float
    cores_per_group: int
    cache_design: str          # "inclusive" | "exclusive"
    l3_size_bytes: float
    m_s: float                 # STREAM copy bandwidth, bytes/s
    m_um1: float               # single-thread update bandwidth, memory
    m_uc1: float               # single-thread update bandwidth, outer cache
    m_ucmax: float             # aggregate update bandwidth, outer cache
    kernels: dict              # kernel name -> KernelModel

    def __post_init__(self):
        for val, key in ((self.freq_hz, "freq_hz"), (self.m_s, "m_s"),
                         (self.m_um1, "m_um1"), (self.m_uc1, "m_uc1"),
                         (self.m_ucmax, "m_ucmax")):
            if not 0 < val < math.inf:  # nan too
                raise ModelFormatError(f"{key} must be finite and > 0")
        if self.m_uc1 < self.m_um1:
            raise ModelFormatError("cache bandwidth below memory bandwidth")


@dataclass(frozen=True)
class NetworkModel:
    latency_s: float
    bandwidth_Bps: float
    node_perf_lups: float

    def __post_init__(self):
        values = (self.latency_s, self.bandwidth_Bps, self.node_perf_lups)
        if not all(0 < v < math.inf for v in values):  # nan too
            raise ModelFormatError("network parameters must be finite and > 0")


# ---------------------------------------------------------------------------
# model file parsing: flat "key = value" text
# ---------------------------------------------------------------------------

def _parse_transfers(val: str):
    if val.lower() in ("", "none"):
        return ()
    entries = []
    for item in val.split(","):
        item = item.strip()
        overlap = item.endswith(":overlap")
        if overlap:
            item = item[:-len(":overlap")]
        lines, _, cyc = item.partition("@")
        try:
            entries.append(TransferEntry(float(lines), float(cyc), overlap))
        except ValueError as exc:
            raise ModelFormatError(f"bad transfer entry {item!r}") from exc
    return tuple(entries)


def _machine_value(key: str, val: str):
    """A machine file's value as its key's type: text for the name and cache
    design, an int core count, transfer entries, else a float."""
    if key.endswith(".transfers"):
        return _parse_transfers(val)
    if key in ("name", "cache_design"):
        return val
    return int(val) if key == "cores_per_group" else float(val)


def parse_machine_model(text: str) -> MachineModel:
    kv = parse_flat(text, ModelFormatError, _machine_value)
    kernels = {}
    plain = {}
    for key, val in kv.items():
        parts = key.split(".")
        if len(parts) == 1:
            plain[key] = val
            continue
        kernel = parts[0]
        spot = kernels.setdefault(kernel, {"core_cycles": None, "levels": {}})
        if len(parts) == 2 and parts[1] == "core_cycles":
            spot["core_cycles"] = val
        elif len(parts) == 3:
            level, field = parts[1], parts[2]
            lv = spot["levels"].setdefault(level, {"transfers": (), "bytes": 0.0})
            if field == "transfers":
                lv["transfers"] = val
            elif field == "bytes_per_update":
                lv["bytes"] = val
            else:
                raise ModelFormatError(f"unknown kernel field {key!r}")
        else:
            raise ModelFormatError(f"unknown key {key!r}")
    built = {}
    for kernel, spot in kernels.items():
        if spot["core_cycles"] is None:
            raise ModelFormatError(f"kernel {kernel!r} missing core_cycles")
        levels = {name: LevelTraffic(transfers=lv["transfers"],
                                     bytes_per_update=lv["bytes"])
                  for name, lv in spot["levels"].items()}
        built[kernel] = KernelModel(core_cycles=spot["core_cycles"], levels=levels)
    try:
        return MachineModel(kernels=built, **{key: plain[key] for key in (
            "name", "freq_hz", "cores_per_group", "cache_design",
            "l3_size_bytes", "m_s", "m_um1", "m_uc1", "m_ucmax")})
    except KeyError as exc:
        raise ModelFormatError(f"missing machine field {exc}") from exc


def parse_network_model(text: str) -> NetworkModel:
    kv = parse_flat(text, ModelFormatError, lambda _key, val: float(val))
    try:
        return NetworkModel(latency_s=kv["latency_s"],
                            bandwidth_Bps=kv["bandwidth_Bps"],
                            node_perf_lups=kv["node_perf_lups"])
    except KeyError as exc:
        raise ModelFormatError(f"missing network field {exc}") from exc


def _read_data(filename: str) -> str:
    return resources.files("stencilpipe.data").joinpath(filename).read_text()


def load_machine_model(source: str) -> MachineModel:
    """Load a machine model from a file path, or by shipped name
    (nehalem_ep, nehalem_ex, istanbul)."""
    try:
        return parse_machine_model(_read_data(f"{source}.model"))
    except FileNotFoundError:
        with open(source) as f:
            return parse_machine_model(f.read())


def load_network_model(source: str) -> NetworkModel:
    """Load a network model from a file path or by shipped name (qdr_ib)."""
    try:
        return parse_network_model(_read_data(f"{source}.network"))
    except FileNotFoundError:
        with open(source) as f:
            return parse_network_model(f.read())


# ---------------------------------------------------------------------------
# bandwidth baselines
# ---------------------------------------------------------------------------

def baseline_perf(m: MachineModel) -> float:
    """Memory-bound LUP/s of a perfectly streamed two-array Jacobi."""
    return m.m_s / BYTES_PER_UPDATE


def pipelined_bound(m: MachineModel, t: int) -> float:
    """LUP/s bound when t in-cache updates ride on each memory transfer.
    Over-optimistic on purpose: in-cache execution is not free, so measured
    runs fall short of this line."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return t * m.m_um1 / BYTES_PER_UPDATE


# ---------------------------------------------------------------------------
# in-cache cycle model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CycleModelResult:
    kernel: str
    level: str
    cycles_min: float          # every overlappable transfer hidden
    cycles_max: float          # nothing hidden
    bytes_per_update: float
    bandwidth_min: float | None  # from cycles_max
    bandwidth_max: float | None  # from cycles_min


def cache_cycle_model(m: MachineModel, kernel: str, data_level: str) -> CycleModelResult:
    """Cycles per cacheline update with the working set resident in
    ``data_level``, and the resulting data-level bandwidth per core."""
    try:
        km = m.kernels[kernel]
    except KeyError:
        raise ValueError(f"machine {m.name!r} has no kernel model {kernel!r}")
    try:
        traffic = km.levels[data_level]
    except KeyError:
        raise ValueError(f"no transfer list for {kernel!r} at level {data_level!r}")
    cycles_max = km.core_cycles + sum(t.cycles for t in traffic.transfers)
    cycles_min = km.core_cycles + sum(t.cycles for t in traffic.transfers
                                      if not t.overlappable)
    if traffic.bytes_per_update > 0:
        bw_min = traffic.bytes_per_update * m.freq_hz / cycles_max
        bw_max = traffic.bytes_per_update * m.freq_hz / cycles_min
    else:
        bw_min = bw_max = None
    return CycleModelResult(kernel=kernel, level=data_level,
                            cycles_min=cycles_min, cycles_max=cycles_max,
                            bytes_per_update=traffic.bytes_per_update,
                            bandwidth_min=bw_min, bandwidth_max=bw_max)


def default_bj(m: MachineModel) -> float:
    """Effective outer-cache bandwidth of the stencil kernel used by the
    scalability check; defaults to the cycle model's conservative bound."""
    res = cache_cycle_model(m, "jacobi", "L3")
    if res.bandwidth_min is None:
        raise ValueError("jacobi L3 model has no byte accounting")
    return res.bandwidth_min


def l3_scalability_check(m: MachineModel, t: int, b_j: float):
    """t pipeline threads plus the memory streams all press on the shared
    cache: (t+1)*B_j must fit under its aggregate bandwidth."""
    if t < 0 or not 0 < b_j < math.inf:  # nan too
        raise ValueError(f"need t >= 0 and a finite b_j > 0, got b_j={b_j}")
    required = (t + 1) * b_j
    return required, required <= m.m_ucmax


# ---------------------------------------------------------------------------
# multi-layer halo model
# ---------------------------------------------------------------------------

def _halo_cycle_times(L: int, h: int, net: NetworkModel):
    """(compute_seconds, communication_seconds) of one h-update cycle on a
    cubic L^3 subdomain.

    Compute counts the bulk updates.  Communication is six messages per
    cycle, two per axis, under a latency + volume/bandwidth cost: the first
    axis ships h face layers of the subdomain cross-section; later axes also
    carry the halo strips received in the phase before, growing the shipped
    face by 2h along one axis.  Deeper corner-block volumes are deliberately
    left out, like the other second-order costs this model disregards.
    """
    if L < 1 or h < 1:
        raise ValueError("need L >= 1 and h >= 1")
    t_comp = h * float(L) ** 3 / net.node_perf_lups
    v_x = 8.0 * h * L * L
    v_y = 8.0 * h * (L + 2 * h) * L
    v_z = 8.0 * h * (L + 2 * h) * L
    t_comm = sum(2.0 * (net.latency_s + v / net.bandwidth_Bps)
                 for v in (v_x, v_y, v_z))
    return t_comp, t_comm


def multihalo_advantage(L: int, h: int, net: NetworkModel) -> float:
    """Run-time ratio of the one-layer-per-update exchange over the h-layer
    exchange, per update; > 1 means the aggregated exchange wins."""
    tc1, tm1 = _halo_cycle_times(L, 1, net)
    tch, tmh = _halo_cycle_times(L, h, net)
    per_update_single = tc1 + tm1
    per_update_multi = (tch + tmh) / h
    return per_update_single / per_update_multi


def comm_efficiency(L: int, h: int, net: NetworkModel) -> float:
    """Fraction of cycle time spent computing, in (0, 1]."""
    tc, tm = _halo_cycle_times(L, h, net)
    return tc / (tc + tm)

"""Host facts and the measured host and loopback models.

The machine model is measured with ``stencilpipe.bench`` and written as a
flat ``key = value`` file that ``load_machine_model`` parses back; the
loopback network model comes from ``sendrecv`` exchanges over one TCP pair
and is written as a ``.network`` file that ``load_network_model`` reads back.
Every ``perfmodel.*`` number is derived from the parsed files, so the files
are what a later run or a reader can check.
"""

from __future__ import annotations

import os
import platform
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from stencilpipe import bench, perfmodel, transport
from workloads import free_port

# Memory-footprint arrays.  The host rule for a bandwidth measurement is an
# array of at least four times the last-level cache; on a host whose LLC is
# hundreds of MiB that cannot be met without crowding out other work, so the
# array is capped and the result labelled in-cache.
MEM_ARRAY_CAP_BYTES = 64 << 20
CACHE_ARRAY_BYTES = 512 << 10       # per thread, inside a 1 MiB+ L2
BENCH_REPS = 5

PING_SMALL_BYTES = 8
PING_LARGE_BYTES = 1 << 20
PING_REPS = 41


def _read(path, default=""):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def _size_bytes(text: str) -> int:
    mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in mult:
        return int(text[:-1]) * mult[text[-1]]
    return int(text) if text.isdigit() else 0


def cache_sizes():
    """{"L1d": bytes, "L2": bytes, ...} of cpu0, read from sysfs."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level, kind = _read(idx / "level"), _read(idx / "type")
        if kind == "Instruction":
            continue
        name = f"L{level}" + ("d" if kind == "Data" else "")
        out[name] = _size_bytes(_read(idx / "size"))
    return out


def _cpu_hz() -> float:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("cpu MHz"):
            return float(line.split(":", 1)[1]) * 1e6
    return 0.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git (a checkout
    exported without .git reports "unknown")."""
    head = _read(root / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = _read(root / ".git" / ref)
    if sha:
        return sha
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def host_facts(root: Path) -> dict:
    caches = cache_sizes()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "llc_bytes": caches[max(caches)] if caches else 0,
        "cpu_hz": _cpu_hz(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(root),
    }


def measure_machine(facts: dict, path: Path):
    """Measure copy and update bandwidths, write them as a machine model file
    and parse it back.  Returns (MachineModel, notes)."""
    nproc, llc = facts["nproc"], facts["llc_bytes"]
    mem_bytes = min(4 * llc, MEM_ARRAY_CAP_BYTES) if llc else MEM_ARRAY_CAP_BYTES
    mem_elems = mem_bytes // 8
    cache_elems = CACHE_ARRAY_BYTES // 8
    copy = bench.stream_copy_bench(mem_elems, threads=nproc, reps=BENCH_REPS)
    um1 = bench.update_bench(mem_elems, 1, BENCH_REPS, "memory")
    uc1 = bench.update_bench(cache_elems, 1, BENCH_REPS, "cache")
    ucmax = bench.update_bench(cache_elems * nproc, nproc, BENCH_REPS, "cache")
    in_cache = mem_bytes < 4 * llc
    label = "in-cache" if in_cache else "memory"
    notes = {
        "mem_array_bytes": mem_bytes, "cache_array_bytes": CACHE_ARRAY_BYTES,
        "llc_bytes": llc, "mem_result_label": label,
        "copy_Bps": copy.bandwidth, "update_mem_Bps": um1.bandwidth,
        "update_cache1_Bps": uc1.bandwidth,
        "update_cache_all_Bps": ucmax.bandwidth,
    }
    # The model format requires cache bandwidth >= memory bandwidth; when the
    # "memory" array is itself cache-resident the two can swap by noise.
    m_uc1 = max(uc1.bandwidth, um1.bandwidth)
    path.write_text("\n".join([
        "# Host model measured with stencilpipe.bench.",
        f"# copy and update arrays: {mem_bytes} B each ({label}: LLC is "
        f"{llc} B, 4x LLC would be {4 * llc} B); cache arrays: "
        f"{CACHE_ARRAY_BYTES} B per thread",
        "name = host",
        f"freq_hz = {facts['cpu_hz'] or 1e9!r}",
        f"cores_per_group = {nproc}",
        "cache_design = unknown",
        f"l3_size_bytes = {float(llc)!r}",
        f"m_s = {copy.bandwidth!r}",
        f"m_um1 = {um1.bandwidth!r}",
        f"m_uc1 = {m_uc1!r}",
        f"m_ucmax = {ucmax.bandwidth!r}",
        ""]))
    return perfmodel.load_machine_model(str(path)), notes


def measure_loopback(node_perf_lups: float, path: Path):
    """Time sendrecv exchanges of a small and a large message between two
    TCP endpoints in this process; latency is the small-message median and
    bandwidth the extra bytes over the extra median time.  Writes and parses
    back a network model file."""
    addresses = [("127.0.0.1", free_port()), ("127.0.0.1", free_port())]
    eps = [None, None]
    times = {PING_SMALL_BYTES: [], PING_LARGE_BYTES: []}
    errors = []

    def body(r):
        try:
            eps[r] = transport.tcp_endpoint(r, addresses)
            for size in (PING_SMALL_BYTES, PING_LARGE_BYTES):
                payload = bytes(size)
                for _ in range(PING_REPS):
                    t0 = time.perf_counter()
                    eps[r].sendrecv(1 - r, payload, size)
                    if r == 0:
                        times[size].append(time.perf_counter() - t0)
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=body, args=(r,), daemon=True)
               for r in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    for ep in eps:
        if ep is not None:
            ep.close()
    if errors:
        raise errors[0]
    small = statistics.median(times[PING_SMALL_BYTES])
    large = statistics.median(times[PING_LARGE_BYTES])
    bandwidth = (PING_LARGE_BYTES - PING_SMALL_BYTES) / max(large - small, 1e-9)
    path.write_text("\n".join([
        "# TCP loopback between two endpoints of one process, full-duplex",
        f"# sendrecv, median of {PING_REPS} exchanges at {PING_SMALL_BYTES} B "
        f"and {PING_LARGE_BYTES} B; node_perf_lups is the measured per-rank rate",
        f"latency_s = {small!r}",
        f"bandwidth_Bps = {bandwidth!r}",
        f"node_perf_lups = {node_perf_lups!r}",
        ""]))
    return perfmodel.load_network_model(str(path))

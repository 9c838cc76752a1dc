"""The benchmark's workloads and the code that runs one repetition of each.

Every repetition drives the public stencilpipe API the way ``cli.py`` does:
``create_grid`` + ``run_pipelined`` for the shared-memory workloads, and
``transport.tcp_endpoint`` + ``halo.run_rank`` per rank for the distributed
one.  Calls go through module attributes (``stencilpipe.create_grid``,
``transport.tcp_endpoint``, ...) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import stencilpipe
from stencilpipe import halo, pipeline, transport

# The first rank starts listening before the second dials, so the connect
# time measures a connection between two ready peers instead of the dialer's
# 50 ms retry sleep.
LISTEN_HEAD_START_S = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: int                 # cubic global interior extent
    mode: str                 # "two_grid" | "compressed"
    t: int
    T: int
    block: tuple
    passes: int               # passes (shared memory) or cycles (distributed)
    topo: tuple = (1, 1, 1)   # ranks per axis; more than one rank means TCP

    @property
    def distributed(self) -> bool:
        return self.ranks > 1

    def pipeline_config(self) -> pipeline.PipelineConfig:
        return pipeline.PipelineConfig(
            spec=stencilpipe.BlockSpec(*self.block), n=1, t=self.t, T=self.T,
            sync_mode="relaxed", grid_mode=self.mode)

    @property
    def sweeps(self) -> int:
        """Reference sweeps equal to one repetition."""
        return self.t * self.T * self.passes

    @property
    def owned_updates(self) -> int:
        """Lattice-site updates of the owned domain in one repetition."""
        return self.grid ** 3 * self.sweeps

    @property
    def ranks(self) -> int:
        return self.topo[0] * self.topo[1] * self.topo[2]


WORKLOADS = {w.name: w for w in (
    Workload("pipe_stream",
             "200^3 two_grid t=2 T=2, 25 blocks/pass: per-cell kernel cost "
             "dominates, sync and halo cost is small",
             grid=200, mode="two_grid", t=2, T=2, block=(200, 40, 40),
             passes=2),
    Workload("pipe_fine",
             "96^3 compressed t=2 T=1, 576 blocks/pass: per-block call, spin "
             "and ring-strip cost dominates, in-place shifted writes",
             grid=96, mode="compressed", t=2, T=1, block=(96, 4, 4),
             passes=16),
    Workload("dist_tcp",
             "120^3 on 2x1x1 ranks over TCP loopback, h=4: the only workload "
             "where halo pack, transfer, unpack and redundant compute run",
             grid=120, mode="two_grid", t=1, T=4, block=(60, 20, 20),
             passes=8, topo=(2, 1, 1)),
)}


@dataclass
class Rep:
    """One timed repetition."""
    setup_s: float            # building the grids (+ fill and connect for TCP)
    wall_s: float             # the run itself
    result: np.ndarray        # global interior after the run, axes (z, y, x)
    grid_bytes: int           # computed: bytes of every grid the run holds
    pred_violations: int | None = None   # None where the API does not return it
    halo: dict = field(default_factory=dict)  # rank timings, summed over ranks


def oracle(w: Workload, seed: int):
    """Interior after ``w.sweeps`` plain reference sweeps, and the seconds the
    sweeps took (single thread, same problem)."""
    a = stencilpipe.create_grid(w.grid, w.grid, w.grid, init="random",
                                seed=seed)
    b = a.copy()
    t0 = time.perf_counter()
    for _ in range(w.sweeps):
        stencilpipe.reference_sweep(a, b)
        a, b = b, a
    seconds = time.perf_counter() - t0
    return a.interior_view().copy(), seconds


def run_rep(w: Workload, seed: int, thread_cls=threading.Thread) -> Rep:
    return _run_dist(w, seed, thread_cls) if w.distributed else _run_pipe(w, seed)


def _run_pipe(w: Workload, seed: int) -> Rep:
    cfg = w.pipeline_config()
    n = w.grid
    t0 = time.perf_counter()
    if w.mode == "compressed":
        grids = stencilpipe.create_grid(n, n, n, pad=cfg.h, init="random",
                                        seed=seed)
    else:
        a = stencilpipe.create_grid(n, n, n, init="random", seed=seed)
        grids = (a, a.copy())
    t1 = time.perf_counter()
    stats = pipeline.run_pipelined(grids, cfg, w.passes)
    t2 = time.perf_counter()
    held = grids if isinstance(grids, tuple) else (grids,)
    return Rep(setup_s=t1 - t0, wall_s=t2 - t1,
               result=stats.result.interior_view(),
               grid_bytes=sum(g.data.nbytes for g in held),
               pred_violations=stats.pred_violations)


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _run_dist(w: Workload, seed: int, thread_cls) -> Rep:
    topo = halo.RankTopology(*w.topo)
    dist = halo.DistConfig(topo=topo, cfg=w.pipeline_config(), cycles=w.passes,
                           global_dims=(w.grid,) * 3, seed=seed, init="random")
    ranks = topo.ranks
    addresses = [("127.0.0.1", free_port()) for _ in range(ranks)]
    eps = [None] * ranks
    out = [None] * ranks
    errors = []

    def body(r):
        try:
            t0 = time.perf_counter()
            eps[r] = transport.tcp_endpoint(r, addresses)
            t1 = time.perf_counter()
            rt = halo.run_rank(dist, r, eps[r])
            out[r] = (t1 - t0, time.perf_counter() - t1, rt)
        except Exception as exc:  # reported by the caller; unblock the peers
            errors.append(exc)
            for ep in eps:
                if ep is not None:
                    ep.close()

    threads = [thread_cls(target=body, args=(r,), daemon=True)
               for r in range(ranks)]
    for r, th in enumerate(threads):
        th.start()
        if r == 0:
            time.sleep(LISTEN_HEAD_START_S)
    for th in threads:
        th.join()
    for ep in eps:
        if ep is not None:
            ep.close()
    if errors:
        raise errors[0]
    runtimes = [rt for _c, _e, rt in out]
    connect_s = min(c for c, _e, _rt in out)  # the last rank to start dials
    fill_s = max(e - rt.timings["wall_s"] for _c, e, rt in out)
    return Rep(setup_s=connect_s + fill_s,
               wall_s=max(rt.timings["wall_s"] for rt in runtimes),
               result=stencilpipe.assemble_global(runtimes).interior_view(),
               grid_bytes=sum(g.data.nbytes for rt in runtimes
                              for g in rt.engine.grids),
               halo={k: sum(rt.timings[k] for rt in runtimes) for k in
                     ("pack_s", "transfer_s", "unpack_s", "messages", "bytes")})

"""Command-line entry point.

Subcommands: solve (one configuration, optional oracle verification), sweep
(cartesian parameter sweeps, one CSV row each), model (evaluate the
analytical models over ranges), bench (memory microbenchmarks), dist
(distributed runs: in-process ranks, or one TCP rank per invocation via a
rankfile).  Config files are flat ``key = value`` text mirroring the flag
names; explicit flags override file values.  Every emitted row carries the
config hash so results can be reproduced from their inputs.

Exit codes: 0 ok, 1 verification failure, 2 configuration error,
3 transport error, 4 run error (the pipeline watchdog fired), 5 internal
error (any other exception).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from contextlib import ExitStack
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .bench import stream_copy_bench, update_bench
from .flatfile import parse_flat
from .grid import BlockSpec, Grid3, create_grid, write_snapshot
from .halo import (DistConfig, RankTopology, assemble_global,
                   decompose_domain, run_distributed_inprocess, run_rank)
from .kernel import reference_sweep
from .perfmodel import (baseline_perf, cache_cycle_model, comm_efficiency,
                        default_bj, l3_scalability_check, load_machine_model,
                        load_network_model, multihalo_advantage,
                        pipelined_bound)
from .pipeline import (PipelineConfig, PipelineDeadlock, grid_bytes,
                       run_bytes, run_pipelined)
from .transport import TransportError, parse_rankfile, tcp_endpoint

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3
EXIT_RUN = 4
EXIT_INTERNAL = 5


@dataclass
class RunConfig:
    """A compute run as flags and config files give it.  :meth:`run` makes
    it the :class:`DistConfig` that ``solve``, ``sweep`` and ``dist``
    execute, whose digest is the provenance stamp embedded in outputs;
    ``passes`` counts a ``dist`` run's cycles too."""
    nx: int = 60
    ny: int = 60
    nz: int = 60
    n: int = 1
    t: int = 1
    T: int = 1
    d_l: int = 1
    d_u: int = 3
    d_t: int = 0
    bx: int = 60
    by: int = 20
    bz: int = 20
    sync: str = "relaxed"
    mode: str = "two_grid"
    passes: int = 2
    seed: int = 42
    init: str = "random"

    def run(self, topo=(1, 1, 1), weak=False, watchdog_s=30.0) -> DistConfig:
        """The run on ``topo`` ranks.  The grid extents are the global
        grid's, or with ``weak`` each rank's share of it."""
        topo = RankTopology(*topo)
        dims = (self.nx, self.ny, self.nz)
        if weak:
            dims = tuple(d * p for d, p in zip(dims, topo.dims))
        cfg = PipelineConfig(spec=BlockSpec(self.bx, self.by, self.bz),
                             n=self.n, t=self.t, T=self.T, d_l=self.d_l,
                             d_u=self.d_u, d_t=self.d_t, sync_mode=self.sync,
                             grid_mode=self.mode, watchdog_s=watchdog_s)
        return DistConfig(topo=topo, cfg=cfg, cycles=self.passes,
                          global_dims=dims, seed=self.seed, init=self.init)

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def parse_span(text: str):
    """Sweep grammar: 'lo:hi:step' (inclusive, step optional) or 'a,b,c'.
    A span that yields no value is an error, not an empty sweep; callers
    name the flag it came from (:func:`_flag`)."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) == 2:
            lo, hi, step = int(parts[0]), int(parts[1]), 1
        elif len(parts) == 3:
            lo, hi, step = (int(p) for p in parts)
        else:
            raise ValueError("a range is lo:hi or lo:hi:step")
        if step < 1:
            raise ValueError("a range step must be >= 1")
        values = list(range(lo, hi + 1, step))
    else:
        values = [int(p) for p in text.split(",") if p != ""]
    if not values:
        raise ValueError("the span holds no values")
    return values


def _flag(flag: str, text: str, read):
    """``read(text)``, ``text`` being the value of ``flag``: a ValueError
    names the flag."""
    try:
        return read(text)
    except ValueError as exc:
        raise ValueError(f"{flag} {text!r}: {exc}") from None


def _triple(text: str):
    """Three comma-separated integers."""
    values = [int(v) for v in text.split(",")]
    if len(values) != 3:
        raise ValueError(f"expected 3 comma-separated integers, got "
                         f"{len(values)}")
    return values


def _config_from_args(args) -> RunConfig:
    base = RunConfig()
    values = base.as_dict()
    if getattr(args, "config", None):
        def convert(key, val):
            if key not in values:
                raise ValueError("unknown config key")
            return type(values[key])(val)

        values.update(parse_flat(Path(args.config).read_text(),
                                 convert=convert))
    if getattr(args, "grid", None) is not None:
        values["nx"] = values["ny"] = values["nz"] = args.grid
    for name in ("nx", "ny", "nz", "n", "t", "T", "d_l", "d_u", "d_t",
                 "passes", "seed", "sync", "mode", "init"):
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    if getattr(args, "block", None) is not None:
        values["bx"], values["by"], values["bz"] = _flag(
            "--block", args.block, _triple)
    dims = (values["nx"], values["ny"], values["nz"])
    if min(dims) < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {dims}")
    cfg = RunConfig(**values)
    for axis in ("x", "y", "z"):
        b, n = values[f"b{axis}"], values[f"n{axis}"]
        if b > n:
            raise ValueError(f"block {axis} extent {b} exceeds grid {n}")
    return cfg


def mem_available(path="/proc/meminfo"):
    """``MemAvailable`` of ``/proc/meminfo`` in bytes, or None where the file
    or the field is absent."""
    try:
        with open(path) as f:
            for line in f:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def _verify_bytes(dims) -> int:
    """Bytes that :func:`_verify` holds at once: the oracle pair and the
    interior-sized temporary of each reference sweep."""
    return 2 * grid_bytes(dims) + 8 * math.prod(dims)


def _preflight(need: int) -> None:
    """Refuse a run whose grids would not fit in the memory available now
    (MemoryError, exit 2): an allocation past it succeeds lazily under
    overcommit and the run would be killed mid-fill."""
    avail = mem_available()
    if avail is not None and need > avail:
        raise MemoryError(f"the run's grids need {need} B but only {avail} B "
                          f"of memory are available")


def _verify(rows, result: Grid3, run: DistConfig) -> bool:
    """Compare ``result`` bitwise with the reference sweeps of ``run``'s
    initial global grid, h per pass; marks every row with the outcome."""
    a = create_grid(*run.global_dims, init=run.init, seed=run.seed)
    b = a.copy()
    for _ in range(run.cfg.h * run.cycles):
        reference_sweep(a, b)
        a, b = b, a
    ok = np.array_equal(result.interior_view(), a.interior_view())
    for row in rows:
        row["verified"] = "bitwise match" if ok else "MISMATCH"
    return ok


def _emit(rows, args, ok=True) -> int:
    """Print the rows as CSV (JSON with --json), copy them as CSV to --csv,
    and return the exit code: 1 when the oracle disagreed."""
    if rows:
        if args.json:
            json.dump(rows, sys.stdout, indent=2, default=str)
            sys.stdout.write("\n")
        with ExitStack() as stack:
            sinks = [] if args.json else [sys.stdout]
            if args.csv:
                sinks.append(stack.enter_context(open(args.csv, "w",
                                                      newline="")))
            for sink in sinks:
                writer = csv.DictWriter(sink, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
    if not ok:
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _execute(run: DistConfig):
    """Run a one-rank run's grid through :func:`run_pipelined`."""
    g = create_grid(*run.global_dims, pad=run.cfg.pad, init=run.init,
                    seed=run.seed)
    return run_pipelined(g, run.cfg, run.cycles)


def _stats_row(rc: RunConfig, run: DistConfig, stats) -> dict:
    """The run's row: its configuration, hash and rates, and where it
    waited: the wait seconds summed over its pipeline positions, and
    ``wait_share``, their total over wall seconds times positions."""
    pred = sum((t.pred_wait_s for t in stats.threads), 0.0)
    succ = sum((t.succ_wait_s for t in stats.threads), 0.0)
    budget = stats.wall_seconds * len(stats.threads)
    row = rc.as_dict()
    row.update(config_hash=run.digest()[:16],
               wall_seconds=stats.wall_seconds,
               mlups=round(stats.mlups, 3),
               spin_iterations_total=stats.spin_iterations_total,
               pred_wait_s=round(pred, 6), succ_wait_s=round(succ, 6),
               wait_share=round((pred + succ) / budget, 4) if budget else 0.0)
    return row


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    rc = _config_from_args(args)
    run = rc.run(watchdog_s=args.watchdog)
    dims = run.global_dims
    _preflight(run_bytes(dims, run.cfg.grid_mode, run.cfg.h)
               + (_verify_bytes(dims) if args.verify else 0))
    stats = _execute(run)
    if args.out:
        write_snapshot(stats.result, args.out)
    rows = [_stats_row(rc, run, stats)]
    ok = not args.verify or _verify(rows, stats.result, run)
    return _emit(rows, args, ok)


def cmd_sweep(args) -> int:
    base = _config_from_args(args)
    spans = [_flag(flag, text, parse_span) if text else [getattr(base, name)]
             for name, flag, text in (
                 ("t", "--sweep-t", args.sweep_t),
                 ("T", "--sweep-T", args.sweep_T),
                 ("d_l", "--sweep-dl", args.dl), ("d_u", "--sweep-du", args.du),
                 ("d_t", "--sweep-dt", args.dt),
                 ("bx", "--sweep-bx", args.sweep_bx))]
    # the largest run of the sweep: the pad grows with t and T
    _preflight(max(run_bytes((base.nx, base.ny, base.nz), base.mode,
                             base.n * t * T)
                   for t, T in itertools.product(*spans[:2])))
    rows = []
    for t, T, d_l, d_u, d_t, bx in itertools.product(*spans):
        values = dict(base.as_dict(), t=t, T=T, d_l=d_l, d_u=d_u, d_t=d_t,
                      bx=bx)
        try:
            rc = RunConfig(**values)
            run = rc.run()
            row = _stats_row(rc, run, _execute(run))
            row["status"] = "ok"
        except ValueError as exc:
            row = dict(values, config_hash="", wall_seconds="", mlups="",
                       spin_iterations_total="", pred_wait_s="",
                       succ_wait_s="", wait_share="",
                       status=f"config_error: {exc}")
        rows.append(row)
    return _emit(rows, args)


def cmd_model(args) -> int:
    rows = []
    if args.op in ("baseline", "bound", "cycles", "scalability"):
        machines = [load_machine_model(m) for m in args.machine]
        if not machines:
            raise ValueError("model op needs --machine")
    if args.op == "baseline":
        for m in machines:
            rows.append({"machine": m.name, "m_s_Bps": m.m_s,
                         "baseline_mlups": baseline_perf(m) / 1e6})
    elif args.op == "bound":
        for m in machines:
            for t in _flag("--t-range", args.t_range, parse_span):
                rows.append({"machine": m.name, "t": t,
                             "bound_mlups": pipelined_bound(m, t) / 1e6})
    elif args.op == "cycles":
        for m in machines:
            for level in args.levels.split(","):
                r = cache_cycle_model(m, args.kernel, level)
                rows.append({
                    "machine": m.name, "kernel": args.kernel,
                    "level": level, "cycles_min": r.cycles_min,
                    "cycles_max": r.cycles_max,
                    "bandwidth_min_GBps":
                        "" if r.bandwidth_min is None
                        else round(r.bandwidth_min / 1e9, 2),
                    "bandwidth_max_GBps":
                        "" if r.bandwidth_max is None
                        else round(r.bandwidth_max / 1e9, 2)})
    elif args.op == "scalability":
        for m in machines:
            bj = (default_bj(m) if args.bj == "auto"
                  else _flag("--bj", args.bj, float))
            for t in _flag("--t-range", args.t_range, parse_span):
                required, scales = l3_scalability_check(m, t, bj)
                rows.append({"machine": m.name, "t": t, "b_j_Bps": bj,
                             "required_Bps": required,
                             "m_ucmax_Bps": m.m_ucmax, "scales": scales})
    elif args.op in ("multihalo", "efficiency"):
        net = load_network_model(args.network)
        fn = (multihalo_advantage if args.op == "multihalo"
              else comm_efficiency)
        for L in _flag("--L", args.L, parse_span):
            for h in _flag("--h", args.h, parse_span):
                rows.append({"L": L, "h": h,
                             "latency_s": net.latency_s,
                             "bandwidth_Bps": net.bandwidth_Bps,
                             "node_perf_lups": net.node_perf_lups,
                             args.op: fn(L, h, net)})
    else:
        raise ValueError(f"unknown model op {args.op!r}")
    return _emit(rows, args)


def cmd_bench(args) -> int:
    if args.kernel == "copy":
        res = stream_copy_bench(args.elements, args.threads, args.reps)
    else:
        res = update_bench(args.elements, args.threads, args.reps,
                           footprint_target=args.target)
    return _emit([res.as_row()], args)


def cmd_dist(args) -> int:
    dist = _config_from_args(args).run(
        _flag("--topo", args.topo, _triple), weak=args.scaling == "weak",
        watchdog_s=args.watchdog)
    stamp = dist.digest()[:16]

    def rank_row(rt):
        return dict(rank=rt.sub.rank, config_hash=stamp,
                    **{k: (round(v, 6) if isinstance(v, float) else v)
                       for k, v in rt.timings.items()})

    if args.rankfile:
        if args.verify:
            raise ValueError("--verify cannot be combined with --rankfile: a "
                             "TCP rank holds only its own subdomain")
        if args.rank is None or args.ranks is None:
            raise ValueError("TCP mode needs --rank and --ranks")
        addresses = parse_rankfile(Path(args.rankfile).read_text())
        if len(addresses) != args.ranks:
            raise ValueError("rankfile entries != --ranks")
        if args.ranks != dist.topo.ranks:
            raise ValueError("--ranks must equal px*py*pz")
        dist.topo.coords(args.rank)  # a rank outside the topology is refused
        _preflight(_dist_bytes(dist, [args.rank], verify=False))
        ep = tcp_endpoint(args.rank, addresses)
        try:
            runtimes = [run_rank(dist, args.rank, ep)]
        finally:
            ep.close()
    elif args.rank is not None or args.ranks is not None:
        raise ValueError("--rank and --ranks need --rankfile: without it "
                         "every rank runs in this process")
    else:
        _preflight(_dist_bytes(dist, range(dist.topo.ranks), args.verify))
        runtimes = run_distributed_inprocess(dist)
    rows = [rank_row(rt) for rt in runtimes]
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        for rt in runtimes:
            _write_owned_snapshot(rt, os.path.join(
                args.out_dir, f"rank_{rt.sub.rank}.grid"))
    ok = True
    if args.verify:
        ok = _verify(rows, assemble_global(runtimes), dist)
    return _emit(rows, args, ok)


def _dist_bytes(dist: DistConfig, ranks, verify) -> int:
    """Bytes of the grids of the given ranks, and with ``verify`` of
    assemble_global's grid and what the oracle holds."""
    cfg = dist.cfg
    subs = decompose_domain(dist.global_dims, dist.topo, cfg.h)
    need = sum(run_bytes(subs[r].local_dims, cfg.grid_mode, cfg.h)
               for r in ranks)
    if verify:
        need += grid_bytes(dist.global_dims) + _verify_bytes(dist.global_dims)
    return need


def _write_owned_snapshot(rt, path):
    ox, oy, oz = rt.sub.owned
    g = Grid3(ox, oy, oz, pad=0)
    g.interior_view()[...] = rt.owned_view()
    write_snapshot(g, path)


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_compute_flags(p, count="--passes"):
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--grid", type=int, help="cubic grid extent")
    for name in ("nx", "ny", "nz"):
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--n", type=int, help="team count")
    p.add_argument("--t", type=int, help="threads per team")
    p.add_argument("--T", type=int, help="updates per thread per block")
    p.add_argument("--dl", dest="d_l", type=int, help="min predecessor distance")
    p.add_argument("--du", dest="d_u", type=int, help="max successor distance")
    p.add_argument("--dt", dest="d_t", type=int, help="team delay")
    p.add_argument("--block", help="bx,by,bz block extents")
    p.add_argument("--sync", choices=("relaxed", "barrier"))
    p.add_argument("--mode", choices=("two_grid", "compressed"))
    # dist spells the pass count --cycles
    p.add_argument(count, dest="passes", type=int, metavar=count[2:].upper())
    p.add_argument("--seed", type=int)
    p.add_argument("--init",
                   choices=("random", "constant", "impulse", "random_ring"))


def _add_watchdog_flag(p):
    p.add_argument("--watchdog", type=float, default=30.0,
                   help="seconds without progress before a run fails")


def _add_output_flags(p):
    p.add_argument("--csv", help="also write rows to this CSV file")
    p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="stencilpipe",
        description="pipelined temporally blocked 3D Jacobi engine and models")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one configuration")
    _add_compute_flags(p)
    _add_output_flags(p)
    p.add_argument("--verify", action="store_true",
                   help="compare against the reference sweep oracle")
    p.add_argument("--out", help="write final grid snapshot here")
    _add_watchdog_flag(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep", help="cartesian parameter sweep")
    _add_compute_flags(p)
    _add_output_flags(p)
    p.add_argument("--sweep-t", dest="sweep_t", help="range lo:hi:step or list")
    p.add_argument("--sweep-T", dest="sweep_T")
    p.add_argument("--sweep-dl", dest="dl")
    p.add_argument("--sweep-du", dest="du")
    p.add_argument("--sweep-dt", dest="dt")
    p.add_argument("--sweep-bx", dest="sweep_bx")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("model", help="evaluate analytical models")
    _add_output_flags(p)
    p.add_argument("--op", required=True,
                   choices=("baseline", "bound", "cycles", "scalability",
                            "multihalo", "efficiency"))
    p.add_argument("--machine", action="append", default=[],
                   help="shipped name or model file path (repeatable)")
    p.add_argument("--network", default="qdr_ib")
    p.add_argument("--kernel", default="jacobi")
    p.add_argument("--levels", default="L1,L2,L3")
    p.add_argument("--t-range", dest="t_range", default="1:8")
    p.add_argument("--bj", default="auto",
                   help="stencil cache bandwidth in B/s, or 'auto'")
    p.add_argument("--L", default="10:400:10")
    p.add_argument("--h", default="1,2,8,16,32")
    p.set_defaults(fn=cmd_model)

    p = sub.add_parser("bench", help="memory microbenchmarks")
    _add_output_flags(p)
    p.add_argument("--kernel", choices=("copy", "update"), required=True)
    p.add_argument("--elements", type=int, default=20_000_000)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--target", choices=("memory", "cache"), default="memory")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("dist", help="distributed run")
    _add_compute_flags(p, count="--cycles")
    _add_output_flags(p)
    p.add_argument("--topo", required=True, help="px,py,pz")
    p.add_argument("--scaling", choices=("strong", "weak"), default="strong")
    p.add_argument("--rank", type=int, help="this process's rank (TCP mode)")
    p.add_argument("--ranks", type=int, help="total ranks (TCP mode)")
    p.add_argument("--rankfile", help="lines of 'rank host port' (TCP mode)")
    p.add_argument("--out-dir", dest="out_dir",
                   help="write per-rank owned-region snapshots here")
    p.add_argument("--verify", action="store_true",
                   help="in-process only: assemble and compare to the oracle")
    _add_watchdog_flag(p)
    p.set_defaults(fn=cmd_dist)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TransportError as exc:  # ProtocolError too, e.g. a config mismatch
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    except PipelineDeadlock as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_RUN
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a grid too large for this host
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # a bug: one line and its own code, since 1
        # means that --verify found a mismatch
        text = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {text}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

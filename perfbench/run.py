"""stencilpipe benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload pipe_stream --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  The oracle, ``w.sweeps`` plain reference sweeps of the same seeded
field, is computed once before timing; every repetition after it is compared
with it bitwise, and a mismatch or a raised error counts as a failed run.

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json.
With ``--trace 1`` it measures the host and loopback models, then alternates
untraced runs with runs that have span wrappers installed on each layer,
reports the per-layer metrics, and writes a Chrome trace-event file.
Human-readable lines go first; the last line of standard output is one JSON
object.  Result, model and trace files go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def load_spec() -> dict:
    """BENCHMARK.json, which names every metric this file computes."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def use_source_tree():
    """Import stencilpipe from the checkout's ``src/``; False if absent."""
    src = ROOT / "src"
    if not (src / "stencilpipe" / "__init__.py").is_file():
        return False
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return True


def measure(rep_fn, expected, seconds, min_runs=1):
    """Call ``rep_fn(index)`` until ``seconds`` have passed and at least
    ``min_runs`` runs were made, comparing each result bitwise with
    ``expected``.  Returns ({index: good rep}, attempted, failure messages);
    every mismatch and every raised error is a failure."""
    good, failures = {}, []
    attempted = 0
    deadline = time.perf_counter() + seconds
    while attempted < min_runs or time.perf_counter() < deadline:
        attempted += 1
        try:
            rep = rep_fn(attempted)
        except Exception as exc:  # a failed run is counted, never skipped
            failures.append(f"{type(exc).__name__}: {exc}")
            continue
        same = np.array_equal(rep.result, expected)
        rep.result = None  # keep only the timings, not every run's grids
        if not same:
            failures.append("result differs from the oracle")
            continue
        good[attempted] = rep
    return good, attempted, failures


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(w, reps):
    """End-to-end metrics of the good repetitions, with notes for the
    human-readable report."""
    rates = [w.owned_updates / r.wall_s / 1e6 for r in reps]
    walls = sorted(r.wall_s for r in reps)
    setups = [r.setup_s for r in reps]
    n = len(walls)
    # the highest sample with at least ten samples above it (the maximum
    # when there are too few samples for that)
    tail_i = n - 11 if n >= 11 else n - 1
    tail_pct = 100.0 * (tail_i + 1) / n
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q1, q3 = _quartiles(rates)
    s1, s3 = _quartiles(setups)
    values = {
        "mlups": statistics.median(rates),
        "rep_s_tail": walls[tail_i],
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss_mib,
    }
    notes = {
        "mlups": f"median of {n} runs, quartiles {q1:.1f}-{q3:.1f}",
        "rep_s_tail": (f"p{tail_pct:.0f} of {n} runs, {n - 1 - tail_i} above it"
                       + ("" if n >= 11 else "; fewer than 11 runs: max")),
        "setup_s": f"median of {n} runs, quartiles {s1:.4f}-{s3:.4f}",
        "peak_rss_mib": "ru_maxrss of this process, which ran only this workload",
    }
    return values, notes


def _per_run_layers(w, spans, rep):
    by = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(*names):
        return sum(s.duration for name in names for s in by[name])

    kernel = by["kernel.apply_window"]
    cells = sum(s.info for s in kernel)
    busy = total("kernel.apply_window")
    ring_s = total("kernel.write_ring_strips")
    passes = [s.info for s in by["pipeline.run_pass"]]
    thread_s = sum(s.info["threads"] * s.duration
                   for s in by["pipeline.run_pass"])
    overhead = thread_s - busy - ring_s
    cycle_s = total("halo.cycle")
    exchange_s = total("halo.exchange")
    comm_share = exchange_s / cycle_s if cycle_s else 0.0
    sendrecv = by["transport.sendrecv"]
    connects = by["transport.tcp_endpoint"]
    out = {
        "kernel.calls": len(kernel),
        "kernel.cells": cells,
        "kernel.busy_s": busy,
        "kernel.mlups": cells / busy / 1e6 if busy else 0.0,
        "kernel.bytes_computed": 16 * cells,
        "kernel.ring_calls": len(by["kernel.write_ring_strips"]),
        "kernel.ring_s": ring_s,
        "pipeline.pass_s": total("pipeline.run_pass"),
        "pipeline.block_updates": sum(p["block_updates"] for p in passes),
        "pipeline.spin_iterations": sum(p["spins"] for p in passes),
        "pipeline.pred_violations": sum(p["pred_violations"] for p in passes),
        "pipeline.succ_gap_max": max((p["succ_gap_max"] for p in passes),
                                     default=0),
        "pipeline.overhead_s": overhead,
        "pipeline.overhead_share": overhead / thread_s if thread_s else 0.0,
        "halo.cycle_s": cycle_s,
        "halo.exchange_s": exchange_s,
        "halo.useful_ratio": w.owned_updates / cells if cells else 0.0,
        "halo.comm_share": comm_share,
        "halo.compute_share": 1.0 - comm_share if cycle_s else 0.0,
        "transport.connect_s": min((s.duration for s in connects), default=0.0),
        "transport.sendrecv_calls": len(sendrecv),
        "transport.sendrecv_s": total("transport.sendrecv"),
        "transport.bytes": sum(s.info for s in sendrecv),
        "grid.create_s": total("grid.create_grid", "grid.Grid3.copy",
                               "grid.materialize_subdomain"),
        "grid.bytes": rep.grid_bytes,
    }
    for key in ("pack_s", "transfer_s", "unpack_s", "messages", "bytes"):
        out[f"halo.{key}"] = rep.halo.get(key, 0)
    return out


def layer_metrics(w, tracer, traced, llc_bytes):
    """Median over the traced runs ({index: rep}) of each per-run layer
    metric."""
    by_run = tracer.by_run()
    rows = [_per_run_layers(w, by_run[i], rep) for i, rep in traced.items()]
    values = {}
    for k in rows[0]:
        column = [r[k] for r in rows]
        exact = all(isinstance(v, int) for v in column)  # counts stay whole
        values[k] = (statistics.median_low if exact else statistics.median)(column)
    values["grid.ws_over_llc"] = (values["grid.bytes"] / llc_bytes
                                  if llc_bytes else 0.0)
    return values


def _fmt(v):
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def _update_checksum_ledger(key, checksum):
    """Record the result checksum per workload, configuration and seed;
    False if an earlier run with the same key produced a different one."""
    path = OUT / "checksums.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    previous = ledger.setdefault(key, checksum)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return previous == checksum


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not use_source_tree():
        print(f"error: no stencilpipe sources under {ROOT / 'src'}; run from "
              "the root of a source checkout", file=sys.stderr)
        return 2
    import hostmodel
    from stencilpipe import perfmodel
    from tracing import Tracer
    from workloads import WORKLOADS, oracle, run_rep

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    spec = load_spec()
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}"
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "config": {k: getattr(w, k) for k in
                         ("grid", "mode", "t", "T", "block", "passes", "topo")},
              "owned_updates_per_run": w.owned_updates}

    expected, oracle_s = oracle(w, args.seed)
    # every good run is bitwise equal to the oracle, so this is also the
    # checksum of each good run's result
    checksum = hashlib.sha256(np.ascontiguousarray(expected).tobytes()).hexdigest()
    reproducible = _update_checksum_ledger(
        f"{w.name} seed={args.seed} {json.dumps(record['config'])}", checksum)
    record["checksum"] = checksum

    tracer = Tracer()

    def one_run(index):
        """Untraced, or with every other run traced under --trace 1, so that
        both kinds sample the same stretch of host load."""
        if not args.trace or index % 2:
            return run_rep(w, args.seed)
        tracer.run = index
        tracer.install()
        try:
            return tracer.wrap(run_rep, "bench.rep")(w, args.seed, tracer.Thread)
        finally:
            tracer.uninstall()

    # warm-up: checked and counted like every run, left out of the timings
    _, attempted, failures = measure(one_run, expected, 0)
    lines = []
    if args.trace:
        facts = hostmodel.host_facts(ROOT)
        machine, bench_notes = hostmodel.measure_machine(
            facts, OUT / f"{w.name}.host.model")
        record.update(host=facts, bench=bench_notes)
    good, n, fails = measure(one_run, expected, args.seconds,
                             min_runs=2 if args.trace else 1)
    attempted += n
    failures += fails
    reps = [rep for i, rep in good.items() if not args.trace or i % 2]
    traced = {i: rep for i, rep in good.items() if args.trace and not i % 2}
    # untraced runs return RunStats only for shared memory; the traced runs
    # see every pass through their run_pass spans
    pred_violations = sum(r.pred_violations or 0 for r in good.values())
    pred_violations += sum(s.info["pred_violations"] for s in tracer.spans
                           if s.name == "pipeline.run_pass"
                           and s.info is not None)
    correct = (not failures and bool(reps) and reproducible
               and pred_violations == 0 and (not args.trace or bool(traced)))

    e2e, notes = end_to_end(w, reps) if reps else ({}, {})
    if args.trace and traced:
        untraced_mlups = e2e["mlups"]
        traced_mlups, _ = end_to_end(w, list(traced.values()))
        net = hostmodel.measure_loopback(
            untraced_mlups * 1e6 / w.ranks,
            OUT / f"{w.name}.loopback.network")
        bound = perfmodel.pipelined_bound(machine, w.t) / 1e6
        if w.distributed:
            # the model assumes a cubic subdomain and six messages per cycle
            side = round((w.grid ** 3 / w.ranks) ** (1 / 3))
            comm_eff = perfmodel.comm_efficiency(side, w.t * w.T, net)
        else:
            comm_eff = 0.0
        layers = layer_metrics(w, tracer, traced, facts["llc_bytes"])
        layers.update({
            "kernel.ref_mlups": w.owned_updates / oracle_s / 1e6,
            "transport.latency_s": net.latency_s,
            "transport.bandwidth_Bps": net.bandwidth_Bps,
            "bench.copy_GBps": machine.m_s / 1e9,
            "bench.update_mem_GBps": machine.m_um1 / 1e9,
            "perfmodel.baseline_mlups": perfmodel.baseline_perf(machine) / 1e6,
            "perfmodel.bound_mlups": bound,
            "perfmodel.bound_frac": untraced_mlups / bound,
            "perfmodel.comm_efficiency": comm_eff,
            "trace.overhead_frac": 1.0 - traced_mlups["mlups"] / untraced_mlups,
        })
        trace_path = OUT / f"trace-{stem}.json"
        tracer.write_chrome_trace(trace_path, {min(traced)})  # first traced run
        record["self_times"] = tracer.self_times()
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        lines.append(f"# {w.name} seed {args.seed}: per-layer metrics, median "
                     f"of {len(traced)} traced runs (times summed over "
                     "threads and ranks)")
        for name, m in metrics.items():
            lines.append(f"{name} = {_fmt(m['value'])} {m['unit']}")
        if w.distributed:
            lines.append(
                f"# model comm_efficiency {comm_eff:.4f} (assumes a cubic "
                f"{side}^3 subdomain, six messages per cycle, the loopback "
                "model above) vs measured compute share "
                f"{layers['halo.compute_share']:.4f}")
        lines.append(f"# host: {facts['nproc']} cpus, caches {facts['caches']}, "
                     f"python {facts['python']}, numpy {facts['numpy']}, "
                     f"commit {facts['commit']}")
        lines.append("# bandwidth arrays: "
                     f"{bench_notes['mem_array_bytes']} B vs LLC "
                     f"{bench_notes['llc_bytes']} B -> "
                     f"{bench_notes['mem_result_label']}")
        lines.append(f"# untraced mlups {untraced_mlups:.6g} over "
                     f"{len(reps)} runs; traced {traced_mlups['mlups']:.6g}")
        lines.append("# self time per span: calls, total s, self s")
        for name, (calls, tot, own) in sorted(record["self_times"].items()):
            lines.append(f"#   {name:32s} {calls:8d} {tot:10.4f} {own:10.4f}")
        lines.append(f"# trace file: {trace_path.relative_to(ROOT)}")
    else:  # end-to-end, or per-layer zeros when no traced run passed
        kind = "per_layer" if args.trace else "end_to_end"
        metrics = {m["name"]: {"value": e2e.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in spec[kind]}
        lines.append(f"# {w.name} seed {args.seed}: {kind} metrics")
        for name, m in metrics.items():
            lines.append(f"{name} = {_fmt(m['value'])} {m['unit']}  "
                         f"({notes.get(name, 'no good run')})")
    lines.append(f"fail_ratio = {len(failures)}/{attempted} = "
                 f"{len(failures) / attempted:.6g}")
    for msg in sorted(set(failures)):
        lines.append(f"# failure: {msg}")
    lines.append(f"# checksum {checksum[:16]} "
                 + ("(matches earlier runs of this seed)" if reproducible
                    else "(DIFFERS from an earlier run of this seed)"))
    lines.append(f"# pred_violations (every run that reports it) = {pred_violations}")

    record.update(
        attempted=attempted, failed=len(failures), failures=failures,
        correct=correct, metrics=metrics, notes=notes,
        wall_s=[r.wall_s for r in reps], setup_s=[r.setup_s for r in reps],
        oracle_s=oracle_s)
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

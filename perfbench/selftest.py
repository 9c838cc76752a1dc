"""Self-test of the benchmark itself, on tiny problems:

    python3 perfbench/selftest.py

Checks that a correct run passes the bitwise gate, that a result one ulp off
in one cell and runs that raise the program's errors are each counted as
failures, that the traced run's wrappers see every layer and are removed
afterwards, and that BENCHMARK.json matches the harness's workloads and
end-to-end metrics.  Exits 0 when every check holds.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    if not run.use_source_tree():
        print("selftest: no stencilpipe sources under src/", file=sys.stderr)
        return 2
    import numpy as np
    from stencilpipe import kernel, pipeline
    from stencilpipe.transport import ProtocolError, TransportError
    from tracing import Tracer
    from workloads import WORKLOADS, Workload, oracle, run_rep

    problems = []

    def check(ok, what):
        print(f"selftest: {'PASS' if ok else 'FAIL'} - {what}")
        if not ok:
            problems.append(what)

    seed = 7
    w = Workload("tiny_pipe", "", grid=24, mode="compressed", t=2, T=1,
                 block=(24, 4, 4), passes=2)
    expected, _ = oracle(w, seed)

    good, attempted, failures = run.measure(lambda i: run_rep(w, seed),
                                            expected, 0)
    check(attempted == 1 and len(good) == 1 and not failures,
          "a correct run passes the bitwise gate")

    def corrupted(_index):
        rep = run_rep(w, seed)
        rep.result = rep.result.copy()
        cell = rep.result.flat[0]
        rep.result.flat[0] = np.nextafter(cell, np.inf)
        return rep

    good, attempted, failures = run.measure(corrupted, expected, 0)
    check(attempted == 1 and not good and len(failures) == 1,
          "a result one ulp off in one cell is counted as a failure")

    for exc in (pipeline.PipelineDeadlock("injected"),
                TransportError("injected"), ProtocolError("injected")):
        def raising(_index, exc=exc):
            raise exc
        good, attempted, failures = run.measure(raising, expected, 0)
        check(attempted == 1 and not good
              and failures == [f"{type(exc).__name__}: injected"],
              f"a run raising {type(exc).__name__} is counted as a failure")

    d = Workload("tiny_dist", "", grid=24, mode="two_grid", t=1, T=2,
                 block=(12, 8, 8), passes=2, topo=(2, 1, 1))
    d_expected, _ = oracle(d, seed)
    tracer = Tracer()
    tracer.install()
    try:
        def traced(index):
            tracer.run = index
            return tracer.wrap(run_rep, "bench.rep")(d, seed, tracer.Thread)
        good, attempted, failures = run.measure(traced, d_expected, 0)
    finally:
        tracer.uninstall()
    check(len(good) == 1 and not failures,
          "a traced TCP run passes the bitwise gate")
    check(pipeline.apply_window is kernel.apply_window
          and pipeline.threading.Thread.__module__ == "threading",
          "uninstall restores every wrapped function")
    layers = run.layer_metrics(d, tracer, good, 1 << 20)
    check(layers["kernel.cells"] > d.owned_updates
          and 0 < layers["halo.useful_ratio"] < 1,
          "halo-region compute shows as kernel cells beyond owned updates")
    check(layers["halo.messages"] == 2 * d.passes
          and layers["transport.sendrecv_calls"] >= 2 * d.passes,
          "halo messages and sendrecv calls are counted")
    spans = {s.id: s for s in tracer.spans}
    kernels = [s for s in tracer.spans if s.name == "kernel.apply_window"]
    check(all(spans[s.parent].name == "pipeline.run_pass" for s in kernels),
          "kernel spans in worker threads have their pass as parent")

    spec = run.load_spec()
    check([(x["name"], x["why"]) for x in spec["workloads"]]
          == [(x.name, x.why) for x in WORKLOADS.values()],
          "BENCHMARK.json lists the workloads the harness defines")
    e2e, _notes = run.end_to_end(d, list(good.values()))
    check(sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"]),
          "the harness computes exactly the end-to-end metrics listed")

    print(f"selftest: {'FAILED' if problems else 'all checks passed'}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

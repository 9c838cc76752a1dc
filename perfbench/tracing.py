"""In-memory span tracing installed from outside the program.

The traced run replaces public functions of each stencilpipe layer with
wrappers that record one span per call: id, name, start, end, parent span,
thread and run id.  Nothing is installed in untraced runs, and ``uninstall``
puts every original back.  Spans recorded in pipeline worker threads get the
span that started the thread as their parent, through a ``threading``
stand-in handed to ``stencilpipe.pipeline`` while tracing.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import types
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int               # 0 for a root span
    thread: int
    run: int
    info: object = None       # per-layer count taken from the call

    @property
    def duration(self) -> float:
        return self.end - self.start


_FAILED = object()  # marks a wrapped call that raised


def _window_cells(args, _result):
    (xl, xh), (yl, yh), (zl, zh) = args[2]
    return max(0, xh - xl) * max(0, yh - yl) * max(0, zh - zl)


def _pass_info(args, stats):
    return {"threads": args[0].cfg.threads,
            "block_updates": stats.block_updates,
            "spins": stats.spin_iterations_total,
            "pred_violations": stats.pred_violations,
            "succ_gap_max": stats.succ_gap_max or 0}


def _sent_bytes(args, _result):
    return len(args[2])


def layer_hooks():
    """(owner, attribute, span name, info function) per wrapped function.
    Span names start with the layer's module name."""
    import stencilpipe
    from stencilpipe import grid, halo, pipeline, transport
    return [
        (stencilpipe, "create_grid", "grid.create_grid", None),
        (grid.Grid3, "copy", "grid.Grid3.copy", None),
        (halo, "materialize_subdomain", "grid.materialize_subdomain", None),
        (pipeline, "apply_window", "kernel.apply_window", _window_cells),
        (pipeline, "write_ring_strips", "kernel.write_ring_strips", None),
        (pipeline.PipelineEngine, "run_pass", "pipeline.run_pass", _pass_info),
        (halo.RankRuntime, "cycle", "halo.cycle", None),
        (halo, "exchange_multilayer_halos", "halo.exchange", None),
        (transport, "tcp_endpoint", "transport.tcp_endpoint", None),
        (transport.TcpEndpoint, "sendrecv", "transport.sendrecv", _sent_bytes),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        tracer = self

        class Thread(threading.Thread):
            """A thread whose spans have the starting thread's span as
            parent."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._span_parent = tracer.current()

            def run(self):
                tracer._local.stack = [self._span_parent]
                super().run()

        self.Thread = Thread

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = [0]
        return stack

    def current(self) -> int:
        return self._stack()[-1]

    def install(self):
        from stencilpipe import pipeline
        for owner, attr, name, info in layer_hooks():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(fn, name, info))
        stand_in = types.SimpleNamespace(**vars(threading))
        stand_in.Thread = self.Thread
        self._saved.append((pipeline, "threading", pipeline.threading))
        pipeline.threading = stand_in

    def wrap(self, fn, name, info=None):
        """``fn`` recording one span per call; ``info(args, result)`` gives
        the count stored with the span.  Kept lean: it runs around every
        kernel call of a traced run."""
        tracer, spans, ids = self, self.spans, self._ids
        clock, ident = time.perf_counter, threading.get_ident

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = _FAILED
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(
                    sid, name, start, end, parent, ident(), tracer.run,
                    None if info is None or result is _FAILED
                    else info(args, result)))

        traced.__wrapped__ = fn
        return traced

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- analysis -----------------------------------------------------------

    def by_run(self):
        out = defaultdict(list)
        for s in self.spans:
            out[s.run].append(s)
        return out

    def self_times(self):
        """name -> [calls, total seconds, self seconds].  Self time is the
        span minus the union of its child spans, clipped to the span."""
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append(s)
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            covered, cursor = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            row = table[s.name]
            row[0] += 1
            row[1] += s.duration
            row[2] += s.duration - covered
        return dict(table)

    def write_chrome_trace(self, path, runs):
        """Chrome trace-event JSON (opens in Perfetto) of the given runs."""
        kept = [s for s in self.spans if s.run in runs]
        if not kept:
            return
        t0 = min(s.start for s in kept)
        tids = {}
        events = []
        for s in kept:
            tid = tids.setdefault(s.thread, len(tids))
            events.append({
                "name": s.name, "cat": s.name.split(".", 1)[0], "ph": "X",
                "ts": (s.start - t0) * 1e6, "dur": s.duration * 1e6,
                "pid": 0, "tid": tid,
                "args": {"span": s.id, "parent": s.parent, "run": s.run}})
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)

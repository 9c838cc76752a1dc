import random
import socket

import numpy as np
import pytest

from stencilpipe import create_grid, pipeline, reference_sweep


class OracleCache:
    """Reference-sweep stacks, computed once per (size, seed) and extended on
    demand so the many pipelined configurations can share their oracles."""

    def __init__(self):
        self._runs = {}

    def after_sweeps(self, size, seed, sweeps):
        key = (size, seed)
        if key not in self._runs:
            g = create_grid(size, size, size, init="random", seed=seed)
            self._runs[key] = [g, g.copy(), 0, {0: g.interior_view().copy()}]
        cur, nxt, done, snaps = self._runs[key]
        while done < sweeps:
            reference_sweep(cur, nxt)
            cur, nxt = nxt, cur
            done += 1
            snaps[done] = cur.interior_view().copy()
        self._runs[key] = [cur, nxt, done, snaps]
        return snaps[sweeps]


@pytest.fixture(scope="session")
def oracle():
    return OracleCache()


def assert_bitwise(actual: np.ndarray, expected: np.ndarray):
    __tracebackhide__ = True
    assert actual.shape == expected.shape
    if not np.array_equal(actual, expected):
        diff = np.flatnonzero(actual != expected)
        raise AssertionError(
            f"grids differ at {diff.size} cells (first flat index {diff[0]})")


def free_ports(count):
    """Loopback ports that were free a moment ago, all distinct."""
    socks = []
    for _ in range(count):
        s = socket.socket()
        s.bind(("127.0.0.1", 0))
        socks.append(s)
    ports = [s.getsockname()[1] for s in socks]
    for s in socks:
        s.close()
    return ports


def install_jitter(monkeypatch, prob, max_s, seed=0):
    """Seeded random sleeps in the compiled driver: before each block
    update a thread sleeps up to ``max_s`` seconds with probability
    ``prob``, drawn from one random.Random per engine pass and thread."""

    def delays(engine, count):
        out = np.zeros((count, engine.cfg.threads, engine.plan.total_blocks))
        for q, per_pass in enumerate(out):
            for g, row in enumerate(per_pass):
                rng = random.Random(seed * 1_000_003
                                    + (engine.passes_done + q) * 8191 + g)
                for k in range(len(row)):
                    if rng.random() < prob:
                        row[k] = rng.random() * max_s
        return out

    monkeypatch.setattr(pipeline.PipelineEngine, "_delays", delays)

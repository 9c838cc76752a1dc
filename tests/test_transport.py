import hashlib
import selectors
import socket
import threading
import time

import pytest

from stencilpipe.grid import splitmix64_unit
from stencilpipe.transport import (
    InProcessFabric,
    ProtocolError,
    TcpEndpoint,
    TransportError,
    parse_rankfile,
    tcp_endpoint,
)
from tests.conftest import free_ports


def _tcp_pair():
    ports = free_ports(2)
    addrs = [("127.0.0.1", ports[0]), ("127.0.0.1", ports[1])]
    eps = [None, None]

    def build(r):
        eps[r] = tcp_endpoint(r, addrs)

    threads = [threading.Thread(target=build, args=(r,)) for r in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return eps


def test_single_rank_is_trivially_connected():
    (ep,) = InProcessFabric(1).endpoints()
    assert (ep.rank, ep.ranks) == (0, 1)
    with pytest.raises(TransportError, match="bad neighbor"):
        ep.sendrecv(0, b"x", 1)


def test_eight_inprocess_ranks_all_pairs_reachable():
    eps = InProcessFabric(8).endpoints()
    assert len(eps) == 8

    def ping(ep):
        for other in range(8):
            if other == ep.rank:
                continue
            msg = bytes([ep.rank, other])
            back = ep.sendrecv(other, msg, 2)
            assert back == bytes([other, ep.rank])

    threads = [threading.Thread(target=ping, args=(ep,)) for ep in eps]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def test_inproc_zero_length_payload():
    eps = InProcessFabric(2).endpoints()
    out = {}

    def go(r):
        out[r] = eps[r].sendrecv(1 - r, b"", 0)

    ts = [threading.Thread(target=go, args=(r,)) for r in range(2)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert out == {0: b"", 1: b""}


def test_inproc_length_mismatch_is_protocol_error():
    eps = InProcessFabric(2).endpoints()
    res = {}

    def a():
        try:
            eps[0].sendrecv(1, b"12345", 3)
        except ProtocolError as exc:
            res["err"] = exc

    def b():
        eps[1].sendrecv(0, b"12345", 5)

    ts = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert "err" in res


def test_inproc_ordering_between_fixed_pair():
    fabric = InProcessFabric(2)
    a, b = fabric.endpoints()
    for i in range(50):
        fabric._queues[(0, 1)].put(bytes([i]))
    got = [fabric._queues[(0, 1)].get() for _ in range(50)]
    assert got == [bytes([i]) for i in range(50)]


def test_fabric_abort_fails_pending_and_later_calls():
    fabric = InProcessFabric(3)
    eps = fabric.endpoints()
    errors = []

    def wait(call):
        try:
            call()
        except TransportError as exc:
            errors.append(str(exc))

    ts = [threading.Thread(target=wait, daemon=True, args=(call,))
          for call in (lambda: eps[1].sendrecv(0, b"x", 1),
                       lambda: eps[2].sendrecv(1, b"z", 1))]
    for t in ts:
        t.start()
    fabric.abort()
    for t in ts:
        t.join(timeout=5.0)
    assert not any(t.is_alive() for t in ts)
    assert len(errors) == 2
    assert any("aborted" in e for e in errors)
    with pytest.raises(TransportError, match="aborted"):
        eps[0].sendrecv(2, b"y", 1)


def test_tcp_echo_roundtrip_on_loopback():
    eps = _tcp_pair()
    results = {}

    def go(r):
        pattern = splitmix64_unit(0, 8192, seed=r).tobytes()
        back = eps[r].sendrecv(1 - r, pattern, len(pattern))
        results[r] = (pattern, back)

    ts = [threading.Thread(target=go, args=(r,)) for r in range(2)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    for r in range(2):
        mine, theirs = results[r]
        other_sent = results[1 - r][0]
        assert theirs == other_sent
    for ep in eps:
        ep.close()


def test_tcp_simultaneous_sendrecv_stress_never_deadlocks():
    eps = _tcp_pair()
    iterations = 10_000
    sizes = [0, 1, 17, 512, 4096]
    failures = []

    def go(r):
        try:
            for i in range(iterations):
                size = sizes[i % len(sizes)]
                out = bytes([(r + i) % 256]) * size
                back = eps[r].sendrecv(1 - r, out, size, timeout=30.0)
                assert back == bytes([((1 - r) + i) % 256]) * size
        except BaseException as exc:
            failures.append(exc)

    ts = [threading.Thread(target=go, args=(r,)) for r in range(2)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert not failures
    for ep in eps:
        ep.close()


def test_tcp_large_payload_integrity():
    eps = _tcp_pair()
    n = 1 << 21  # 2 MiB each way, forces interleaved send/recv
    res = {}

    def go(r):
        data = splitmix64_unit(0, n // 8, seed=100 + r).tobytes()
        back = eps[r].sendrecv(1 - r, data, n)
        res[r] = hashlib.sha256(back).hexdigest()

    ts = [threading.Thread(target=go, args=(r,)) for r in range(2)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    expect = {r: hashlib.sha256(
        splitmix64_unit(0, n // 8, seed=100 + (1 - r)).tobytes()).hexdigest()
        for r in range(2)}
    assert res == expect
    for ep in eps:
        ep.close()


def test_tcp_dead_peer_mid_sendrecv_is_transport_error():
    # a one-rank endpoint dials and listens for nobody; its link to "rank 1"
    # is one end of a socket pair whose other end is already closed, so the
    # send fails with BrokenPipeError (an OSError, exit 2 if it escaped)
    ep = TcpEndpoint(0, [("127.0.0.1", 0)])
    mine, peer = socket.socketpair()
    ep._socks[1] = mine
    peer.close()
    try:
        with pytest.raises(TransportError, match="rank 1") as exc:
            ep.sendrecv(1, bytes(8 << 20), 8 << 20, timeout=10.0)
        assert isinstance(exc.value.__cause__, OSError)
    finally:
        ep.close()


def test_tcp_sendrecv_waits_for_a_late_reply_without_spinning(monkeypatch):
    # the peer replies 0.3 s after the message is out; from then on the
    # socket is always writable, so a sendrecv still asking for writes would
    # return from every select at once (thousands of rounds)
    selects = []

    class Counting(selectors.DefaultSelector):
        def select(self, timeout=None):
            selects.append(timeout)
            return super().select(timeout)

    monkeypatch.setattr(selectors, "DefaultSelector", Counting)
    ep = TcpEndpoint(0, [("127.0.0.1", 0)])
    mine, peer = socket.socketpair()
    ep._socks[1] = mine
    message = bytes(range(64))

    def reply():
        got = peer.recv(len(message), socket.MSG_WAITALL)
        time.sleep(0.3)
        peer.sendall(got[::-1])

    replier = threading.Thread(target=reply)
    replier.start()
    try:
        assert ep.sendrecv(1, message, len(message), timeout=10.0) \
            == message[::-1]
    finally:
        replier.join()
        peer.close()
        ep.close()
    assert 0 < len(selects) < 50


def test_rankfile_parsing():
    entries = parse_rankfile("# comment\n0 127.0.0.1 4000\n1 127.0.0.1 4001\n")
    assert entries == [("127.0.0.1", 4000), ("127.0.0.1", 4001)]
    with pytest.raises(TransportError):
        parse_rankfile("0 h 1\n2 h 2\n")  # not dense
    with pytest.raises(TransportError):
        parse_rankfile("0 h\n")


def test_tcp_connect_timeout_names_offender():
    ports = free_ports(2)
    addrs = [("127.0.0.1", ports[0]), ("127.0.0.1", ports[1])]
    with pytest.raises(TransportError) as exc:
        tcp_endpoint(1, addrs, connect_timeout=0.3)  # rank 0 never shows up
    assert "0" in str(exc.value)


def test_fabric_rejects_zero_ranks():
    with pytest.raises(ValueError):
        InProcessFabric(0)

import gc
import hashlib
import selectors
import socket
import struct
import threading
import time
import warnings

import pytest

from stencilpipe import BlockSpec, PipelineConfig
from stencilpipe.grid import splitmix64_unit
from stencilpipe.halo import DistConfig, RankTopology, run_distributed_inprocess
from stencilpipe.transport import (
    InProcessFabric,
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


def _close(eps):
    for ep in eps:
        ep.close()


def test_single_rank_is_trivially_connected():
    (ep,) = InProcessFabric(1).endpoints()
    assert (ep.rank, ep.ranks) == (0, 1)
    with pytest.raises(TransportError, match="no link to 0"):
        ep.sendrecv(0, b"x", 1)


def test_fabric_endpoints_are_tcp_endpoints_over_socket_pairs():
    eps = InProcessFabric(3).endpoints()
    try:
        assert all(type(ep) is TcpEndpoint for ep in eps)
        assert [(ep.rank, ep.ranks) for ep in eps] == [(0, 3), (1, 3), (2, 3)]
        assert sorted(eps[1]._socks) == [0, 2]
        assert all(s.family == socket.AF_UNIX and s.type == socket.SOCK_STREAM
                   for ep in eps for s in ep._socks.values())
    finally:
        _close(eps)


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
    _close(eps)


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
    _close(eps)
    assert out == {0: b"", 1: b""}


def test_inproc_ordering_between_fixed_pair():
    # 50 one-byte messages queue up on the link before rank 1 reads any;
    # they arrive one per call, in send order
    a, b = InProcessFabric(2).endpoints()
    try:
        for i in range(50):
            assert a.sendrecv(1, bytes([i]), 0) == b""
        got = [bytes(b.sendrecv(0, b"", 1, timeout=5.0)) for _ in range(50)]
    finally:
        _close((a, b))
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
    # a call still waiting reads the end of the stream, one not yet sent
    # meets a broken pipe
    assert [e.split(": ")[0] for e in sorted(errors)] == ["rank 1", "rank 2"]
    try:
        with pytest.raises(TransportError, match="rank 0: .*rank 2"):
            eps[0].sendrecv(2, b"y", 1)
    finally:
        _close(eps)


def test_inprocess_run_closes_every_link(monkeypatch):
    made = []
    real = socket.socketpair

    def recording(*args, **kwargs):
        pair = real(*args, **kwargs)
        made.extend(pair)
        return pair

    monkeypatch.setattr(socket, "socketpair", recording)
    dist = DistConfig(topo=RankTopology(2, 2, 1),
                      cfg=PipelineConfig(spec=BlockSpec(6, 6, 6)), cycles=1,
                      global_dims=(12, 12, 12))
    assert len(run_distributed_inprocess(dist)) == 4
    assert len(made) == 2 * 6 and all(s.fileno() == -1 for s in made)


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


def _socketpair_endpoint():
    """A rank-0 endpoint whose link to rank 1 is one end of a socket pair;
    the other end is returned as the peer."""
    mine, peer = socket.socketpair()
    return TcpEndpoint(0, {1: mine}), peer


def test_tcp_dead_peer_mid_sendrecv_is_transport_error():
    # the other end of the link is already closed, so the send fails with
    # BrokenPipeError (an OSError, exit 2 if it escaped)
    ep, peer = _socketpair_endpoint()
    peer.close()
    try:
        with pytest.raises(TransportError, match="rank 1") as exc:
            ep.sendrecv(1, bytes(8 << 20), 8 << 20, timeout=10.0)
        assert isinstance(exc.value.__cause__, OSError)
    finally:
        ep.close()


def test_sendrecv_on_a_link_closed_here_is_transport_error():
    # as after a failed rank's endpoints are closed under its peers: the
    # call fails as a transport error (exit 3), not as an OSError (exit 2)
    ep, peer = _socketpair_endpoint()
    ep.close()
    try:
        with pytest.raises(TransportError, match="link to rank 1 failed"):
            ep.sendrecv(1, b"x", 1, timeout=1.0)
    finally:
        peer.close()


def test_tcp_large_message_over_many_reads_lands_bitwise():
    # 3 MiB sent in 64 KiB pieces with pauses between them: sendrecv reads
    # it into its buffer over many reads, each at its running offset
    payload = splitmix64_unit(0, 3 << 17, seed=12).tobytes()
    ep, peer = _socketpair_endpoint()

    def reply():
        for at in range(0, len(payload), 1 << 16):
            peer.sendall(payload[at:at + (1 << 16)])
            if at % (1 << 20) == 0:
                time.sleep(0.01)

    replier = threading.Thread(target=reply)
    replier.start()
    try:
        got = ep.sendrecv(1, b"", len(payload), timeout=10.0)
    finally:
        replier.join()
        peer.close()
        ep.close()
    assert isinstance(got, bytearray) and got == payload


def test_tcp_peer_closing_mid_message_is_transport_error():
    # half of a 2 MiB message, then the peer closes: the read of 0 bytes
    # that follows ends the call with a TransportError, not a short buffer
    ep, peer = _socketpair_endpoint()

    def half_then_close():
        peer.sendall(bytes(1 << 20))
        peer.close()

    sender = threading.Thread(target=half_then_close)
    sender.start()
    try:
        with pytest.raises(TransportError, match="rank 1 closed the link"):
            ep.sendrecv(1, b"", 2 << 20, timeout=10.0)
    finally:
        sender.join()
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
    ep, peer = _socketpair_endpoint()
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


def test_tcp_sendrecv_ends_at_its_deadline():
    # a live peer that never answers: the wait ends at the timeout, not at
    # the end of a whole one-second select round after it
    ep, peer = _socketpair_endpoint()
    try:
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="timed out"):
            ep.sendrecv(1, b"ping", 4, timeout=0.1)
        assert time.monotonic() - t0 < 0.8
    finally:
        peer.close()
        ep.close()


def test_rankfile_parsing():
    entries = parse_rankfile("# comment\n0 127.0.0.1 4000\n1 127.0.0.1 4001\n")
    assert entries == [("127.0.0.1", 4000), ("127.0.0.1", 4001)]
    # a bad rankfile is a configuration error (ValueError, exit code 2),
    # not a transport error
    for text, match in (("0 h 1\n2 h 2\n", "dense"),
                        ("0 h\n", "line 1"),
                        ("x h 1\n", "line 1"),
                        ("0 h 1\n1 h port\n", "line 2"),
                        ("0 h 1\n0 h 2\n", "line 2: rank 0 is listed twice")):
        with pytest.raises(ValueError, match=match):
            parse_rankfile(text)


def test_tcp_connect_timeout_names_offender():
    ports = free_ports(2)
    addrs = [("127.0.0.1", ports[0]), ("127.0.0.1", ports[1])]
    with pytest.raises(TransportError) as exc:
        tcp_endpoint(1, addrs, connect_timeout=0.3)  # rank 0 never shows up
    assert "0" in str(exc.value)


def _resource_warnings(call):
    """ResourceWarnings (unclosed sockets) left once ``call`` has raised
    TransportError and its frames are collected."""
    gc.collect()  # other tests' garbage warns before the count starts
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(TransportError):
            call()
        gc.collect()
    return [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)]


def test_tcp_startup_timeout_closes_the_listener():
    # rank 0 of 2 listens and nobody dials it
    addrs = [("127.0.0.1", p) for p in free_ports(2)]
    assert _resource_warnings(
        lambda: tcp_endpoint(0, addrs, connect_timeout=0.2)) == []


def test_tcp_failed_dial_closes_the_links_already_made():
    # rank 2 of 3 reaches rank 0 (a bare listener whose backlog takes the
    # connection and hello), then finds no rank 1
    ports = free_ports(3)
    addrs = [("127.0.0.1", p) for p in ports]
    with socket.create_server(addrs[0]) as rank0:
        assert _resource_warnings(
            lambda: tcp_endpoint(2, addrs, connect_timeout=0.3)) == []
        conn, _ = rank0.accept()
        conn.settimeout(5.0)
        with conn:  # the dialled link was closed: its hello, then EOF
            assert conn.recv(8, socket.MSG_WAITALL) == struct.pack("<I", 2)


def test_fabric_rejects_zero_ranks():
    with pytest.raises(ValueError):
        InProcessFabric(0)

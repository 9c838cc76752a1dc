"""Rank-to-rank messaging with two interchangeable backends.

The only data-plane primitive is sendrecv: a full-duplex exchange with one
neighbor that never deadlocks when both ends call it pairwise.  The
in-process backend (queues) serves tests and single-host multi-rank runs from
threads; the TCP backend serves real multi-process runs, launched with
``--rank R --ranks N --rankfile FILE`` where FILE lists ``rank host port``
lines.  Messages between a fixed pair arrive in send order and are bit-exact.
"""

from __future__ import annotations

import selectors
import socket
import struct
import threading
import time
from dataclasses import dataclass, field
from queue import Empty, SimpleQueue

from .flatfile import flat_lines

# Wire frame for halo payloads: axis, side, 2 pad bytes, payload length,
# cycle index; payload follows as raw little-endian doubles.
FRAME_HEADER = struct.Struct("<BB2xIQ")


class TransportError(RuntimeError):
    pass


class ProtocolError(TransportError):
    pass


def pack_frame(axis: int, side: int, cycle_index: int, payload: bytes) -> bytes:
    return FRAME_HEADER.pack(axis, side, len(payload), cycle_index) + payload


def unpack_frame(data: bytes):
    if len(data) < FRAME_HEADER.size:
        raise ProtocolError(f"frame shorter than header: {len(data)} bytes")
    axis, side, length, cycle = FRAME_HEADER.unpack_from(data)
    payload = data[FRAME_HEADER.size:]
    if len(payload) != length:
        raise ProtocolError(
            f"frame length mismatch: header says {length}, got {len(payload)}")
    return axis, side, cycle, payload


@dataclass
class Endpoint:
    """One rank's attachment to the fabric."""
    rank: int
    ranks: int
    backend: str
    address: str = ""
    messages_sent: int = field(default=0)

    def sendrecv(self, neighbor: int, outgoing: bytes, expected_len: int,
                 timeout: float = 60.0) -> bytes:
        raise NotImplementedError

    def barrier(self, timeout: float = 60.0) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# in-process backend
# ---------------------------------------------------------------------------

_ABORTED = object()  # queued by InProcessFabric.abort in place of a message


class InProcessFabric:
    """All-pairs queues for ranks living in one process (as threads)."""

    def __init__(self, ranks: int):
        if ranks < 1:
            raise ValueError("ranks must be >= 1")
        self.ranks = ranks
        self._queues = {(a, b): SimpleQueue()
                        for a in range(ranks) for b in range(ranks) if a != b}
        self._barrier = threading.Barrier(ranks)
        self.aborted = False

    def endpoints(self):
        return [InProcessEndpoint(r, self) for r in range(self.ranks)]

    def abort(self) -> None:
        """Fail every pending and later sendrecv and barrier with
        TransportError, so that one rank's error ends its peers at once."""
        self.aborted = True
        for q in self._queues.values():
            q.put(_ABORTED)
        self._barrier.abort()


class InProcessEndpoint(Endpoint):
    def __init__(self, rank: int, fabric: InProcessFabric):
        super().__init__(rank=rank, ranks=fabric.ranks, backend="inproc",
                         address=f"inproc:{rank}")
        self._fabric = fabric

    def sendrecv(self, neighbor, outgoing, expected_len, timeout=60.0):
        if not 0 <= neighbor < self.ranks or neighbor == self.rank:
            raise TransportError(f"rank {self.rank}: bad neighbor {neighbor}")
        if self._fabric.aborted:
            raise TransportError(f"rank {self.rank}: the fabric was aborted")
        self._fabric._queues[(self.rank, neighbor)].put(bytes(outgoing))
        self.messages_sent += 1
        try:
            incoming = self._fabric._queues[(neighbor, self.rank)].get(timeout=timeout)
        except Empty:
            raise TransportError(
                f"rank {self.rank}: timed out waiting for rank {neighbor}")
        if incoming is _ABORTED:
            raise TransportError(f"rank {self.rank}: the fabric was aborted "
                                 f"while waiting for rank {neighbor}")
        if len(incoming) != expected_len:
            raise ProtocolError(
                f"rank {self.rank}: expected {expected_len} bytes from "
                f"{neighbor}, got {len(incoming)}")
        return incoming

    def barrier(self, timeout=60.0):
        try:
            self._fabric._barrier.wait(timeout=timeout)
        except threading.BrokenBarrierError:
            raise TransportError(f"rank {self.rank}: barrier broken")


# ---------------------------------------------------------------------------
# TCP backend
# ---------------------------------------------------------------------------

def parse_rankfile(text: str):
    """rank host port per line; ranks must be dense 0..R-1."""
    entries = {}
    for lineno, line in flat_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise TransportError(f"rankfile line {lineno}: need 'rank host port'")
        entries[int(parts[0])] = (parts[1], int(parts[2]))
    if sorted(entries) != list(range(len(entries))):
        raise TransportError("rankfile ranks must be dense 0..R-1")
    return [entries[r] for r in sorted(entries)]


class TcpEndpoint(Endpoint):
    """Full mesh of loopback/LAN sockets.  For every pair (i, j) with i < j,
    i listens and j connects; a one-byte hello identifies the dialing rank."""

    def __init__(self, rank: int, addresses, connect_timeout: float = 30.0):
        super().__init__(rank=rank, ranks=len(addresses), backend="tcp",
                         address=f"{addresses[rank][0]}:{addresses[rank][1]}")
        self._socks = {}
        host, port = addresses[rank]
        lower = list(range(rank))                   # we dial these
        higher = list(range(rank + 1, self.ranks))  # these dial us
        listener = None
        if higher:
            listener = socket.create_server((host, port), backlog=len(higher))
            listener.settimeout(connect_timeout)
        # dial every lower-ranked peer
        for peer in lower:
            deadline = time.monotonic() + connect_timeout
            last_err = None
            while time.monotonic() < deadline:
                try:
                    s = socket.create_connection(addresses[peer], timeout=2.0)
                    break
                except OSError as exc:
                    last_err = exc
                    time.sleep(0.05)
            else:
                raise TransportError(
                    f"rank {rank}: cannot reach rank {peer} at "
                    f"{addresses[peer]}: {last_err}")
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            s.sendall(struct.pack("<I", rank))
            self._socks[peer] = s
        # accept every higher-ranked peer
        for _ in higher:
            try:
                s, _addr = listener.accept()
            except socket.timeout:
                missing = [p for p in higher if p not in self._socks]
                raise TransportError(
                    f"rank {rank}: startup timeout waiting for ranks {missing}")
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            peer = struct.unpack("<I", self._recv_exact(s, 4))[0]
            self._socks[peer] = s
        if listener is not None:
            listener.close()

    @staticmethod
    def _recv_exact(sock, count):
        buf = bytearray()
        while len(buf) < count:
            chunk = sock.recv(count - len(buf))
            if not chunk:
                raise TransportError("connection closed mid-message")
            buf.extend(chunk)
        return bytes(buf)

    def sendrecv(self, neighbor, outgoing, expected_len, timeout=60.0):
        try:
            sock = self._socks[neighbor]
        except KeyError:
            raise TransportError(f"rank {self.rank}: no link to {neighbor}")
        outgoing = memoryview(bytes(outgoing))
        incoming = bytearray(expected_len)
        got = 0
        sent = 0
        deadline = time.monotonic() + timeout
        sock.setblocking(False)
        sel = selectors.DefaultSelector()
        try:
            sel.register(sock, selectors.EVENT_READ | selectors.EVENT_WRITE)
            # interleave writes and reads on one socket so both sides can call
            # sendrecv simultaneously with arbitrarily large payloads
            while sent < len(outgoing) or got < expected_len:
                if time.monotonic() > deadline:
                    raise TransportError(
                        f"rank {self.rank}: sendrecv with {neighbor} timed out")
                events = 0
                for _key, ev in sel.select(timeout=1.0):
                    events = ev
                if events & selectors.EVENT_WRITE and sent < len(outgoing):
                    try:
                        sent += sock.send(outgoing[sent:sent + (1 << 20)])
                    except BlockingIOError:
                        pass
                if events & selectors.EVENT_READ and got < expected_len:
                    try:
                        chunk = sock.recv(min(1 << 20, expected_len - got))
                    except BlockingIOError:
                        chunk = None
                    if chunk == b"":
                        raise TransportError(
                            f"rank {self.rank}: rank {neighbor} closed the link")
                    if chunk:
                        incoming[got:got + len(chunk)] = chunk
                        got += len(chunk)
        finally:
            sel.close()
            sock.setblocking(True)
        self.messages_sent += 1
        return bytes(incoming)

    def barrier(self, timeout=60.0):
        # rank 0 collects a token from everyone, then releases everyone
        if self.rank == 0:
            for peer in range(1, self.ranks):
                self.sendrecv(peer, b"B", 1, timeout=timeout)
        else:
            self.sendrecv(0, b"B", 1, timeout=timeout)

    def close(self):
        for s in self._socks.values():
            try:
                s.close()
            except OSError:
                pass


def create_topology(ranks: int):
    """The in-process fabric: one endpoint per rank, all pairs reachable.
    TCP ranks each build their own endpoint with :func:`tcp_endpoint`."""
    return InProcessFabric(ranks).endpoints()


def tcp_endpoint(rank: int, addresses, connect_timeout: float = 30.0) -> TcpEndpoint:
    ep = TcpEndpoint(rank, addresses, connect_timeout)
    ep.barrier()
    return ep

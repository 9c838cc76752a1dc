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
import time
from queue import Empty, SimpleQueue

from .flatfile import flat_lines


class TransportError(RuntimeError):
    pass


class ProtocolError(TransportError):
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
        self.aborted = False

    def endpoints(self):
        return [InProcessEndpoint(r, self) for r in range(self.ranks)]

    def abort(self) -> None:
        """Fail every pending and later sendrecv with TransportError, so
        that one rank's error ends its peers at once."""
        self.aborted = True
        for q in self._queues.values():
            q.put(_ABORTED)


class InProcessEndpoint:
    """One rank's attachment to an in-process fabric."""

    def __init__(self, rank: int, fabric: InProcessFabric):
        self.rank, self.ranks = rank, fabric.ranks
        self._fabric = fabric

    def sendrecv(self, neighbor, outgoing, expected_len, timeout=60.0):
        if not 0 <= neighbor < self.ranks or neighbor == self.rank:
            raise TransportError(f"rank {self.rank}: bad neighbor {neighbor}")
        if self._fabric.aborted:
            raise TransportError(f"rank {self.rank}: the fabric was aborted")
        # a snapshot: the sender rewrites its buffer for its next message
        # while the peer may not have read this one yet
        self._fabric._queues[(self.rank, neighbor)].put(bytes(outgoing))
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


class TcpEndpoint:
    """Full mesh of loopback/LAN sockets.  For every pair (i, j) with i < j,
    i listens and j connects; a one-byte hello identifies the dialing rank."""

    def __init__(self, rank: int, addresses, connect_timeout: float = 30.0):
        self.rank, self.ranks = rank, len(addresses)
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
        outgoing = memoryview(outgoing)  # sent from the caller's buffer
        incoming = bytearray(expected_len)
        into = memoryview(incoming)  # reads land in place, no chunk copy
        got = 0
        sent = 0
        deadline = time.monotonic() + timeout
        sock.setblocking(False)
        sel = selectors.DefaultSelector()
        registered = 0
        try:
            # interleave writes and reads on one socket so both sides can call
            # sendrecv simultaneously with arbitrarily large payloads
            while sent < len(outgoing) or got < expected_len:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TransportError(
                        f"rank {self.rank}: sendrecv with {neighbor} timed out")
                # only the directions still pending: a socket that can always
                # be written would end every select at once
                pending = ((selectors.EVENT_WRITE if sent < len(outgoing) else 0)
                           | (selectors.EVENT_READ if got < expected_len else 0))
                if pending != registered:
                    (sel.modify if registered else sel.register)(sock, pending)
                    registered = pending
                events = 0
                for _key, ev in sel.select(timeout=left):
                    events = ev
                if events & selectors.EVENT_WRITE and sent < len(outgoing):
                    try:
                        sent += sock.send(outgoing[sent:sent + (1 << 20)])
                    except BlockingIOError:
                        pass
                if events & selectors.EVENT_READ and got < expected_len:
                    try:
                        n = sock.recv_into(into[got:got + (1 << 20)])
                    except BlockingIOError:
                        n = None
                    if n == 0:
                        raise TransportError(
                            f"rank {self.rank}: rank {neighbor} closed the link")
                    if n:
                        got += n
        except OSError as exc:  # a dead peer: BrokenPipeError, reset, ...
            raise TransportError(
                f"rank {self.rank}: link to rank {neighbor} failed: {exc}"
            ) from exc
        finally:
            sel.close()
            sock.setblocking(True)
        return incoming

    def close(self):
        for s in self._socks.values():
            try:
                s.close()
            except OSError:
                pass


def tcp_endpoint(rank: int, addresses, connect_timeout: float = 30.0) -> TcpEndpoint:
    """Connect this rank to every other, then wait until all ranks have: rank
    0 collects a token from each peer and so releases them."""
    ep = TcpEndpoint(rank, addresses, connect_timeout)
    for peer in range(1, ep.ranks) if rank == 0 else (0,):
        ep.sendrecv(peer, b"B", 1)
    return ep

"""Rank-to-rank messaging over stream sockets.

The only data-plane primitive is ``TcpEndpoint.sendrecv``: a full-duplex
exchange with one neighbor that never deadlocks when both ends call it
pairwise.  Ranks of one process (threads) are linked by socket pairs
(:class:`InProcessFabric`); separate processes by TCP, launched with
``--rank R --ranks N --rankfile FILE`` where FILE lists ``rank host port``
lines (:func:`tcp_endpoint`).  Messages between a fixed pair arrive in send
order and are bit-exact.
"""

from __future__ import annotations

import selectors
import socket
import struct
import time

from .flatfile import flat_lines


class TransportError(RuntimeError):
    pass


class ProtocolError(TransportError):
    pass


def parse_rankfile(text: str):
    """rank host port per line; ranks must be dense 0..R-1, each listed
    once.  A file that breaks either rule raises ValueError: it is a
    configuration error, not a failed link."""
    entries = {}
    for lineno, line in flat_lines(text):
        try:
            rank, host, port = line.split()
            rank, port = int(rank), int(port)
        except ValueError:
            raise ValueError(f"rankfile line {lineno}: need 'rank host port' "
                             f"with integer rank and port, got {line!r}"
                             ) from None
        if rank in entries:
            raise ValueError(f"rankfile line {lineno}: rank {rank} is "
                             "listed twice")
        entries[rank] = (host, port)
    if sorted(entries) != list(range(len(entries))):
        raise ValueError(f"rankfile ranks must be dense 0..R-1, got "
                         f"{sorted(entries)}")
    return [entries[r] for r in sorted(entries)]


class TcpEndpoint:
    """One rank's links to its peers: ``links`` maps each peer rank to a
    connected stream socket (TCP, or one end of a socket pair).  Every
    message between two ranks goes through :meth:`sendrecv`."""

    def __init__(self, rank: int, links):
        self.rank, self.ranks = rank, len(links) + 1
        self._socks = dict(links)

    def sendrecv(self, neighbor, outgoing, expected_len, timeout=60.0,
                 timings=None):
        """Send ``outgoing`` to ``neighbor`` while receiving its reply of
        ``expected_len`` bytes, which it returns.  ``timings``, if given,
        gains in ``wait_s`` the seconds from the call until the reply's
        first byte arrived (0 for an empty reply)."""
        start = first = time.perf_counter()
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
        sel = selectors.DefaultSelector()
        registered = 0
        try:
            sock.setblocking(False)
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
                        if not got:
                            first = time.perf_counter()
                        got += n
        except (OSError, ValueError) as exc:
            # a dead peer (BrokenPipeError, reset, ...) or a link closed
            # here (EBADF; selectors reject its fd with ValueError)
            raise TransportError(
                f"rank {self.rank}: link to rank {neighbor} failed: {exc}"
            ) from exc
        finally:
            sel.close()
            try:
                sock.setblocking(True)
            except OSError:  # closed: nothing left to restore
                pass
        if timings is not None:
            timings["wait_s"] = timings.get("wait_s", 0.0) + (first - start)
        return incoming

    def shutdown(self) -> None:
        """Shut every link down without closing it, so no thread's socket
        goes away under it: pending and later sendrecv calls at either end
        see the end of the stream or a broken pipe and raise
        TransportError.  A close alone wakes no peer waiting in select."""
        for s in self._socks.values():
            try:
                s.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed or shut down
                pass

    def close(self):
        for s in self._socks.values():
            try:
                s.close()
            except OSError:
                pass


def _recv_exact(sock, count):
    buf = bytearray()
    while len(buf) < count:
        chunk = sock.recv(count - len(buf))
        if not chunk:
            raise TransportError("connection closed mid-message")
        buf.extend(chunk)
    return bytes(buf)


def _connect_mesh(rank: int, addresses, connect_timeout: float) -> dict:
    """TCP links from this rank to every other, as ``{peer: socket}``.  For
    every pair (i, j) with i < j, i listens and j dials; a 4-byte hello
    names the dialing rank.  On any error every socket made here is closed
    before the error propagates."""
    lower = list(range(rank))                        # we dial these
    higher = list(range(rank + 1, len(addresses)))   # these dial us
    links, opened, listener = {}, [], None
    try:
        if higher:
            listener = socket.create_server(addresses[rank],
                                            backlog=len(higher))
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
            opened.append(s)
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            s.sendall(struct.pack("<I", rank))
            links[peer] = s
        # accept every higher-ranked peer
        for _ in higher:
            try:
                s, _addr = listener.accept()
            except socket.timeout:
                missing = [p for p in higher if p not in links]
                raise TransportError(
                    f"rank {rank}: startup timeout waiting for ranks {missing}")
            opened.append(s)
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            peer = struct.unpack("<I", _recv_exact(s, 4))[0]
            links[peer] = s
    except BaseException:
        for s in opened:
            s.close()
        raise
    finally:
        if listener is not None:
            listener.close()
    return links


def tcp_endpoint(rank: int, addresses, connect_timeout: float = 30.0) -> TcpEndpoint:
    """Connect this rank to every other, then wait until all ranks have: rank
    0 collects a token from each peer and so releases them."""
    ep = TcpEndpoint(rank, _connect_mesh(rank, addresses, connect_timeout))
    try:
        for peer in range(1, ep.ranks) if rank == 0 else (0,):
            ep.sendrecv(peer, b"B", 1)
    except BaseException:
        ep.close()
        raise
    return ep


class InProcessFabric:
    """Ranks living in one process (as threads), each pair linked by a
    socket pair: their endpoints are TcpEndpoints, so in-process and TCP
    runs exchange halos through the same sendrecv."""

    def __init__(self, ranks: int):
        if ranks < 1:
            raise ValueError("ranks must be >= 1")
        self.ranks = ranks
        links = [{} for _ in range(ranks)]
        for a in range(ranks):
            for b in range(a + 1, ranks):
                links[a][b], links[b][a] = socket.socketpair()
        self._endpoints = [TcpEndpoint(r, links[r]) for r in range(ranks)]

    def endpoints(self):
        return list(self._endpoints)

    def abort(self) -> None:
        """Shut down every rank's links (:meth:`TcpEndpoint.shutdown`), so
        one rank's error ends its peers at once."""
        for ep in self._endpoints:
            ep.shutdown()

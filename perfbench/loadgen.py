"""Load generator for the gateway: one process, one thread, at most ``nproc``
connections.

Frames are encoded before any timed phase, so while timing the generator
only writes to sockets and stamps received bytes; replies are parsed after
the phase.  The loop waits in ``select.select``, whose timeout has
microsecond resolution, so sends leave close to their due time without a
second thread competing for the interpreter lock.

* :func:`open_loop` sends on a fixed schedule whatever the replies do
  (independent users), and times each request from when it was due.
* :func:`closed_loop` keeps a fixed window of requests in flight per
  connection (callers that wait for their reply).
"""

from __future__ import annotations

import gc
import json
import select
import socket
import time

clock = time.perf_counter

SOCKET_TIMEOUT_S = 1.0  # bounds every blocking send
GRACE_S = 10.0  # how long replies may trail the last send


def connect(port: int, n: int) -> list[socket.socket]:
    socks = []
    for _ in range(n):
        sock = socket.create_connection(("127.0.0.1", port), timeout=SOCKET_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        socks.append(sock)
    return socks


def close(socks) -> None:
    for sock in socks:
        sock.close()


def split_replies(chunks: list[tuple[float, bytes]]) -> list[tuple[float, bytes]]:
    """``(receive time, reply line)`` per line of one connection's byte
    stream; a line takes the time of the chunk that completed it."""

    out = []
    buf = b""
    for stamp, chunk in chunks:
        buf += chunk
        *lines, buf = buf.split(b"\n")
        out.extend((stamp, line) for line in lines if line)
    return out


class _Sink:
    """Received bytes per connection, stamped on arrival."""

    def __init__(self, socks):
        self.socks = socks
        self.slot = {sock.fileno(): k for k, sock in enumerate(socks)}
        self.chunks: list[list[tuple[float, bytes]]] = [[] for _ in socks]
        self.lines = [0] * len(socks)
        self.open = [True] * len(socks)

    def poll(self, timeout: float) -> list[tuple[int, int]]:
        """Wait up to ``timeout`` and read what arrived: ``(slot, lines)``."""

        live = [sock for k, sock in enumerate(self.socks) if self.open[k]]
        if not live:
            return []
        ready, _, _ = select.select(live, [], [], max(0.0, timeout))
        got = []
        for sock in ready:
            k = self.slot[sock.fileno()]
            chunk = sock.recv(1 << 16)
            if not chunk:
                self.open[k] = False
                continue
            self.chunks[k].append((clock(), chunk))
            count = chunk.count(b"\n")
            self.lines[k] += count
            got.append((k, count))
        return got

    def drain(self, expected: list[int], deadline: float) -> None:
        """Read until connection ``k`` delivered ``expected[k]`` lines."""

        while clock() < deadline and any(
            self.open[k] and self.lines[k] < expected[k] for k in range(len(self.socks))
        ):
            self.poll(min(0.2, deadline - clock()))

    def replies(self) -> list[tuple[float, bytes]]:
        return [reply for chunks in self.chunks for reply in split_replies(chunks)]


def roundtrip(sock: socket.socket, frame: bytes) -> dict:
    """Send one frame and wait (at most ``GRACE_S``) for its one-line reply."""

    sink = _Sink([sock])
    sock.sendall(frame)
    sink.drain([1], clock() + GRACE_S)
    replies = sink.replies()
    if len(replies) != 1:
        raise ConnectionError(f"expected one reply, got {len(replies)}")
    return json.loads(replies[0][1])


def open_loop(socks, frames: list[bytes], offsets: list[float]) -> dict:
    """Send frame ``i`` ``offsets[i]`` seconds after the phase starts,
    round-robin over ``socks``.

    Returns the due and actual send time of every frame and the replies.
    """

    gc.collect()
    gc.disable()  # a collection pause would make sends late
    try:
        return _open_loop(socks, frames, offsets)
    finally:
        gc.enable()


def _open_loop(socks, frames, offsets) -> dict:
    n, width = len(frames), len(socks)
    start = clock() + 0.005
    due = [start + offset for offset in offsets]
    sent = [0.0] * n
    sink = _Sink(socks)
    i = 0
    while i < n:
        now = clock()
        while i < n and due[i] <= now:
            socks[i % width].sendall(frames[i])
            sent[i] = clock()
            i += 1
        if i < n:
            sink.poll(due[i] - clock())
    sink.drain([len(range(k, n, width)) for k in range(width)], due[-1] + GRACE_S)
    return {"due": due, "sent": sent, "replies": sink.replies()}


def closed_loop(socks, frames_per_conn: list[list[bytes]], window: int, seconds: float) -> dict:
    """Keep ``window`` requests in flight on each socket for ``seconds``.

    Each connection sends from its own frame list; every reply triggers the
    next send until the phase ends, then outstanding replies are drained.
    """

    sent = [0] * len(socks)

    def send(k: int, count: int) -> None:
        count = min(count, len(frames_per_conn[k]) - sent[k])
        if count > 0:
            socks[k].sendall(b"".join(frames_per_conn[k][sent[k] : sent[k] + count]))
            sent[k] += count

    sink = _Sink(socks)
    start = clock()
    stop_at = start + seconds
    for k in range(len(socks)):
        send(k, window)
    while clock() < stop_at:
        for k, count in sink.poll(stop_at - clock()):
            send(k, count)
    sink.drain(sent, stop_at + GRACE_S)
    return {"start": start, "stop_at": stop_at, "sent": sent, "replies": sink.replies()}

"""The `lomon serve` side of the benchmark: the daemon's lifecycle and a
load generator that runs in one thread over at most two connections,
multiplexed with `select` (microsecond timeouts, no busy polling).

* closed loop — each connection sends its next stream only after the
  previous stream's `summary` frame arrived;
* open loop — streams are due on a fixed schedule, alternating between
  the connections, and each stream's latency runs from its *scheduled*
  send time to its `summary` frame, so a stall is charged to every stream
  due during it. How late the generator itself ran is recorded too.
"""

import collections
import json
import os
import re
import select
import socket
import subprocess
import time

SEND_CHUNK = 256 * 1024
RECV_CHUNK = 1 << 20
IO_TIMEOUT = 60.0
SERVING = re.compile(rb"serving \d+ propert(?:y|ies) on (\S+) \(admin (\S+)\)")


class ServeError(Exception):
    pass


def _addr(text):
    host, port = text.decode().rsplit(":", 1)
    return host, int(port)


def split_streams(data):
    """Split NDJSON bytes into streams, each ending with its `end` frame."""
    streams, start, pos = [], 0, 0
    for line in data.splitlines(keepends=True):
        pos += len(line)
        if line.startswith(b'{"end"'):
            streams.append(data[start:pos])
            start = pos
    return streams


class Server:
    """`lomon serve rulebook.rules` on ephemeral ports. `start_to_ready`
    is the time from spawning the process to the first `ready` frame."""

    def __init__(self, lomon, cwd):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [lomon, "serve", "--listen", "127.0.0.1:0", "--admin", "127.0.0.1:0",
             "rulebook.rules"],
            cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        try:
            self.addr, self.admin = self._announced()
            sock, _ = connect(self.addr)
            self.start_to_ready = time.perf_counter() - t0
            sock.close()
        except BaseException:
            self.kill()
            raise

    def _announced(self):
        fd = self.proc.stderr.fileno()
        buf = b""
        deadline = time.monotonic() + IO_TIMEOUT
        while True:
            m = SERVING.search(buf)
            if m:
                return _addr(m[1]), _addr(m[2])
            left = deadline - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(left, 0))
            if not ready:
                raise ServeError("lomon serve did not announce its address")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ServeError("lomon serve exited: " + buf.decode(errors="replace")[-500:])
            buf += chunk

    def stop(self):
        """Drain shutdown over the admin endpoint; kill if it hangs."""
        try:
            with socket.create_connection(self.admin, timeout=10) as s:
                s.sendall(b"POST /shutdown HTTP/1.1\r\nHost: bench\r\n"
                          b"Content-Length: 0\r\nConnection: close\r\n\r\n")
                while s.recv(65536):
                    pass
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self.proc.stderr.close()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def connect(addr):
    """Open a stream connection and read its first frame; returns the socket
    and any bytes after that frame."""
    sock = socket.create_connection(addr, timeout=IO_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    buf = b""
    while b"\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            sock.close()
            raise ServeError("connection closed before the ready frame")
        buf += chunk
    line, rest = buf.split(b"\n", 1)
    kind = json.loads(line).get("type")
    if kind != "ready":
        sock.close()
        raise ServeError(f"first frame is `{kind}`, not `ready`")
    return sock, rest


class Conn:
    def __init__(self, addr):
        self.sock, rest = connect(addr)
        self.sock.setblocking(False)
        self.inbuf = bytearray(rest)
        self.chunks = []
        self.out = None
        self.off = 0
        self.due = collections.deque()

    def queue(self, data):
        if self.out is None:
            self.out, self.off = memoryview(data), 0
        else:
            self.out = memoryview(bytes(self.out[self.off:]) + data)
            self.off = 0
        self.flush()

    def flush(self):
        try:
            while self.out is not None:
                sent = self.sock.send(self.out[self.off:self.off + SEND_CHUNK])
                self.off += sent
                if self.off >= len(self.out):
                    self.out = None
        except BlockingIOError:
            pass

    def receive(self, result):
        """Read what is there; return how many summary frames completed.
        Frames are only counted here (by their quoted `"summary"` type
        value) and decoded after the timed phase, so the generator spends
        no time per verdict line while it measures."""
        data = self.sock.recv(RECV_CHUNK)
        if not data:
            raise ServeError("server closed the connection")
        self.inbuf += data
        cut = self.inbuf.rfind(b"\n")
        if cut < 0:
            return 0
        complete = bytes(self.inbuf[:cut + 1])
        del self.inbuf[:cut + 1]
        self.chunks.append(complete)
        if b'"error"' in complete or b'"overload"' in complete:
            for line in complete.split(b"\n"):
                kind = json.loads(line).get("type") if line else None
                if kind in ("error", "overload"):
                    if kind == "error":
                        result.error_frames += 1
                    else:
                        result.overload_frames += 1
                    raise ServeError(f"{kind} frame: " + line.decode(errors="replace"))
        return complete.count(b'"summary"')

    def lines(self):
        return [line for line in b"".join(self.chunks).split(b"\n") if line]


class Result:
    def __init__(self):
        self.elapsed = 0.0
        self.frames = []
        self.latencies = []
        self.late = []
        self.error_frames = 0
        self.overload_frames = 0


def _pump(conns, timeout, on_summaries, result):
    readable = [c.sock for c in conns]
    writable = [c.sock for c in conns if c.out is not None]
    r, w, _ = select.select(readable, writable, [], timeout)
    for c in conns:
        if c.sock in w:
            c.flush()
        if c.sock in r:
            done = c.receive(result)
            if done:
                on_summaries(c, done)
    return bool(r or w)


def closed_loop(addr, per_conn):
    """Each connection sends its streams one at a time, the next after the
    previous one's summary. `elapsed` runs from the first byte sent to the
    last summary received."""
    result = Result()
    conns = [Conn(addr) for _ in per_conn]
    try:
        todo = [collections.deque(streams) for streams in per_conn]
        left = [len(streams) for streams in per_conn]
        finished = [0.0]

        def on_summaries(c, n):
            k = conns.index(c)
            left[k] -= n
            finished[0] = time.perf_counter()
            if todo[k]:
                c.queue(todo[k].popleft())

        t0 = time.perf_counter()
        for c, q in zip(conns, todo):
            c.queue(q.popleft())
        while any(left):
            if not _pump(conns, IO_TIMEOUT, on_summaries, result):
                raise ServeError("closed loop timed out")
        result.elapsed = finished[0] - t0
        result.frames = [c.lines() for c in conns]
    finally:
        for c in conns:
            c.sock.close()
    return result


def open_loop(addr, streams, rate, connections):
    """Offer `streams` at `rate` per second, stream i on connection
    i % connections; latency per stream from its scheduled send time to
    its summary frame."""
    result = Result()
    conns = [Conn(addr) for _ in range(connections)]
    try:
        n = len(streams)
        received = [0]

        def on_summaries(c, count):
            now = time.perf_counter()
            for _ in range(count):
                result.latencies.append(now - c.due.popleft())
            received[0] += count

        t0 = time.perf_counter() + 0.01
        sent = 0
        while received[0] < n:
            now = time.perf_counter()
            while sent < n and t0 + sent / rate <= now:
                due = t0 + sent / rate
                c = conns[sent % connections]
                c.due.append(due)
                result.late.append(now - due)
                c.queue(streams[sent])
                sent += 1
                now = time.perf_counter()
            wait = (t0 + sent / rate - now) if sent < n else IO_TIMEOUT
            if not _pump(conns, max(wait, 0.0), on_summaries, result) and sent >= n:
                raise ServeError("open loop timed out")
        result.frames = [c.lines() for c in conns]
    finally:
        for c in conns:
            c.sock.close()
    return result


def connect_ready(addr, count):
    """Seconds from connect() to the ready frame, `count` connections in turn."""
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        sock, _ = connect(addr)
        out.append(time.perf_counter() - t0)
        sock.close()
    return out


def end_summary(addr, streams):
    """Seconds from sending a stream's `end` frame to its summary frame, on
    one connection; the events go first, with a pause to let the server
    consume them, so the figure is the close/drain/render/write tail."""
    out = []
    result = Result()
    conn = Conn(addr)
    try:
        for stream in streams:
            cut = stream.rstrip(b"\n").rfind(b"\n") + 1
            conn.queue(stream[:cut])
            while conn.out is not None:
                _pump([conn], IO_TIMEOUT, lambda c, n: None, result)
            time.sleep(0.002)
            got = [0]

            def on_summaries(_c, n):
                got[0] += n

            t0 = time.perf_counter()
            conn.queue(stream[cut:])
            while not got[0]:
                if not _pump([conn], IO_TIMEOUT, on_summaries, result):
                    raise ServeError("end/summary timed out")
            out.append(time.perf_counter() - t0)
    finally:
        conn.sock.close()
    return out

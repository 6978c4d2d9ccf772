"""The benchmark's side of the wire: a real ``repro serve`` subprocess
and pipelined ``serve1`` connections to it.

Nothing here imports ``repro``; the server is a separate process
started from the checkout's ``src`` with its default flags (or, for
the traced run, through ``launcher.py``, which wraps layer entry
points and then runs the same ``repro serve`` main).
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Run files (server logs, span dumps) live inside the checkout.
OUT_DIR = ROOT / ".perfbench_out"

#: Responses to ``link`` carry whole linked programs, so the client
#: reads lines far longer than asyncio's 64 KiB default.
READ_LIMIT = 1 << 26


class Dropped(Exception):
    """The server closed the connection without answering."""


class ServerProcess:
    """One ``repro serve`` subprocess, from spawn to its drain."""

    def __init__(self, *, traced: bool = False, tag: str = "server"):
        OUT_DIR.mkdir(exist_ok=True)
        self.spans_path = OUT_DIR / f"{tag}-spans.json"
        self._log = open(OUT_DIR / f"{tag}.log", "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        if traced:
            argv = [sys.executable, str(HERE / "launcher.py"),
                    str(self.spans_path)]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log)
        self.port = self._read_port(timeout=60.0)

    def _read_port(self, timeout: float) -> int:
        """Parse ``serving on HOST:PORT (...)`` from the server's stdout."""
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        buf = b""
        while b"\n" not in buf:
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError("server did not announce its port "
                                   f"(see {self._log.name})")
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    continue
                buf += chunk
        line = buf.split(b"\n", 1)[0].decode()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"unexpected server banner: {line!r}")
        return int(line.split()[2].rsplit(":", 1)[1])

    def rss_hwm_mb(self) -> float:
        """The server's peak resident set (VmHWM), in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for row in status.splitlines():
            if row.startswith("VmHWM:"):
                return int(row.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class Conn:
    """One pipelined connection: many requests in flight, responses
    matched to requests by ``id`` and timestamped on arrival."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._task = asyncio.create_task(self._read_loop())

    @classmethod
    async def open(cls, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=READ_LIMIT)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                t_recv = time.perf_counter()
                if not line:
                    break
                response = json.loads(line)
                fut = self._pending.pop(response.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result((t_recv, response))
        except (ConnectionError, OSError):
            pass
        finally:
            for fut in self._pending.values():
                if not fut.done():
                    fut.set_exception(Dropped())
            self._pending.clear()

    def send(self, request_id: int, line: bytes) -> asyncio.Future:
        """Write one request line; the future resolves to
        ``(arrival perf_counter, response)`` or raises :class:`Dropped`."""
        fut = asyncio.get_running_loop().create_future()
        if self._task.done():
            fut.set_exception(Dropped())
            return fut
        self._pending[request_id] = fut
        try:
            self._writer.write(line)
        except (ConnectionError, OSError):
            self._pending.pop(request_id, None)
            fut.set_exception(Dropped())
        return fut

    @property
    def alive(self) -> bool:
        return not self._task.done()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


def request_body(op: str, **fields: object) -> bytes:
    """A request line minus its id, encoded once and reused by
    :func:`with_id` (keeps JSON encoding of large sources off the open
    loop's send path)."""
    return (json.dumps({"op": op, **fields}, separators=(",", ":"))[1:]
            + "\n").encode()


def with_id(request_id: int, body: bytes) -> bytes:
    return b'{"id":%d,' % request_id + body


def request_line(request_id: int, op: str, **fields: object) -> bytes:
    return with_id(request_id, request_body(op, **fields))


async def call(conn: Conn, request_id: int, op: str,
               **fields: object) -> dict[str, object]:
    """Send one request and wait for its answer (control ops, priming)."""
    _, response = await conn.send(request_id,
                                  request_line(request_id, op, **fields))
    return response


async def _ping_until_ok(port: int, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            conn = await Conn.open(port)
            try:
                response = await asyncio.wait_for(call(conn, 0, "ping"),
                                                  timeout)
            finally:
                await conn.close()
            if response.get("status") == "ok":
                return
        except (ConnectionError, OSError, Dropped):
            pass
        if time.monotonic() > deadline:
            raise RuntimeError("server never answered ping")
        await asyncio.sleep(0.01)


def start_server(*, traced: bool = False,
                 tag: str = "server") -> tuple[ServerProcess, float]:
    """Spawn a server and wait for its first ``ok`` ping; returns the
    process and the seconds from spawn to that ping."""
    server = ServerProcess(traced=traced, tag=tag)
    try:
        asyncio.run(_ping_until_ok(server.port, 60.0))
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.t_spawn

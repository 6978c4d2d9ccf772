"""The asyncio link-server daemon.

Architecture: one event loop owns the sockets and all admission
state; pipeline requests execute in a bounded worker-thread pool
(:func:`repro.serve.handlers.execute_request` re-enters every scope
inside the thread).  The loop therefore never blocks on unit-language
work, and all mutation of admission counters happens on the loop —
no locks beyond the cache store's own.

With ``processes > 0`` the execution tier moves out-of-process: the
same dispatch threads exist, but each one just ships the validated
request to a spawned worker over a pipe and blocks on the reply
(:class:`repro.serve.workers.WorkerPool`).  The loop-side admission
logic is identical in both modes; control ops that touch per-worker
state (``flush`` / ``stats``) broadcast to the pool
from a dedicated single-thread executor so the loop never blocks on a
pipe.

Robustness properties (chaos-tested; see ``docs/SERVING.md``):

* **Admission control** — at most ``workers`` requests execute while
  ``queue_limit`` more wait; anything beyond that is shed immediately
  with an ``overloaded`` response (bounded queue, bounded latency;
  counted as ``serve.overloaded``).
* **Per-request isolation** — each request runs under its own budget,
  collector scope, and (optional) chaos plan; the only shared state
  is the lock-protected :class:`~repro.units.cache.CacheStore`.
* **Graceful drain** — SIGTERM/SIGINT stop the listener, in-flight
  requests finish, queued-but-unread lines and new requests are
  answered ``shutting-down`` (counted as ``serve.rejected``), then
  the process exits.

Connections are pipelined: a client may send many request lines
without waiting; responses carry the request ``id`` and may complete
out of order (a per-connection write lock keeps the frames intact).
"""

from __future__ import annotations

import asyncio
import gc
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.serve import protocol as _protocol
from repro.serve.handlers import execute_request
from repro.units.cache import CacheStore


#: The served process's cyclic-collector thresholds.  A request keeps
#: thousands of container objects alive while it runs (its parsed AST,
#: link graph and generated code).  At CPython's default gen-0
#: threshold of 700 they outlive several young collections and are
#: promoted into the oldest generation, and each full collection then
#: traces the whole long-lived cache.  A young generation of 20 000
#: lets most of them die young.
SERVE_GC_THRESHOLD = (20_000, 10, 10)


class _CollectionTimer:
    """A ``gc.callbacks`` probe that times every collection, per
    generation."""

    def __init__(self) -> None:
        self.total_s = [0.0, 0.0, 0.0]
        self.max_s = [0.0, 0.0, 0.0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        generation = info["generation"]
        pause = time.perf_counter() - self._started
        self.total_s[generation] += pause
        self.max_s[generation] = max(self.max_s[generation], pause)


#: Collections are process-wide, so is their timer.
_collections = _CollectionTimer()


def configure_serving_gc() -> None:
    """Size the young generation to a request and time collections.

    ``repro serve`` and every worker process call this once at startup;
    in-process servers (tests, the load generator) keep the host's
    settings.
    """
    gc.set_threshold(*SERVE_GC_THRESHOLD)
    if _collections not in gc.callbacks:
        gc.callbacks.append(_collections)


def gc_stats() -> dict[str, object]:
    """This process's ``gc`` block for the ``stats`` op.

    Pause times are ``None`` unless :func:`configure_serving_gc` ran,
    since only then is there a probe to have measured them.
    """
    timed = _collections in gc.callbacks
    return {
        "collections": [gen["collections"] for gen in gc.get_stats()],
        "pause_total_s": list(_collections.total_s) if timed else None,
        "pause_max_s": list(_collections.max_s) if timed else None,
        "gen2_pause_total_s": _collections.total_s[2] if timed else None,
        "gen2_pause_max_s": _collections.max_s[2] if timed else None,
        "threshold": list(gc.get_threshold()),
    }


def _sum_gc_stats(per_worker: list[dict[str, object]]) -> dict[str, object]:
    """One ``gc`` block for a worker pool: counts and pause totals summed,
    the longest pauses kept, and each worker's threshold listed."""
    blocks = [entry["gc"] for entry in per_worker]

    def per_generation(field: str, combine) -> list:
        return [combine(values) for values in
                zip(*(block[field] for block in blocks))]

    return {
        "collections": per_generation("collections", sum),
        "pause_total_s": per_generation("pause_total_s", sum),
        "pause_max_s": per_generation("pause_max_s", max),
        "gen2_pause_total_s":
            sum(block["gen2_pause_total_s"] for block in blocks),
        "gen2_pause_max_s":
            max((block["gen2_pause_max_s"] for block in blocks), default=0.0),
        "threshold": list(gc.get_threshold()),
        "worker_thresholds": [block["threshold"] for block in blocks],
    }


#: The longest request line the server reads, newline included.  A
#: longer line is drained and answered ``request_too_large``.
MAX_REQUEST_BYTES = 16 * 1024 * 1024


class _RequestTooLarge(Exception):
    """A request line past :data:`MAX_REQUEST_BYTES`, already drained."""


async def _read_line(reader: asyncio.StreamReader) -> bytearray | None:
    """The next request line, ``None`` at end of stream.

    The line is read in chunks of at most the stream's buffer limit, so
    a line longer than that is not an error.  A line longer than
    :data:`MAX_REQUEST_BYTES` is read to its newline, dropped, and
    reported as :class:`_RequestTooLarge`.
    """
    line = bytearray()
    too_large = False
    while True:
        try:
            chunk = await reader.readuntil(b"\n")
            done = True
        except asyncio.IncompleteReadError as err:  # end of stream
            chunk, done = err.partial, True
        except asyncio.LimitOverrunError as err:  # past the buffer
            chunk, done = await reader.readexactly(err.consumed), False
        if not too_large:
            line += chunk
            if len(line) > MAX_REQUEST_BYTES:
                too_large = True
                line = bytearray()
        if done:
            if too_large:
                raise _RequestTooLarge
            return line or None


@dataclass
class ServeConfig:
    """Everything a server instance needs to know at startup."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is announced
    workers: int = 4
    queue_limit: int = 16
    processes: int = 0  # 0 = thread mode; N = spawned worker processes
    default_deadline_s: float = 10.0
    max_deadline_s: float | None = 60.0
    cache_dir: str | None = None
    allow_chaos: bool = False
    port_file: str | None = None

    @property
    def pool_size(self) -> int:
        """Concurrent execution slots (worker processes or threads)."""
        return self.processes if self.processes else self.workers

    @property
    def admission_limit(self) -> int:
        return self.pool_size + self.queue_limit


class LinkServer:
    """One daemon: listener + worker pool + shared cache store."""

    def __init__(self, config: ServeConfig, *,
                 registry: "obs.MetricsRegistry | None" = None,
                 store: CacheStore | None = None):
        self.config = config
        self.registry = registry if registry is not None \
            else obs.MetricsRegistry()
        # In process mode each worker builds its own store; the
        # parent's control ops broadcast to them instead.
        self.store = store
        if store is None and not config.processes:
            self.store = CacheStore(config.cache_dir)
        self.port: int | None = None
        self._server: asyncio.base_events.Server | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._workers = None  # WorkerPool in process mode
        self._ctl_pool: ThreadPoolExecutor | None = None
        self._shutdown: asyncio.Event | None = None
        self._inflight: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._active = 0
        self._draining = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "LinkServer":
        self._shutdown = asyncio.Event()
        if self.config.processes:
            # Process mode: the thread pool only *dispatches* (each
            # thread blocks on one worker's pipe), so it is sized to
            # the worker count; control-op broadcasts get their own
            # single thread so they never block the loop.
            from repro.serve.workers import WorkerPool

            self._workers = WorkerPool(self.config, self.registry)
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.processes,
                thread_name_prefix="repro-serve-dispatch")
            self._ctl_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-ctl")
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=self.config.workers,
                thread_name_prefix="repro-serve")
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.port_file:
            Path(self.config.port_file).write_text(f"{self.port}\n")
        return self

    def request_shutdown(self) -> None:
        """Begin draining (idempotent; signal handlers land here)."""
        self._draining = True
        if self._shutdown is not None:
            self._shutdown.set()

    async def serve_until_shutdown(self) -> None:
        """Run until SIGTERM/SIGINT (or :meth:`request_shutdown`),
        then drain."""
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_shutdown)
            except (NotImplementedError, RuntimeError):
                # Not the main thread (tests) or platform without
                # signal support; request_shutdown still works.
                pass
        await self._shutdown.wait()
        await self.drain()

    async def drain(self) -> None:
        """Stop accepting, let in-flight requests finish, shut the
        pool down."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        while self._inflight:
            await asyncio.gather(*list(self._inflight),
                                 return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        if self._ctl_pool is not None:
            self._ctl_pool.shutdown(wait=True)
        if self._workers is not None:
            # The dispatch pool drained above, so every worker is idle.
            self._workers.shutdown()
        # Hang up on idle connections so their handler tasks finish
        # before the loop tears down (every response already went out).
        for writer in list(self._writers):
            try:
                writer.close()
            except OSError:
                pass
        await asyncio.sleep(0)

    # -- the connection loop --------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        write_lock = asyncio.Lock()
        tasks: set[asyncio.Task] = set()
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await _read_line(reader)
                except _RequestTooLarge:
                    work = self._send(
                        writer, write_lock,
                        _protocol.too_large_response(MAX_REQUEST_BYTES))
                else:
                    if line is None:
                        break
                    if line.isspace():
                        continue
                    work = self._handle_line(line, writer, write_lock)
                    # The task holds the only reference to the line.
                    del line
                task = asyncio.create_task(work)
                for bag in (tasks, self._inflight):
                    bag.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(self._inflight.discard)
        finally:
            self._writers.discard(writer)
            # The loop may be tearing down (drain closed this
            # connection); finish cleanup without re-raising the
            # cancellation into asyncio's stream callback.
            try:
                if tasks:
                    await asyncio.gather(*list(tasks),
                                         return_exceptions=True)
                writer.close()
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass

    async def _handle_line(self, line: bytearray,
                           writer: asyncio.StreamWriter,
                           write_lock: asyncio.Lock) -> None:
        request_id: object = None
        try:
            # Free the bytes once decoded, and the text once parsed:
            # a large request is held once, not three times.
            text = line.decode("utf-8")
            line.clear()
            obj = json.loads(text)
            del text
            if isinstance(obj, dict):
                request_id = obj.get("id")
            req = _protocol.validate_request(obj)
        except (ValueError, UnicodeDecodeError) as err:
            response = _protocol.bad_request_response(request_id,
                                                      str(err))
            await self._send(writer, write_lock, response)
            return
        response = await self._route(req)
        await self._send(writer, write_lock, response)

    async def _route(self, req: dict[str, object]) -> dict[str, object]:
        request_id = req.get("id")
        if self._draining:
            self.registry.count("serve.rejected")
            return _protocol.shutting_down_response(request_id)
        loop = asyncio.get_running_loop()
        if req["op"] in _protocol.CONTROL_OPS:
            if self._workers is not None and \
                    req["op"] in ("flush", "stats"):
                # These touch per-worker state; the broadcast blocks
                # on pipes, so it runs off-loop.
                return await loop.run_in_executor(
                    self._ctl_pool, self._pool_control, req)
            return self._control(req)
        # Admission: shed instead of queueing unboundedly.
        if self._active >= self.config.admission_limit:
            self.registry.count("serve.overloaded")
            return _protocol.overloaded_response(request_id)
        self._active += 1
        self.registry.count("serve.requests")
        self.registry.gauge("serve.inflight", self._active)
        try:
            if self._workers is not None:
                return await loop.run_in_executor(
                    self._pool, self._workers.submit, req)
            return await loop.run_in_executor(
                self._pool, execute_request, req, self.store,
                self.registry, self.config)
        except Exception as err:  # a server bug, not a request failure
            self.registry.count("serve.internal_error")
            return _protocol.error_response(request_id, err)
        finally:
            self._active -= 1
            self.registry.gauge("serve.inflight", self._active)

    def _control(self, req: dict[str, object]) -> dict[str, object]:
        """Cheap ops the loop answers inline (no budget, no worker)."""
        request_id = req.get("id")
        op = req["op"]
        if op == "ping":
            return _protocol.ok_response(request_id, value="pong")
        if op == "metrics":
            return _protocol.ok_response(
                request_id, metrics=self.registry.snapshot())
        if op == "stats":
            return _protocol.ok_response(
                request_id, occupancy=self.store.occupancy(),
                inflight=self._active,
                workers={"mode": "threads",
                         "workers": self.config.workers},
                gc=gc_stats())
        # op == "flush"
        self.store.clear()
        return _protocol.ok_response(request_id, value="flushed")

    def _pool_control(self, req: dict[str, object]) -> dict[str, object]:
        """Control ops in process mode: broadcast to every worker
        (runs in the dedicated control thread, never on the loop)."""
        request_id = req.get("id")
        op = req["op"]
        if op == "flush":
            self._workers.broadcast("flush")
            return _protocol.ok_response(request_id, value="flushed")
        # op == "stats": per-worker occupancy and collector counts
        # summed, plus the pool's death/respawn bookkeeping.
        per_worker = self._workers.broadcast("stats")
        occupancy: dict[str, int] = {}
        for entry in per_worker:
            for tier, count in entry["occupancy"].items():
                occupancy[tier] = occupancy.get(tier, 0) + count
        info = self._workers.info()
        info["per_worker"] = per_worker
        return _protocol.ok_response(
            request_id, occupancy=occupancy, inflight=self._active,
            workers=info, gc=_sum_gc_stats(per_worker))

    async def _send(self, writer: asyncio.StreamWriter,
                    write_lock: asyncio.Lock,
                    response: dict[str, object]) -> None:
        data = json.dumps(response, separators=(",", ":")) + "\n"
        async with write_lock:
            try:
                writer.write(data.encode("utf-8"))
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; its request still completed


def run_server(config: ServeConfig) -> int:
    """Blocking entry point for ``repro serve``."""
    configure_serving_gc()

    async def main() -> None:
        server = LinkServer(config)
        await server.start()
        mode = (f"{config.processes} worker processes"
                if config.processes else
                f"{config.workers} worker threads")
        print(f"serving on {config.host}:{server.port} ({mode})",
              flush=True)
        await server.serve_until_shutdown()
        print("drained", flush=True)

    asyncio.run(main())
    return 0


class ServerThread:
    """An in-process server for tests, the chaos sweep, and the load
    generator: the event loop runs in a daemon thread, the caller gets
    ``host``/``port`` once the listener is bound.

    Use as a context manager; exit requests shutdown and joins through
    the full drain, so in-flight work finishes before the block ends.
    """

    def __init__(self, config: ServeConfig, *,
                 registry: "obs.MetricsRegistry | None" = None,
                 store: CacheStore | None = None):
        self._config = config
        self._registry = registry
        self._store = store
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self.server: LinkServer | None = None
        self.port: int | None = None

    @property
    def host(self) -> str:
        return self._config.host

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-loop")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread never became ready")
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as err:
            self._error = err
            self._ready.set()

    async def _main(self) -> None:
        server = LinkServer(self._config, registry=self._registry,
                            store=self._store)
        await server.start()
        self.server = server
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await server._shutdown.wait()
        await server.drain()

    def request_shutdown(self) -> None:
        """Ask the loop to begin draining, from any thread.

        A no-op once the loop has closed — a server that already
        drained itself has nothing left to shut down.
        """
        loop = self._loop
        if loop is None or self.server is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self.server.request_shutdown)
        except RuntimeError:
            pass  # the loop closed between the check and the call

    def stop(self) -> None:
        self.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout=60)
            if self._thread.is_alive():
                raise RuntimeError("server thread failed to drain")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

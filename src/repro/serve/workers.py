"""The multi-process worker pool behind ``repro serve --processes N``.

The thread-mode server executes every request in one Python process,
so pipeline throughput is pinned by the GIL no matter how many worker
threads run.  This module moves execution into *worker processes*: the
asyncio acceptor and all admission state stay in the parent, and each
pipeline request is shipped to a spawned worker over a private
:class:`multiprocessing.connection.Connection` pair.

Design decisions, in order of importance:

* **Spawn, never fork.**  Workers are started with the ``spawn``
  context, so each bootstraps a clean interpreter and imports the
  pipeline fresh — no inherited locks, no forked event loop, no
  accidentally shared contextvars.  The worker entry point
  (:func:`_worker_main`) builds its *own* per-process
  :class:`~repro.units.cache.CacheStore` (its locks go uncontended: a
  worker runs one request at a time) and its own
  :class:`~repro.obs.metrics.MetricsRegistry`; the only state workers
  share is the pycode disk cache tier, whose content-addressed keys and
  atomic tmp+``os.replace`` writes are already process-safe.
* **One pipe per worker, one request in flight per worker.**  The
  parent always knows exactly which request a dead worker was holding,
  so crash attribution is exact — no poisoned shared queue to drain,
  no ambiguity about which requests to requeue.
* **Metrics ride the response.**  Each request executes under the
  worker registry's scope; afterwards the worker *drains* the registry
  (:meth:`~repro.obs.metrics.MetricsRegistry.drain`) and sends the
  ``metrics1`` fragment back alongside the response envelope.  The
  parent folds fragments in with ``merge_snapshot`` — merging is
  associative and order-independent (property-tested across a real
  process boundary in ``tests/test_serve_envelope_properties.py``), so
  racing workers still produce one coherent parent snapshot.
* **Worker death is a handled event, not a server crash.**  A worker
  that dies mid-request (segfault, OOM kill, the ``worker-kill`` chaos
  fault) surfaces as ``EOFError``/``OSError`` on its pipe.  The parent
  reaps it, spawns a replacement, and either *requeues* the request
  once on a fresh worker (a healthy request that was collateral
  damage) or *fails* it with a typed :class:`WorkerCrashed` error in
  the ``batch1`` taxonomy (a request that already killed a worker, or
  one that asked to via chaos).  Deaths and respawns are counted
  (``serve.worker_deaths`` / ``serve.worker_respawns`` /
  ``serve.requeued``) and reported by the ``stats`` op.

Control ops (``flush`` / ``stats``) broadcast to
every worker between requests: :meth:`WorkerPool.broadcast` collects
each worker from the idle queue (waiting for in-flight work to
finish), runs the op, and returns the per-worker results the server
aggregates.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import threading
from typing import TYPE_CHECKING

from repro.serve import protocol as _protocol

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.server import ServeConfig

#: Message tags on the parent->worker pipe.
_REQ, _CTL, _EXIT = "req", "ctl", "exit"

#: How long to wait for a spawned worker's ready handshake.
_SPAWN_TIMEOUT_S = 120.0

#: How long a dispatch thread waits for an idle worker before giving
#: up (admission control normally makes the wait instantaneous; this
#: bound only matters when the pool is degraded by failed respawns).
_ACQUIRE_TIMEOUT_S = 120.0


class WorkerCrashed(RuntimeError):
    """A worker process died (crash, SIGKILL, OOM) holding a request.

    Carried to the client through the standard ``batch1`` error
    payload (``type: "WorkerCrashed"``, exit-code field 1), so
    scripted clients branch on it exactly as on any other typed
    failure.
    """


def _worker_main(conn, config: "ServeConfig") -> None:
    """The worker process body: bootstrap once, serve jobs forever.

    Runs in a *spawned* child — everything here is this process's own:
    the cache store (pycode disk tier shared with siblings by
    content address only), the metrics registry, the chaos arming state.
    """
    import signal

    # The parent owns lifecycle: drain is a pipe message, never a
    # keyboard interrupt racing a half-written response.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    from repro.obs.metrics import MetricsRegistry
    from repro.serve import chaos as _chaos
    from repro.serve.handlers import execute_request
    from repro.serve.server import configure_serving_gc, gc_stats
    from repro.units.cache import CacheStore

    configure_serving_gc()
    _chaos.mark_worker_process()
    store = CacheStore(config.cache_dir)
    registry = MetricsRegistry()
    conn.send(("ready", os.getpid()))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == _EXIT:
            break
        if msg[0] == _CTL:
            if msg[1] == "flush":
                store.clear()
                result: object = "flushed"
            else:  # "stats"
                result = {"pid": os.getpid(),
                          "occupancy": store.occupancy(),
                          "gc": gc_stats()}
            conn.send(("ok", result))
            continue
        req = msg[1]
        try:
            response = execute_request(req, store, registry, config)
        except Exception as err:  # a server bug, not a request failure
            registry.count("serve.internal_error")
            response = _protocol.error_response(req.get("id"), err)
        response["worker"] = os.getpid()
        conn.send(("ok", (response, registry.drain())))
    try:
        conn.close()
    except OSError:
        pass


class _Worker:
    """Parent-side handle: the process plus its private pipe."""

    __slots__ = ("process", "conn", "pid")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.pid = process.pid


class WorkerPool:
    """``processes`` spawned workers behind an idle queue.

    Thread-safe from the server's dispatch executor: ``submit`` runs
    in up to ``processes`` dispatch threads at once (one blocked on
    each worker's pipe), ``broadcast`` serializes control ops, and
    death/respawn bookkeeping happens under one lock.
    """

    def __init__(self, config: "ServeConfig",
                 registry: "MetricsRegistry"):
        self.config = config
        self.registry = registry
        self.size = config.processes
        self._ctx = mp.get_context("spawn")
        self._idle: "queue.Queue[_Worker]" = queue.Queue()
        self._lock = threading.Lock()
        self._broadcast_lock = threading.Lock()
        self._live: dict[int, _Worker] = {}
        self._closed = False
        self.deaths = 0
        self.respawns = 0
        # Start every process first, then collect the handshakes, so
        # the spawns overlap instead of serializing their imports.
        started = [self._spawn() for _ in range(self.size)]
        for worker in started:
            self._await_ready(worker)
            self._idle.put(worker)

    # -- spawning and reaping -------------------------------------------

    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn, self.config),
            name="repro-serve-worker", daemon=True)
        process.start()
        # Close our copy of the child end, or a dead worker would
        # never surface as EOF on the parent end.
        child_conn.close()
        return _Worker(process, parent_conn)

    def _await_ready(self, worker: _Worker) -> None:
        if not worker.conn.poll(_SPAWN_TIMEOUT_S):
            worker.process.kill()
            raise RuntimeError(
                f"worker {worker.pid} never became ready")
        tag, pid = worker.conn.recv()
        assert tag == "ready" and pid == worker.pid
        with self._lock:
            self._live[worker.pid] = worker

    def _reap_and_respawn(self, worker: _Worker) -> "_Worker | None":
        """Bury a dead worker; return its replacement (or ``None``
        while the pool is shutting down)."""
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=10)
        with self._lock:
            self._live.pop(worker.pid, None)
            self.deaths += 1
            closed = self._closed
        self.registry.count("serve.worker_deaths")
        if closed:
            return None
        replacement = self._spawn()
        self._await_ready(replacement)
        with self._lock:
            self.respawns += 1
        self.registry.count("serve.worker_respawns")
        return replacement

    # -- request dispatch (one dispatch thread per in-flight request) ---

    def submit(self, req: dict[str, object]) -> dict[str, object]:
        """Run one validated request on some worker; always returns a
        response envelope.

        A worker dying mid-request is requeued once onto a fresh
        worker — unless the request *asked* for the kill (the
        ``worker-kill`` chaos fault) or already got its retry, in
        which case it fails with the typed :class:`WorkerCrashed`
        payload.
        """
        request_id = req.get("id")
        requeued = False
        while True:
            worker = self._acquire()
            try:
                worker.conn.send((_REQ, req))
                tag, payload = worker.conn.recv()
            except (EOFError, OSError):
                replacement = self._reap_and_respawn(worker)
                if replacement is not None:
                    self._idle.put(replacement)
                asked_for_it = "worker-kill" in (req.get("chaos") or ())
                if asked_for_it or requeued:
                    return self._crash_response(request_id, worker.pid,
                                                requeued=requeued)
                requeued = True
                self.registry.count("serve.requeued")
                continue
            self._idle.put(worker)
            response, fragment = payload
            self.registry.merge_snapshot(fragment)
            return response

    def _acquire(self) -> _Worker:
        try:
            return self._idle.get(timeout=_ACQUIRE_TIMEOUT_S)
        except queue.Empty:
            raise WorkerCrashed(
                "no worker process became available "
                f"within {_ACQUIRE_TIMEOUT_S:.0f}s") from None

    def _crash_response(self, request_id: object, pid: int | None, *,
                        requeued: bool) -> dict[str, object]:
        detail = " after one requeue" if requeued else ""
        err = WorkerCrashed(
            f"worker process {pid} died executing this request{detail}")
        return _protocol.error_response(request_id, err)

    # -- control-op broadcast -------------------------------------------

    def broadcast(self, op: str) -> list:
        """Run one control op on every worker; per-worker results.

        Collects each worker from the idle queue (so the op runs
        between requests, never concurrently with one), which also
        means a broadcast naturally waits for in-flight work to
        finish.  Workers found dead are respawned; their result is
        simply absent from the list.
        """
        with self._broadcast_lock:
            held: list[_Worker] = []
            results: list = []
            try:
                for _ in range(self.size):
                    try:
                        held.append(
                            self._idle.get(timeout=_ACQUIRE_TIMEOUT_S))
                    except queue.Empty:
                        break  # degraded pool; act on what we have
                for index, worker in enumerate(list(held)):
                    try:
                        worker.conn.send((_CTL, op))
                        _tag, result = worker.conn.recv()
                        results.append(result)
                    except (EOFError, OSError):
                        replacement = self._reap_and_respawn(worker)
                        if replacement is not None:
                            held[index] = replacement
                        else:
                            held[index] = None  # type: ignore[call-overload]
            finally:
                for worker in held:
                    if worker is not None:
                        self._idle.put(worker)
        return results

    # -- introspection and shutdown -------------------------------------

    def pids(self) -> list[int]:
        with self._lock:
            return sorted(self._live)

    def info(self) -> dict[str, object]:
        """The worker-configuration block of the ``stats`` op."""
        with self._lock:
            return {"mode": "processes", "processes": self.size,
                    "pids": sorted(self._live), "deaths": self.deaths,
                    "respawns": self.respawns}

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop every worker (called after the dispatch pool drained,
        so all workers are idle)."""
        with self._lock:
            self._closed = True
        workers: list[_Worker] = []
        while True:
            try:
                workers.append(self._idle.get_nowait())
            except queue.Empty:
                break
        for worker in workers:
            try:
                worker.conn.send((_EXIT,))
            except OSError:
                pass
        for worker in workers:
            worker.process.join(timeout=timeout_s)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=timeout_s)
            try:
                worker.conn.close()
            except OSError:
                pass
        with self._lock:
            self._live.clear()

"""Fault injection for the link server (and anything else).

The robustness claims in ``docs/SERVING.md`` are proven against this
layer, not asserted: a :class:`ChaosPlan` names the faults to inject
and :func:`chaos_scope` arms them for one dynamic extent — in the
server, for exactly one request's worker thread, which is what makes
"one failing request never degrades a concurrent healthy one" a
testable statement rather than a hope.

Faults (the :data:`FAULTS` vocabulary):

* ``cache-io`` — disk cache-tier reads/writes raise :class:`OSError`,
  exercising the degrade-to-memory-only paths in
  :mod:`repro.units.cache`;
* ``slow-load`` — archive lookups stall for ``slow_s`` seconds,
  exercising per-request deadlines and retry backoff under a slow
  source;
* ``poison`` — archive lookups return an entry whose serialized
  source has been corrupted, exercising the typed failure path at the
  retrieval boundary (and proving the content-addressed parse cache
  cannot be poisoned: the mangled source has a different key);
* ``link-exhaust`` — the compound-merge step raises
  :class:`~repro.limits.BudgetExceeded` before the flatten memo can
  store its subtree, exercising the never-cache-failures discipline
  mid-link;
* ``worker-kill`` — the executing *worker process* dies instantly via
  ``os._exit`` (no cleanup, no response — indistinguishable from a
  SIGKILL or OOM kill from the parent's side), exercising the pool's
  reap/respawn/requeue path in :mod:`repro.serve.workers`.  The hook
  only fires inside a process that called
  :func:`mark_worker_process`; in the thread-mode server there is no
  process to lose, so the fault is inert by design.

Hook protocol: the core modules guard every call with the module-level
:data:`_armed` counter (``if _chaos._armed: _chaos.cache_io(...)``),
so unarmed processes — every normal CLI run — pay one integer test per
hook site and never enter this module.  The plan itself rides a
:class:`~contextvars.ContextVar`, so arming is per-extent: concurrent
requests in one process see only their own plan.  Each injection
emits a ``serve.chaos`` trace event naming the fault and site.

:func:`run_chaos_sweep` (``repro serve --chaos``) drives an in-process
server through every fault while concurrent healthy requests race it,
asserting the differential acceptance criteria; see that function's
docstring.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

from repro.limits import BudgetExceeded
from repro.obs import current as _obs_current

#: Every fault name a plan may carry.
FAULTS = ("cache-io", "slow-load", "poison", "link-exhaust",
          "worker-kill")

#: True only in a serve worker process (set by
#: ``repro.serve.workers._worker_main`` at bootstrap).  The
#: ``worker-kill`` fault consults it so that arming the fault in a
#: thread-mode server — where "the worker" is the whole daemon —
#: cannot take the server down.
_worker_process = False


def mark_worker_process() -> None:
    """Declare this process a serve worker (enables ``worker-kill``)."""
    global _worker_process
    _worker_process = True


@dataclass(frozen=True)
class ChaosPlan:
    """Which faults to inject, and how hard.

    ``faults`` is a subset of :data:`FAULTS`; ``slow_s`` is the stall
    injected per archive lookup under ``slow-load``.
    """

    faults: frozenset = field(default_factory=frozenset)
    slow_s: float = 0.05

    def __post_init__(self) -> None:
        unknown = set(self.faults) - set(FAULTS)
        if unknown:
            raise ValueError(f"unknown chaos faults: {sorted(unknown)}")


_PLAN: ContextVar[ChaosPlan | None] = ContextVar("repro_chaos_plan",
                                                 default=None)

#: Count of armed scopes process-wide.  Core hook sites read this
#: plain global before calling in, so unarmed processes pay one
#: integer test per site.
_armed = 0


def current_plan() -> ChaosPlan | None:
    """The armed plan, or ``None`` outside every :func:`chaos_scope`."""
    if not _armed:
        return None
    return _PLAN.get()


@contextmanager
def chaos_scope(plan: ChaosPlan) -> Iterator[ChaosPlan]:
    """Arm ``plan`` for the dynamic extent (contextvar-scoped).

    Nests; concurrent extents are independent.  The server enters one
    per chaos-carrying request inside the worker thread, so the blast
    radius of a fault is exactly that request.
    """
    global _armed
    token = _PLAN.set(plan)
    _armed += 1
    try:
        yield plan
    finally:
        _armed -= 1
        _PLAN.reset(token)


def _note(fault: str, site: str) -> None:
    col = _obs_current()
    if col is not None:
        col.emit("serve.chaos", {"fault": fault, "site": site})


# ---------------------------------------------------------------------------
# Hook points, called (guarded) from the core modules
# ---------------------------------------------------------------------------


def cache_io(site: str) -> None:
    """Raise :class:`OSError` at a disk cache-tier touch point."""
    plan = current_plan()
    if plan is not None and "cache-io" in plan.faults:
        _note("cache-io", site)
        raise OSError(f"chaos: injected cache I/O failure at {site}")


def slow_load(site: str) -> None:
    """Stall an archive lookup."""
    plan = current_plan()
    if plan is not None and "slow-load" in plan.faults:
        _note("slow-load", site)
        time.sleep(plan.slow_s)


def poison(site: str, source: str) -> str:
    """Corrupt an archive entry's serialized source on its way out."""
    plan = current_plan()
    if plan is not None and "poison" in plan.faults:
        _note("poison", site)
        return "(unit (import" + source
    return source


def exhaust(site: str) -> None:
    """Trip the budget at a link-stage touch point."""
    plan = current_plan()
    if plan is not None and "link-exhaust" in plan.faults:
        _note("link-exhaust", site)
        raise BudgetExceeded("deadline", 0.0, 0.0)


def worker_kill(site: str) -> None:
    """Die on the spot — but only inside a marked worker process.

    ``os._exit`` skips every ``finally``, ``atexit`` hook, and pipe
    flush, which is the point: from the parent's perspective this is
    exactly a SIGKILL/OOM kill mid-request (EOF on the worker's pipe,
    no response, no metrics fragment).
    """
    plan = current_plan()
    if plan is not None and "worker-kill" in plan.faults \
            and _worker_process:
        _note("worker-kill", site)
        os._exit(43)


# ---------------------------------------------------------------------------
# The sweep (`repro serve --chaos`)
# ---------------------------------------------------------------------------

#: A small archive-friendly program (its invoked unit round-trips the
#: archive, which is where the slow-load and poison faults live).
_GREET = """\
(invoke (unit (import) (export greet)
  (define greet (lambda (who) (string-append "hello, " who)))
  (greet "world")))
"""


def run_chaos_sweep(verbose: bool = True) -> dict[str, object]:
    """Prove per-request isolation under every fault, differentially.

    For each fault in :data:`FAULTS`, an in-process server (chaos
    allowed, shared disk-backed store, 4 workers) receives one
    chaos-carrying request racing three healthy ones.  The sweep
    asserts, per round:

    * the chaos request lands exactly as designed — degraded-but-
      correct for ``cache-io`` (disk tier gone, value still right),
      a structured budget error for ``slow-load`` (deadline) and
      ``link-exhaust``, a typed ``ArchiveError`` for ``poison``;
    * every concurrent healthy request returns byte-identical
      value/output to a fresh one-shot run of the same program
      against a private store (the differential assert);
    * re-sending the chaos request *without* its faults succeeds with
      the expected value — no injected failure poisoned the shared
      store;
    * at the end, the server's registry reports zero dropped trace
      events.

    The first four faults run against a thread-mode server.
    ``worker-kill`` gets its own round against a 2-process server
    (the fault is inert without real worker processes): the killed
    request must come back as a typed ``WorkerCrashed`` error while
    racing healthy requests still match their one-shot values, the
    pool must report the death and the respawn, and a clean re-send
    must succeed on the replacement worker.

    Raises :class:`AssertionError` on any violation; returns a
    summary dict.  Imports are local so this module stays cheap for
    the core hook sites that import it.
    """
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    from repro.bench import chain_program, sharing_program
    from repro.lang.pretty import show
    from repro.obs import MetricsRegistry
    from repro.serve.client import ServeClient
    from repro.serve.handlers import execute_request
    from repro.serve.protocol import validate_request
    from repro.serve.server import ServeConfig, ServerThread
    from repro.units.cache import CacheStore

    def one_shot(fields: dict[str, object]) -> dict[str, object]:
        """A fresh private store + registry: one-shot CLI semantics."""
        req = validate_request(dict(fields, deadline_s=60))
        return execute_request(req, CacheStore(), MetricsRegistry(),
                               ServeConfig())

    healthy_reqs = {
        "sharing-008": {"op": "run", "backend": "pycode",
                        "source": show(sharing_program(8))},
        "chain-016": {"op": "run", "backend": "pycode",
                      "source": show(chain_program(16))},
        "greet": {"op": "run", "backend": "pycode",
                  "source": _GREET, "archive": True},
    }
    expected = {}
    for name, fields in healthy_reqs.items():
        resp = one_shot(fields)
        assert resp["status"] == "ok", \
            f"one-shot {name} failed: {resp}"
        expected[name] = (resp["value"], resp.get("output", ""))

    # Per-fault chaos request + what it must do.  link-exhaust
    # uses the `link` op on its *own* program so the merge is cold
    # (a warm flatten memo would skip the hook site) — and `link`
    # output is gensym-sensitive, so only its status is asserted.
    rounds = {
        "cache-io": {"fields": dict(healthy_reqs["sharing-008"],
                                    chaos=["cache-io"]),
                     "status": "ok",
                     "value": expected["sharing-008"][0]},
        "slow-load": {"fields": dict(healthy_reqs["greet"],
                                     chaos=["slow-load"],
                                     chaos_slow_s=0.5,
                                     deadline_s=0.1),
                      "status": "error",
                      "error_type": "BudgetExceeded"},
        "poison": {"fields": dict(healthy_reqs["greet"],
                                  chaos=["poison"]),
                   "status": "error",
                   "error_type": "ArchiveError"},
        "link-exhaust": {"fields": {"op": "link",
                                    "source":
                                        show(sharing_program(9)),
                                    "chaos": ["link-exhaust"]},
                         "status": "error",
                         "error_type": "BudgetExceeded"},
    }

    # Fifth fault: worker-kill needs real worker processes (in a
    # thread-mode server the hook is inert by design), so it gets its
    # own round against a 2-process server.
    servers = [
        (dict(workers=4, queue_limit=16), rounds),
        (dict(processes=2), {"worker-kill": {
            "fields": dict(healthy_reqs["greet"], chaos=["worker-kill"]),
            "status": "error", "error_type": "WorkerCrashed"}}),
    ]
    summary: dict[str, object] = {}
    for server_fields, server_rounds in servers:
        registry = MetricsRegistry()
        with tempfile.TemporaryDirectory() as cache_dir:
            config = ServeConfig(cache_dir=cache_dir, allow_chaos=True,
                                 default_deadline_s=60.0, **server_fields)
            with ServerThread(config, registry=registry) as st:

                def send(fields: dict[str, object]) -> dict[str, object]:
                    with ServeClient(st.host, st.port,
                                     timeout_s=120.0) as client:
                        return client.request(**fields)

                for fault, round_spec in server_rounds.items():
                    jobs = [round_spec["fields"]] \
                        + list(healthy_reqs.values())
                    with ThreadPoolExecutor(len(jobs)) as pool:
                        responses = list(pool.map(send, jobs))
                    chaos_resp = responses[0]
                    assert chaos_resp["status"] == round_spec["status"], \
                        f"{fault}: chaos request got {chaos_resp}"
                    if "error_type" in round_spec:
                        got = chaos_resp["error"]["type"]
                        assert got == round_spec["error_type"], \
                            f"{fault}: expected " \
                            f"{round_spec['error_type']}, got {got}"
                    if "value" in round_spec:
                        assert chaos_resp["value"] == \
                            round_spec["value"], \
                            f"{fault}: degraded value differs"
                    for name, resp in zip(healthy_reqs, responses[1:]):
                        assert resp["status"] == "ok", \
                            f"{fault}: healthy {name} degraded: {resp}"
                        got = (resp["value"], resp.get("output", ""))
                        assert got == expected[name], \
                            f"{fault}: healthy {name} diverged from " \
                            f"one-shot: {got} != {expected[name]}"
                    # The store must not be poisoned: the identical
                    # request, faults removed, succeeds.
                    clean = {k: v for k, v in
                             round_spec["fields"].items()
                             if k not in ("chaos", "chaos_slow_s",
                                          "deadline_s")}
                    after = send(clean)
                    assert after["status"] == "ok", \
                        f"{fault}: post-fault request failed: {after}"
                    if clean["op"] == "run":
                        name = next(n for n, f in healthy_reqs.items()
                                    if f["source"] == clean["source"])
                        got = (after["value"], after.get("output", ""))
                        assert got == expected[name], \
                            f"{fault}: post-fault value diverged"
                    summary[fault] = {
                        "chaos_status": chaos_resp["status"],
                        "healthy_ok": len(healthy_reqs),
                    }
                    if verbose:
                        print(f"chaos {fault}: injected -> "
                              f"{chaos_resp['status']}; "
                              f"{len(healthy_reqs)} healthy requests "
                              f"unaffected; store clean")
        counters = registry.snapshot()["counters"]
        dropped = counters.get("trace.dropped", 0)
        assert dropped == 0, f"server dropped {dropped} trace events"
    # ``counters`` is the 2-process server's, the last one run.
    deaths = counters.get("serve.worker_deaths", 0)
    respawns = counters.get("serve.worker_respawns", 0)
    assert deaths >= 1, "worker-kill: no worker death recorded"
    assert respawns >= 1, "worker-kill: no respawn recorded"
    summary["worker-kill"].update(deaths=deaths, respawns=respawns)
    if verbose:
        print(f"chaos worker-kill: {deaths} death(s), "
              f"{respawns} respawn(s)")

    summary["dropped"] = 0
    if verbose:
        print(f"chaos sweep ok: {len(FAULTS)} faults, "
              f"isolation + differential asserts green, 0 dropped")
    return summary

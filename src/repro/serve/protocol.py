"""The ``serve1`` wire protocol: newline-delimited JSON over a socket.

One request per line, one response per line.  A request is a JSON
object with an ``op`` and (for the pipeline ops) a ``source`` program;
a response echoes the request's ``id`` and carries a ``status``:

* ``ok`` — the request ran; ``value`` (and ``output`` for ``run``)
  hold the result, ``timings`` the per-stage seconds, ``spent`` the
  budget consumption;
* ``error`` — the request failed in a *typed* way; ``error`` is the
  same structured payload ``repro batch`` records
  (:func:`repro.serve.handlers.error_payload`) plus a ``code`` mirroring the
  CLI exit taxonomy (3 for budget exhaustion, 1 for everything else),
  so a scripted client can branch exactly as it would on exit codes;
* ``overloaded`` — admission control shed the request *before*
  queueing it (the fast-failure alternative to unbounded latency);
  retry against a less-busy server;
* ``shutting-down`` — the server is draining after SIGTERM; in-flight
  requests finish, new ones are rejected with this status.

Ops: ``ping`` (liveness), ``metrics`` (one coherent ``metrics1``
snapshot of the whole process under ``"metrics"``), ``stats`` (cache
store occupancy), ``flush`` (drop the shared store's memory tiers),
``check`` / ``link`` / ``run`` (the pipeline, executed in a worker
thread under the request's own budget — see
:mod:`repro.serve.handlers`).

Budgets ride the request: ``deadline_s`` (clamped to the server's
maximum), ``eval_steps``, ``machine_steps``.  A request may also carry
``chaos`` (a list of :data:`repro.serve.chaos.FAULTS` names) when the
server was started with ``--allow-chaos`` — the faults arm for that
request's dynamic extent only, which is how the chaos sweep injects a
failure into one request while asserting its neighbours stay healthy.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.limits import BudgetExceeded
from repro.serve.chaos import FAULTS
from repro.serve.handlers import error_payload

SCHEMA = "serve1"

#: Ops executed in a worker thread under a per-request budget.
PIPELINE_OPS = ("check", "link", "run")

#: Ops the event loop answers inline (cheap, no budget needed).
CONTROL_OPS = ("ping", "metrics", "stats", "flush")

OPS = PIPELINE_OPS + CONTROL_OPS

BACKENDS = ("interp", "machine", "pycode")


class ProtocolError(ValueError):
    """A request that cannot be executed as asked."""


def validate_request(obj: object) -> dict[str, object]:
    """Normalize one decoded request line; raises :class:`ProtocolError`.

    Returns a dict with every field present and typed: ``id``, ``op``,
    and — for pipeline ops — ``source``, ``backend``, ``lenient``,
    ``archive``, ``retries``, ``deadline_s``, ``eval_steps``,
    ``machine_steps``, ``chaos``, ``chaos_slow_s``.
    """
    if not isinstance(obj, Mapping):
        raise ProtocolError("request must be a JSON object")
    op = obj.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r} (expected one of {OPS})")
    req: dict[str, object] = {"id": obj.get("id"), "op": op}
    if op not in PIPELINE_OPS:
        return req
    source = obj.get("source")
    if not isinstance(source, str) or not source.strip():
        raise ProtocolError(f"op {op!r} needs a non-empty 'source'")
    req["source"] = source
    backend = obj.get("backend", "pycode")
    if backend not in BACKENDS:
        raise ProtocolError(
            f"unknown backend {backend!r} (expected one of {BACKENDS})")
    req["backend"] = backend
    req["lenient"] = bool(obj.get("lenient", False))
    req["archive"] = bool(obj.get("archive", False))
    req["origin"] = str(obj.get("origin", "<request>"))
    for field, default in (("retries", 0), ("eval_steps", None),
                           ("machine_steps", None)):
        value = obj.get(field, default)
        if value is not None and (not isinstance(value, int)
                                  or isinstance(value, bool)
                                  or value < 0):
            raise ProtocolError(f"{field!r} must be a non-negative int")
        req[field] = value
    # ``json.loads`` accepts NaN and ±Infinity; neither is a budget (a
    # NaN deadline compares false against everything, so it would never
    # fire and would slip past the server's maximum).
    deadline = obj.get("deadline_s")
    if deadline is not None:
        if not _finite_number(deadline) or deadline <= 0:
            raise ProtocolError(
                "'deadline_s' must be a positive finite number")
        deadline = float(deadline)
    req["deadline_s"] = deadline
    chaos = obj.get("chaos", [])
    if not isinstance(chaos, (list, tuple)) \
            or not all(isinstance(f, str) for f in chaos):
        raise ProtocolError("'chaos' must be a list of fault names")
    unknown = set(chaos) - set(FAULTS)
    if unknown:
        raise ProtocolError(f"unknown chaos faults: {sorted(unknown)}")
    req["chaos"] = tuple(chaos)
    slow_s = obj.get("chaos_slow_s", 0.05)
    if not _finite_number(slow_s) or slow_s < 0:
        raise ProtocolError(
            "'chaos_slow_s' must be a non-negative finite number")
    req["chaos_slow_s"] = float(slow_s)
    return req


def _finite_number(value: object) -> bool:
    return isinstance(value, (int, float)) \
        and not isinstance(value, bool) and math.isfinite(value)


# ---------------------------------------------------------------------------
# Response constructors (every wire response goes through one of these)
# ---------------------------------------------------------------------------


def _base(request_id: object, status: str) -> dict[str, object]:
    return {"schema": SCHEMA, "id": request_id, "status": status}


def ok_response(request_id: object,
                **fields: object) -> dict[str, object]:
    out = _base(request_id, "ok")
    out.update(fields)
    return out


def error_response(request_id: object, err: BaseException,
                   **fields: object) -> dict[str, object]:
    """A typed failure, carrying the batch error payload + exit code."""
    out = _base(request_id, "error")
    payload = error_payload(err)
    payload["code"] = 3 if isinstance(err, BudgetExceeded) else 1
    out["error"] = payload
    out.update(fields)
    return out


def bad_request_response(request_id: object,
                         message: str) -> dict[str, object]:
    out = _base(request_id, "error")
    out["error"] = {"type": "ProtocolError", "message": message,
                    "code": 1}
    return out


def too_large_response(limit: int) -> dict[str, object]:
    """The answer to a request line longer than ``limit`` bytes; the
    line was never decoded, so its ``id`` is unknown."""
    out = _base(None, "error")
    out["error"] = {"type": "request_too_large",
                    "message": f"request line exceeds {limit} bytes",
                    "code": 1}
    return out


def overloaded_response(request_id: object) -> dict[str, object]:
    return _base(request_id, "overloaded")


def shutting_down_response(request_id: object) -> dict[str, object]:
    return _base(request_id, "shutting-down")

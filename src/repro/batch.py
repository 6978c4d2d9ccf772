"""Batch execution with per-item fault isolation.

The ``repro batch`` subcommand runs every program in a directory under
one shared budget *configuration* but per-item budget *instances*: each
program gets a fresh :class:`repro.limits.Budget`, so one looping or
resource-hungry item exhausts its own allowance and becomes a failure
record while its siblings run to completion.  This is the batch-driver
face of the paper's robustness story — the host (here, the batch
runner) survives a misbehaving unit.

Every item produces one JSON record (schema ``batch1``)::

    {"schema": "batch1", "file": "...", "status": "ok",
     "value": "...", "output": "...", "spent": {...},
     "timings": {"parse": 0.0003, "check": 0.0011, "total": 0.0082}}

    {"schema": "batch1", "file": "...", "status": "error",
     "error": {"type": "BudgetExceeded", "message": "...",
               "resource": "eval_steps", "limit": 1000, "used": 1001,
               "loc": "loop.scm:3:1"},
     "spent": {...}, "timings": {...}}

``spent`` is the item's resource consumption
(:meth:`repro.limits.Budget.spent`), recorded for successes and
failures alike; ``timings`` holds wall seconds per completed pipeline
stage (``parse``/``check``/``archive``/``eval``) plus the item
``total``, so a failing item shows how far it got and how long each
stage it *did* finish took.  Budget exhaustion additionally emits a
``limit.exceeded`` trace event through the observability layer, so a
``--trace`` of a batch shows exactly where each item died.

Each stage also runs under a ``stage.*`` span, so when a collector is
in scope the item contributes per-stage latency *distributions* —
:func:`run_batch` takes a :class:`repro.obs.metrics.MetricsRegistry`
and wraps every item in its own collector scope, which is how ``repro
batch`` prints its end-of-run p50/p99 stage table and stays coherent
when items run concurrently.

Programs that are unit forms are also round-tripped through a
:class:`~repro.dynlink.archive.UnitArchive` (the Figure 7 retrieval
checks); ``retries`` applies
:func:`repro.dynlink.loader.load_with_retry`'s exponential backoff to
that stage, for archive tiers that can fail transiently.

See ``docs/ROBUSTNESS.md`` for the full model.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Iterable

from repro import limits as _limits
from repro import obs
from repro.serve.handlers import RECORDED_ERRORS, error_payload, run_pipeline

#: Version tag carried by every batch record.
RECORD_SCHEMA = "batch1"


def run_item(path: str | Path, budget: _limits.Budget | None, *,
             lenient: bool = False, retries: int = 0,
             sleep: Callable[[float], None] = time.sleep,
             rng: Callable[[], float] = random.random,
             backend: str = "interp",
             ) -> dict[str, object]:
    """Run one program under its own budget; return its record.

    The file is read and run through the shared pipeline
    (:func:`repro.serve.handlers.run_pipeline`: parse, check, archive
    round-trip, evaluate) inside the budget's scope, so every governed
    subsystem charges this item's allowance and nothing leaks to the
    next item.

    ``backend`` selects the evaluator for the eval stage: the
    environment interpreter (default), the small-step ``machine``, or
    the ``pycode`` Python-closure backend.  All three produce the same
    record fields; budget exhaustion charges the backend's own step
    resource.
    """
    record: dict[str, object] = {
        "schema": RECORD_SCHEMA,
        "file": str(path),
    }
    timings: dict[str, float] = {}
    t_item = time.perf_counter()
    try:
        with _limits.budget_scope(budget):
            with obs.span("stage.item", {"file": str(path)}):
                request = {"op": "run", "source": Path(path).read_text(),
                           "origin": str(path), "backend": backend,
                           "lenient": lenient, "archive": True,
                           "retries": retries}
                value, output = run_pipeline(request, timings,
                                             sleep=sleep, rng=rng)
                record["status"] = "ok"
                record["value"] = value
                record["output"] = output
    except RECORDED_ERRORS as err:
        record["status"] = "error"
        record["error"] = error_payload(err)
    timings["total"] = time.perf_counter() - t_item
    record["spent"] = budget.spent() if budget is not None else None
    record["timings"] = {name: round(seconds, 6)
                         for name, seconds in timings.items()}
    return record


def run_batch(paths: Iterable[str | Path],
              make_budget: Callable[[], _limits.Budget | None], *,
              lenient: bool = False, retries: int = 0,
              fail_fast: bool = False,
              sleep: Callable[[float], None] = time.sleep,
              rng: Callable[[], float] = random.random,
              on_record: Callable[[dict[str, object]], None] | None = None,
              registry: "obs.MetricsRegistry | None" = None,
              backend: str = "interp",
              ) -> tuple[list[dict[str, object]], int]:
    """Run every program, each under a fresh budget.

    Returns ``(records, failures)``.  With ``fail_fast`` the first
    failing item's error re-raises instead of being recorded (the
    escape hatch for CI setups that want the batch to stop hard);
    otherwise the batch always completes and the caller decides what a
    failure count means.

    With a ``registry``, each item runs under its own collector scope
    flushed into it, so per-stage latency histograms accumulate across
    the batch (and, when the registry has a parent collector, each
    item's span tree is adopted into the parent trace).
    """
    records: list[dict[str, object]] = []
    failures = 0
    for path in paths:
        scope = registry.scope() if registry is not None else nullcontext()
        with scope:
            record = run_item(path, make_budget(), lenient=lenient,
                              retries=retries, sleep=sleep, rng=rng,
                              backend=backend)
        records.append(record)
        if on_record is not None:
            on_record(record)
        if record["status"] == "error":
            failures += 1
            if fail_fast:
                break
    return records, failures


def write_records(records: Iterable[dict[str, object]],
                  path: str | Path) -> int:
    """Write records as JSON Lines; returns how many were written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            count += 1
    return count

"""The concurrency-safe telemetry core: histograms, gauges, registry.

The collector layer (:mod:`repro.obs.collector`) is deliberately
single-threaded: one :class:`~repro.obs.collector.Collector` per
execution context, no locks on the hot emit path.  This module is the
*aggregation* side — the pieces that make N concurrent traced
invocations (threads, asyncio tasks, batch items, future ``repro
serve`` requests) produce **one coherent snapshot**:

* :class:`Histogram` — a fixed log-bucketed latency distribution with
  exact ``count``/``sum``/``min``/``max`` and estimated percentiles
  (p50/p90/p99).  Mergeable: merging is associative and commutative
  (property-tested in ``tests/test_metrics.py``), so shards can be
  combined in any order.  Every span exit records its duration into
  the owning collector's histogram for that kind, so stage latencies
  (``check.unit``, ``link.static``, ``unit.compile``, ``dynlink.load``,
  the ``stage.*`` pipeline spans of ``repro batch``) are distributions,
  not just totals — p99 is visible, not averaged away.
* :class:`Gauge` — a last-value instrument with min/max envelope, for
  cache occupancy (``cache.occupancy.*``) and budget headroom
  (``budget.headroom.*``).  Gauge name families are registered in
  :data:`repro.obs.events.GAUGES` (linted by
  ``tests/test_obs_registry.py``).
* :class:`MetricsRegistry` — the lock-protected aggregation point.
  Child collector scopes (one per request/thread/task/batch item,
  opened with :meth:`MetricsRegistry.scope`) flush their counters,
  histograms, and gauges into the registry on exit, through the same
  fold that merges decoded snapshots and worker fragments; when the
  registry has a *parent* collector, the child's events are adopted
  into it with span ids remapped into a fresh range, so the merged
  trace holds N disjoint, well-formed span trees with zero
  cross-contamination.
* The ``metrics1`` snapshot format (:data:`SNAPSHOT_SCHEMA`), its
  reader/merger (:func:`load_snapshot`, :func:`merge_snapshot_files`),
  a Prometheus-style text exposition writer
  (:func:`render_prometheus`), and the renderers behind the ``repro
  metrics report|diff`` subcommands.

``docs/METRICS.md`` documents the schema and CLI.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

#: Version tag of the metrics snapshot format.  Readers reject other
#: schemas instead of misinterpreting them.
SNAPSHOT_SCHEMA = "metrics1"

#: Histogram bucket growth factor: four buckets per doubling, so any
#: estimated percentile is within ~19% of the true sample value (the
#: property tests pin this bound).
GROWTH = 2.0 ** 0.25

_LOG_GROWTH = math.log(GROWTH)

#: Values at or below this floor land in bucket 0.  One nanosecond:
#: below the resolution any latency here can meaningfully have.
FLOOR = 1e-9

#: Highest bucket index; values past ``FLOOR * GROWTH**MAX_BUCKET``
#: (~3e10 seconds) saturate into it rather than growing the table.
MAX_BUCKET = 260

#: The percentiles every summary reports, in order.
PERCENTILES = (0.5, 0.9, 0.99)


def bucket_index(value: float) -> int:
    """The log-bucket index of ``value`` (0 for the underflow bucket).

    Bucket ``i >= 1`` covers ``(FLOOR * GROWTH**(i-1),
    FLOOR * GROWTH**i]``; :func:`bucket_bound` gives the inclusive
    upper bound percentile estimation reports.
    """
    if value <= FLOOR:
        return 0
    index = math.ceil(math.log(value / FLOOR) / _LOG_GROWTH)
    return index if index < MAX_BUCKET else MAX_BUCKET


def bucket_bound(index: int) -> float:
    """The inclusive upper bound of bucket ``index`` (seconds)."""
    return FLOOR * GROWTH ** index


class Histogram:
    """A mergeable, fixed log-bucketed distribution of seconds.

    Buckets are sparse (a dict of index -> occurrences), so an idle
    histogram costs a few fields and a recorded one costs one entry
    per distinct ~19%-wide latency band.  ``count``/``sum``/``min``/
    ``max`` are exact; percentiles are estimated as the upper bound of
    the bucket holding the requested rank, clamped into
    ``[min, max]`` — never below the true sample quantile, never more
    than one bucket width (a :data:`GROWTH` factor) above it.
    """

    __slots__ = ("count", "sum", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0
        self.buckets: dict[int, int] = {}

    # -- recording and merging ------------------------------------------

    def record(self, value: float) -> None:
        """Record one observation (negative values clamp to 0)."""
        value = float(value)
        if value < 0.0:
            value = 0.0
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (``other`` is unchanged)."""
        self.count += other.count
        self.sum += other.sum
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        return self

    def copy(self) -> "Histogram":
        out = Histogram()
        out.merge(self)
        return out

    # -- reading --------------------------------------------------------

    def percentile(self, q: float) -> float:
        """The estimated ``q``-quantile (nearest-rank), in seconds."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= rank:
                estimate = bucket_bound(index)
                if estimate > self.max:
                    estimate = self.max
                if estimate < self.min:
                    estimate = self.min
                return estimate
        return self.max  # unreachable unless buckets disagree with count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """count/sum/min/max/mean plus the :data:`PERCENTILES`."""
        out: dict[str, float] = {
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": round(self.min, 9) if self.count else 0.0,
            "max": round(self.max, 9),
            "mean": round(self.mean, 9),
        }
        for q in PERCENTILES:
            out[f"p{int(q * 100)}"] = round(self.percentile(q), 9)
        return out

    # -- wire form ------------------------------------------------------

    def to_json(self) -> dict[str, object]:
        """The ``metrics1`` wire form.

        ``buckets`` is a list of ``[index, count]`` pairs in index
        order (a JSON object would sort its string keys
        lexicographically and scramble the numeric order).  The
        summary percentiles ride along for human diffing; readers
        recompute them from the buckets.
        """
        payload: dict[str, object] = dict(self.summary())
        # The summary rounds for display; the exact moments must
        # round-trip bit-for-bit (JSON floats are repr-exact).
        payload["sum"] = self.sum
        payload["min"] = self.min if self.count else 0.0
        payload["max"] = self.max
        payload["buckets"] = [[index, self.buckets[index]]
                              for index in sorted(self.buckets)]
        return payload

    @classmethod
    def from_json(cls, payload: dict[str, object]) -> "Histogram":
        """Inverse of :meth:`to_json` (summary fields are recomputed
        except the exact count/sum/min/max, which are carried).

        Raises :class:`ValueError` when a field is missing or
        malformed.
        """
        out = cls()
        try:
            out.count = int(payload["count"])  # type: ignore[arg-type]
            out.sum = float(payload["sum"])  # type: ignore[arg-type]
            low = float(payload["min"])  # type: ignore[arg-type]
            out.min = low if out.count else math.inf
            out.max = float(payload["max"])  # type: ignore[arg-type]
            for index, n in payload["buckets"]:  # type: ignore[union-attr]
                out.buckets[int(index)] = \
                    out.buckets.get(int(index), 0) + int(n)
        except KeyError as err:
            raise ValueError(f"no {err} field") from err
        except (TypeError, ValueError) as err:
            raise ValueError(f"malformed: {err}") from err
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (self.count == other.count
                and self.buckets == other.buckets
                and abs(self.sum - other.sum) <= 1e-9 * (1.0 + abs(self.sum))
                and (self.count == 0 or (self.min == other.min
                                         and self.max == other.max)))

    def __repr__(self) -> str:
        return (f"Histogram(count={self.count}, "
                f"p50={self.percentile(0.5):.6f}, "
                f"p99={self.percentile(0.99):.6f})")


class Gauge:
    """A last-value instrument with a min/max envelope.

    ``set`` overwrites the level; ``merge`` keeps the envelope of both
    sides and takes the merged-in gauge's last value when it has any
    updates (children flush on exit, so the child's reading is the
    newer one).
    """

    __slots__ = ("last", "min", "max", "updates")

    def __init__(self) -> None:
        self.last = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.updates = 0

    def set(self, value: float) -> None:
        value = float(value)
        self.last = value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.updates += 1

    def merge(self, other: "Gauge") -> "Gauge":
        if other.updates:
            self.last = other.last
            if other.min < self.min:
                self.min = other.min
            if other.max > self.max:
                self.max = other.max
            self.updates += other.updates
        return self

    def copy(self) -> "Gauge":
        out = Gauge()
        out.merge(self)
        return out

    def to_json(self) -> dict[str, object]:
        return {
            "last": round(self.last, 9),
            "min": round(self.min, 9) if self.updates else 0.0,
            "max": round(self.max, 9) if self.updates else 0.0,
            "updates": self.updates,
        }

    @classmethod
    def from_json(cls, payload: dict[str, object]) -> "Gauge":
        """Inverse of :meth:`to_json`; raises :class:`ValueError` when
        a field is missing or malformed."""
        out = cls()
        try:
            updates = int(payload["updates"])  # type: ignore[arg-type]
            last = float(payload["last"])  # type: ignore[arg-type]
            low = float(payload["min"])  # type: ignore[arg-type]
            high = float(payload["max"])  # type: ignore[arg-type]
        except KeyError as err:
            raise ValueError(f"no {err} field") from err
        except (TypeError, ValueError) as err:
            raise ValueError(f"malformed: {err}") from err
        if updates:
            out.last, out.min, out.max = last, low, high
            out.updates = updates
        return out


class MetricsRegistry:
    """Lock-protected, process-lifetime metric aggregation.

    One registry outlives many collector scopes: each request, thread,
    task, or batch item runs under its own child
    :class:`~repro.obs.collector.Collector` (opened with
    :meth:`scope`), and the child's numbers are folded in atomically
    when the scope exits.  The registry is a lock around one
    metrics-only collector, its accumulator: direct
    :meth:`observe`/:meth:`count`/:meth:`gauge` calls record into it,
    and flushed scopes (:meth:`absorb`) and decoded snapshots
    (:meth:`merge_snapshot`) are folded into it by
    :meth:`Collector.adopt <repro.obs.collector.Collector.adopt>`, so
    every route sums the same way.  All of it happens under one
    :class:`threading.Lock`, so concurrent scope exits, direct
    recording, and snapshot reads interleave safely.

    When constructed with a ``parent`` collector, each flushed child's
    *events* are also adopted into the parent — span ids remapped into
    a fresh range, timestamps rebased onto the parent's clock — so a
    ``--trace`` of a many-item run is one file holding every item's
    span tree, each tree disjoint and well formed.  Adoption is
    serialized by the registry lock; the parent must not be emitting
    concurrently (the typical shape — a driver whose own collector is
    idle while requests run — satisfies this by construction).
    """

    def __init__(self, parent=None) -> None:
        self._lock = threading.Lock()
        self._parent = parent
        self._totals = _accumulator()
        self.flushes = 0

    # -- direct recording (thread-safe) ---------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._totals.count(name, delta)

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            self._totals.observe(name, seconds)

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._totals.gauge(name, value)

    # -- absorbing collectors and snapshots -----------------------------

    def absorb(self, collector) -> None:
        """Fold one collector's metrics in (events are not kept here;
        give the registry a parent collector to aggregate those)."""
        with self._lock:
            self._totals.adopt(collector)
            self.flushes += 1
            if self._parent is not None and self._parent is not collector:
                self._parent.adopt(collector)

    def merge_snapshot(self, payload: dict[str, object]) -> "MetricsRegistry":
        """Fold a ``metrics1`` snapshot (or a bare collector metrics
        dict) into the registry: a worker's :meth:`drain` fragment, or
        a shard ``repro metrics report`` combines.  Raises
        :class:`ValueError` if the payload does not decode."""
        decoded = _decode(payload)
        flushes = payload.get("flushes", 1)
        if not isinstance(flushes, int):
            raise ValueError(f"malformed flushes count {flushes!r}")
        with self._lock:
            self._totals.adopt(decoded)
            self.flushes += flushes
        return self

    # -- scoping --------------------------------------------------------

    @contextmanager
    def scope(self) -> Iterator:
        """One traced invocation: a fresh child collector, flushed here
        on exit.

        The child is installed as the current collector for the
        dynamic extent (contextvar-scoped, so concurrent threads and
        tasks each see only their own).  It keeps event bodies only
        when the registry has a parent collector to adopt them into —
        metrics-only scopes skip the per-event allocation entirely.
        """
        from repro.obs.collector import Collector, activate, deactivate

        child = Collector(record_events=self._parent is not None)
        token = activate(child)
        try:
            yield child
        finally:
            deactivate(token)
            child.emit("metric.flush", {
                "events": len(child.events), "spans": child._next_span})
            self.absorb(child)

    # -- snapshotting ---------------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """A JSON-ready ``metrics1`` snapshot with stable key order."""
        with self._lock:
            return dict(self._totals.metrics(), flushes=self.flushes)

    def drain(self) -> dict[str, object]:
        """Snapshot *and reset*, atomically: the cross-process
        fragment primitive.

        A serve worker process keeps one long-lived registry, runs
        each request under :meth:`scope`, and drains afterwards — the
        returned ``metrics1`` fragment carries exactly that request's
        numbers and rides the response pipe back to the parent, which
        folds it in with :meth:`merge_snapshot`.  Because merging is
        associative and order-independent (property-tested across a
        real process boundary), fragments from racing workers combine
        into one coherent parent snapshot regardless of arrival
        order, and nothing is ever counted twice.
        """
        with self._lock:
            totals, flushes = self._totals, self.flushes
            self._totals, self.flushes = _accumulator(), 0
        return dict(totals.metrics(), flushes=flushes)


def _accumulator():
    """A fresh metrics-only collector: a registry's running totals."""
    from repro.obs.collector import Collector

    return Collector(record_events=False)


def _decode(payload: dict[str, object]):
    """The one ``metrics1`` decoder: a metrics-only collector holding
    the payload's numbers (:meth:`Collector.from_metrics
    <repro.obs.collector.Collector.from_metrics>`)."""
    from repro.obs.collector import Collector

    return Collector.from_metrics(payload)


# ---------------------------------------------------------------------------
# Snapshot files: loading and merging
# ---------------------------------------------------------------------------


def load_snapshot(path: str | Path) -> dict[str, object]:
    """Read a ``metrics1`` snapshot file, rejecting anything else.

    Accepts a snapshot carrying ``"schema": "metrics1"`` and the link
    server's response envelope — a ``repro client metrics`` capture,
    whose snapshot rides under a ``"metrics"`` key — so serve-mode
    percentiles feed the same ``report``/``diff`` gates as file
    snapshots.  Raises :class:`ValueError` when a section is not an
    object or a histogram or gauge lacks a field, so every reader
    rejects a malformed file the same way.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not JSON: {err}") from err
    if isinstance(payload, dict) and "counters" not in payload \
            and isinstance(payload.get("metrics"), dict):
        payload = payload["metrics"]
    if not isinstance(payload, dict) or "counters" not in payload:
        raise ValueError(f"{path}: not a metrics snapshot "
                         f"(no 'counters' object)")
    schema = payload.get("schema")
    if schema != SNAPSHOT_SCHEMA:
        raise ValueError(f"{path}: unsupported metrics schema {schema!r} "
                         f"(expected {SNAPSHOT_SCHEMA!r})")
    try:
        _decode(payload)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    return payload


def merge_snapshot_files(paths: Sequence[str | Path]) -> dict[str, object]:
    """Load and merge snapshots; the result is again ``metrics1``."""
    registry = MetricsRegistry()
    for path in paths:
        registry.merge_snapshot(load_snapshot(path))
    return registry.snapshot()


# ---------------------------------------------------------------------------
# Rendering: percentile tables, report, diff, Prometheus exposition
# ---------------------------------------------------------------------------


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def render_percentiles(histograms: dict[str, Histogram],
                       title: str = "latency (ms)") -> list[str]:
    """A plain-text percentile table, one row per histogram."""
    if not histograms:
        return []
    width = max(len(name) for name in histograms)
    lines = [f"{title}:"]
    lines.append(f"  {'name'.ljust(width)}  {'count':>7}  {'mean':>10}  "
                 f"{'p50':>10}  {'p90':>10}  {'p99':>10}  {'max':>10}")
    for name in sorted(histograms):
        h = histograms[name]
        lines.append(
            f"  {name.ljust(width)}  {h.count:>7}  {_fmt_ms(h.mean):>10}  "
            f"{_fmt_ms(h.percentile(0.5)):>10}  "
            f"{_fmt_ms(h.percentile(0.9)):>10}  "
            f"{_fmt_ms(h.percentile(0.99)):>10}  {_fmt_ms(h.max):>10}")
    return lines


def render_metrics_report(snapshot: dict[str, object]) -> str:
    """The ``repro metrics report`` text for one (merged) snapshot."""
    histograms = {name: Histogram.from_json(payload)
                  for name, payload
                  in (snapshot.get("histograms") or {}).items()}  # type: ignore[union-attr]
    out: list[str] = []
    out.append(f"metrics report — {snapshot.get('events', 0)} events, "
               f"{snapshot.get('spans', 0)} spans, "
               f"{snapshot.get('dropped', 0)} dropped, "
               f"{snapshot.get('flushes', 1)} flush(es)")
    dropped_by_kind = snapshot.get("dropped_by_kind") or {}
    if dropped_by_kind:
        out.append("dropped by kind:")
        for kind in sorted(dropped_by_kind):  # type: ignore[union-attr]
            out.append(f"  {kind}  ×{dropped_by_kind[kind]}")  # type: ignore[index]
    out.append("")
    table = render_percentiles(histograms)
    if table:
        out.extend(table)
    else:
        out.append("latency (ms):")
        out.append("  (no histograms recorded)")
    gauges = snapshot.get("gauges") or {}
    if gauges:
        out.append("")
        out.append("gauges:")
        width = max(len(name) for name in gauges)  # type: ignore[arg-type]
        for name in sorted(gauges):  # type: ignore[union-attr]
            g = gauges[name]  # type: ignore[index]
            out.append(f"  {name.ljust(width)}  last {g['last']:g}  "
                       f"min {g['min']:g}  max {g['max']:g}  "
                       f"({g['updates']} update(s))")
    return "\n".join(out)


def _count_table(label: str, deltas, failing: set[str],
                 threshold: float, width: int) -> list[str]:
    out = [f"  {label.ljust(width)}  {'base':>8}  {'cur':>8}  "
           f"{'delta':>8}  status"]
    for d in deltas:
        flag = " <-- FAIL" if d.kind in failing else ""
        out.append(f"  {d.kind.ljust(width)}  {d.base:>8}  {d.cur:>8}  "
                   f"{d.delta:>+8}  {d.status(threshold)}{flag}")
    return out


def render_metrics_diff(base: dict[str, object], cur: dict[str, object],
                        count_threshold: float = 0.10,
                        strict: bool = False) -> tuple[str, bool]:
    """The ``repro metrics diff`` table; returns ``(text, gate_failed)``.

    The gate is on counts: the registered ``family.action`` event
    counters and the per-histogram observation counts (both
    deterministic for a fixed workload; a counter with no histogram,
    like ``reduce.step``, is gated only here).  A count growing past
    ``base * (1 + count_threshold)`` fails; under ``strict``, kinds
    appearing or vanishing fail too.  The p50/p99 columns are for
    information only: wall-clock percentiles depend on the machine
    and its load.
    """
    from repro.obs.analyze import diff_counts, registered_counts, regressions

    base_h = {name: Histogram.from_json(payload) for name, payload
              in (base.get("histograms") or {}).items()}  # type: ignore[union-attr]
    cur_h = {name: Histogram.from_json(payload) for name, payload
             in (cur.get("histograms") or {}).items()}  # type: ignore[union-attr]
    counter_deltas = diff_counts(
        registered_counts(base.get("counters") or {}),  # type: ignore[arg-type]
        registered_counts(cur.get("counters") or {}))  # type: ignore[arg-type]
    deltas = diff_counts({k: h.count for k, h in base_h.items()},
                         {k: h.count for k, h in cur_h.items()})
    failing_counters = {d.kind for d in regressions(
        counter_deltas, count_threshold, strict)}
    failing = {d.kind for d in regressions(deltas, count_threshold, strict)}
    out: list[str] = []
    out.append(f"metrics diff — count threshold {count_threshold:.0%}"
               + (", strict" if strict else ""))
    if not deltas and not counter_deltas:
        out.append("  (no counters or histograms on either side)")
        return "\n".join(out), False
    width = max(len(d.kind) for d in deltas + counter_deltas)
    if counter_deltas:
        out += _count_table("counter", counter_deltas, failing_counters,
                            count_threshold, width)
    if deltas:
        if counter_deltas:
            out.append("")
        out += _count_table("histogram", deltas, failing,
                            count_threshold, width)
    shared = sorted(set(base_h) & set(cur_h))
    if shared:
        out.append("")
        out.append(f"  {'histogram'.ljust(width)}  "
                   f"{'base p50':>10}  {'cur p50':>10}  "
                   f"{'base p99':>10}  {'cur p99':>10}")
        for name in shared:
            b, c = base_h[name], cur_h[name]
            if not b.count or not c.count:
                continue
            out.append(
                f"  {name.ljust(width)}  "
                f"{_fmt_ms(b.percentile(0.5)):>10}  "
                f"{_fmt_ms(c.percentile(0.5)):>10}  "
                f"{_fmt_ms(b.percentile(0.99)):>10}  "
                f"{_fmt_ms(c.percentile(0.99)):>10}")
    breaches = len(failing_counters) + len(failing)
    if breaches:
        out.append(f"  {breaches} row(s) breach the gate")
    else:
        out.append("  within threshold")
    return "\n".join(out), bool(breaches)


def _prom_escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def render_prometheus(snapshot: dict[str, object],
                      prefix: str = "repro") -> str:
    """Prometheus text exposition (v0.0.4) of a ``metrics1`` snapshot.

    Counters become ``<prefix>_events_total{kind="..."}``; gauges
    ``<prefix>_gauge{name="..."}``; histograms the standard cumulative
    ``_bucket{le="..."}`` / ``_sum`` / ``_count`` triple under
    ``<prefix>_latency_seconds`` with the span kind as the ``op``
    label.  Scrape-ready for a future ``repro serve /metrics``
    endpoint; also useful offline via ``repro metrics report
    --prometheus``.
    """
    lines: list[str] = []
    counters = snapshot.get("counters") or {}
    if counters:
        lines.append(f"# HELP {prefix}_events_total Trace events and "
                     f"bookkeeping counters.")
        lines.append(f"# TYPE {prefix}_events_total counter")
        for name in sorted(counters):  # type: ignore[union-attr]
            lines.append(f'{prefix}_events_total'
                         f'{{kind="{_prom_escape(name)}"}} '
                         f'{counters[name]}')  # type: ignore[index]
    gauges = snapshot.get("gauges") or {}
    if gauges:
        lines.append(f"# HELP {prefix}_gauge Last-value instruments "
                     f"(cache occupancy, budget headroom).")
        lines.append(f"# TYPE {prefix}_gauge gauge")
        for name in sorted(gauges):  # type: ignore[union-attr]
            lines.append(f'{prefix}_gauge{{name="{_prom_escape(name)}"}} '
                         f'{gauges[name]["last"]:g}')  # type: ignore[index]
    histograms = snapshot.get("histograms") or {}
    if histograms:
        lines.append(f"# HELP {prefix}_latency_seconds Span latency "
                     f"distributions per kind.")
        lines.append(f"# TYPE {prefix}_latency_seconds histogram")
        for name in sorted(histograms):  # type: ignore[union-attr]
            h = Histogram.from_json(histograms[name])  # type: ignore[index]
            label = _prom_escape(name)
            cumulative = 0
            for index in sorted(h.buckets):
                cumulative += h.buckets[index]
                lines.append(
                    f'{prefix}_latency_seconds_bucket{{op="{label}",'
                    f'le="{bucket_bound(index):.9g}"}} {cumulative}')
            lines.append(f'{prefix}_latency_seconds_bucket{{op="{label}",'
                         f'le="+Inf"}} {h.count}')
            lines.append(f'{prefix}_latency_seconds_sum{{op="{label}"}} '
                         f'{h.sum:.9g}')
            lines.append(f'{prefix}_latency_seconds_count{{op="{label}"}} '
                         f'{h.count}')
    return "\n".join(lines) + ("\n" if lines else "")

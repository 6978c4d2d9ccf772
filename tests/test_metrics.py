"""Tests for the telemetry core (:mod:`repro.obs.metrics`).

* :class:`Histogram` algebra, property-tested: merge is associative
  and commutative, percentiles are monotone in the quantile, and every
  estimated quantile sits within one bucket width (a ``GROWTH``
  factor) of the exact nearest-rank sample quantile;
* :class:`MetricsRegistry` concurrency: a ThreadPoolExecutor stress
  run proves N concurrent traced invocations produce disjoint,
  well-formed span trees and one coherent merged registry (zero
  drops, counters equal to the sum of the children); an asyncio
  variant proves task isolation;
* the ``metrics1`` snapshot format round-trips, merges, and renders;
* the ``repro metrics report|diff`` CLI, including the regression
  gate's exit codes.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import obs
from repro.cli import main
from repro.obs.metrics import (
    FLOOR,
    GROWTH,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_bound,
    bucket_index,
)

# Latencies from well under the FLOOR to ~17 minutes; generous bounds
# so bucket arithmetic is exercised across its whole range.
values = st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
                   allow_infinity=False)
value_lists = st.lists(values, min_size=1, max_size=60)


def hist_of(samples) -> Histogram:
    h = Histogram()
    for v in samples:
        h.record(v)
    return h


class TestBuckets:
    def test_floor_and_below_map_to_bucket_zero(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(FLOOR) == 0
        assert bucket_index(FLOOR / 2) == 0

    def test_bounds_bracket_their_values(self):
        for v in (1e-8, 1e-6, 3.7e-4, 0.25, 1.0, 42.0):
            i = bucket_index(v)
            assert v <= bucket_bound(i) * (1 + 1e-12)
            if i > 0:
                assert v > bucket_bound(i - 1) * (1 - 1e-12)

    @given(values)
    def test_relative_width_is_one_growth_factor(self, v):
        i = bucket_index(v)
        if 0 < i < 260:
            assert bucket_bound(i) / bucket_bound(i - 1) == pytest.approx(
                GROWTH)


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.percentile(0.5) == 0.0
        assert h.summary()["p99"] == 0.0

    @given(value_lists)
    def test_exact_moments(self, samples):
        h = hist_of(samples)
        assert h.count == len(samples)
        assert h.sum == pytest.approx(sum(samples))
        assert h.min == min(samples)
        assert h.max == max(samples)
        assert h.mean == pytest.approx(sum(samples) / len(samples))

    @given(value_lists)
    def test_quantile_error_bound_vs_exact_sorted_data(self, samples):
        # The estimate never undershoots the exact nearest-rank
        # quantile and never overshoots it by more than one bucket
        # width — or FLOOR, for samples in the underflow bucket
        # (clamping to [min, max] can only tighten this).
        h = hist_of(samples)
        ordered = sorted(samples)
        for q in (0.01, 0.25, 0.5, 0.9, 0.99, 1.0):
            exact = ordered[max(1, math.ceil(q * len(ordered))) - 1]
            est = h.percentile(q)
            assert est >= exact * (1 - 1e-9)
            assert est <= max(exact * GROWTH, FLOOR) * (1 + 1e-9)

    @given(value_lists)
    def test_percentiles_monotone_in_quantile(self, samples):
        h = hist_of(samples)
        qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
        estimates = [h.percentile(q) for q in qs]
        assert estimates == sorted(estimates)

    @staticmethod
    def _wire_modulo_sum(h: Histogram) -> dict:
        # Float addition is not associative in the last ulp, so `sum`
        # (and the derived `mean`) may differ across merge orders;
        # everything else — buckets, count, min/max, percentiles —
        # must match exactly.
        payload = h.to_json()
        payload.pop("sum"), payload.pop("mean")
        return payload

    @given(value_lists, value_lists)
    def test_merge_is_commutative(self, a, b):
        left = hist_of(a).merge(hist_of(b))
        right = hist_of(b).merge(hist_of(a))
        assert left == right
        assert self._wire_modulo_sum(left) == self._wire_modulo_sum(right)

    @given(value_lists, value_lists, value_lists)
    def test_merge_is_associative(self, a, b, c):
        one = hist_of(a).merge(hist_of(b).merge(hist_of(c)))
        two = hist_of(a).merge(hist_of(b)).merge(hist_of(c))
        assert one == two
        assert self._wire_modulo_sum(one) == self._wire_modulo_sum(two)

    @given(value_lists, value_lists)
    def test_merge_equals_recording_concatenation(self, a, b):
        assert hist_of(a).merge(hist_of(b)) == hist_of(a + b)

    @given(value_lists)
    def test_json_roundtrip(self, samples):
        h = hist_of(samples)
        back = Histogram.from_json(json.loads(json.dumps(h.to_json())))
        assert back == h
        assert back.percentile(0.99) == h.percentile(0.99)

    def test_buckets_serialize_as_ordered_pairs(self):
        # A dict keyed by int would become string keys under JSON and
        # sort lexicographically ("10" < "2"); pairs keep numeric order
        # even through sort_keys=True.
        h = hist_of([1e-9, 1e-3, 1.0, 100.0])
        pairs = h.to_json()["buckets"]
        assert [p[0] for p in pairs] == sorted(p[0] for p in pairs)

    def test_merge_does_not_alias_source(self):
        a, b = hist_of([1.0]), hist_of([2.0])
        a.merge(b)
        b.record(3.0)
        assert a.count == 2 and b.count == 2

    def test_copy_is_independent(self):
        a = hist_of([1.0])
        c = a.copy()
        c.record(2.0)
        assert a.count == 1 and c.count == 2


class TestGauge:
    def test_last_value_and_envelope(self):
        g = Gauge()
        for v in (3.0, 1.0, 7.0):
            g.set(v)
        assert (g.last, g.min, g.max, g.updates) == (7.0, 1.0, 7.0, 3)

    def test_merge_takes_merged_in_reading_and_widens_envelope(self):
        a, b = Gauge(), Gauge()
        a.set(5.0)
        b.set(1.0)
        b.set(9.0)
        a.merge(b)
        assert (a.last, a.min, a.max, a.updates) == (9.0, 1.0, 9.0, 3)

    def test_merge_of_empty_gauge_is_identity(self):
        a = Gauge()
        a.set(4.0)
        a.merge(Gauge())
        assert (a.last, a.updates) == (4.0, 1)

    def test_json_roundtrip(self):
        g = Gauge()
        g.set(2.5)
        g.set(0.5)
        back = Gauge.from_json(g.to_json())
        assert (back.last, back.min, back.max, back.updates) \
            == (g.last, g.min, g.max, g.updates)


def traced_work(n: int) -> None:
    """A small span tree with events and a histogram-feeding exit."""
    with obs.span("check.unit", {"worker": n}):
        with obs.span("unit.compile"):
            obs.emit("reduce.step", {"n": n})
        obs.count("work.done")
    obs.gauge("cache.occupancy.compile", float(n))


class TestMetricsRegistry:
    def test_scope_flushes_counters_histograms_gauges(self):
        reg = MetricsRegistry()
        with reg.scope():
            traced_work(1)
        snap = reg.snapshot()
        assert snap["counters"]["check.unit"] == 1
        assert snap["counters"]["work.done"] == 1
        assert snap["histograms"]["unit.compile"]["count"] == 1
        assert snap["gauges"]["cache.occupancy.compile"]["last"] == 1.0
        assert snap["flushes"] == 1
        assert snap["spans"] == 2
        assert "timers" not in snap

    def test_scope_restores_previous_collector(self):
        reg = MetricsRegistry()
        with obs.collecting() as outer:
            with reg.scope() as child:
                assert obs.current() is child
            assert obs.current() is outer

    def test_metrics_only_scope_records_no_event_bodies(self):
        reg = MetricsRegistry()
        with reg.scope() as child:
            traced_work(1)
        assert child.events == []
        assert child.dropped == 0  # opted out, not truncated
        snap = reg.snapshot()
        assert snap["events"] == 0
        assert snap["counters"]["check.unit"] == 1

    def test_direct_recording(self):
        reg = MetricsRegistry()
        reg.count("requests", 2)
        reg.observe("latency", 0.25)
        reg.gauge("occupancy", 7.0)
        snap = reg.snapshot()
        assert snap["counters"]["requests"] == 2
        assert snap["histograms"]["latency"]["count"] == 1
        assert snap["gauges"]["occupancy"]["last"] == 7.0

    def test_snapshot_is_schema_versioned_and_stable(self):
        reg = MetricsRegistry()
        with reg.scope():
            traced_work(1)
        snap = reg.snapshot()
        assert snap["schema"] == "metrics1"
        # Stable key order under sort_keys: serialize twice, compare.
        assert json.dumps(snap, sort_keys=True) \
            == json.dumps(reg.snapshot(), sort_keys=True)

    def test_merge_snapshot_accumulates(self, tmp_path):
        reg = MetricsRegistry()
        with reg.scope():
            traced_work(1)
        merged = MetricsRegistry()
        merged.merge_snapshot(reg.snapshot())
        merged.merge_snapshot(reg.snapshot())
        snap = merged.snapshot()
        assert snap["counters"]["check.unit"] == 2
        assert snap["histograms"]["check.unit"]["count"] == 2
        assert snap["flushes"] == 2

    def test_older_snapshot_with_timers_loads_and_merges(self, tmp_path):
        reg = MetricsRegistry()
        with reg.scope():
            traced_work(1)
        old = dict(reg.snapshot(),
                   timers={"check.unit": {"seconds": 0.5, "calls": 1}})
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old))
        merged = obs.merge_snapshot_files([path])
        assert merged == reg.snapshot()  # the timers block is ignored

    def test_load_snapshot_rejects_junk(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError):
            obs.load_snapshot(bad)
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "metrics9",
                                     "counters": {}}))
        with pytest.raises(ValueError):
            obs.load_snapshot(wrong)
        unversioned = tmp_path / "unversioned.json"
        unversioned.write_text(json.dumps({"counters": {}}))
        with pytest.raises(ValueError):
            obs.load_snapshot(unversioned)
        for name, payload in MALFORMED.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            with pytest.raises(ValueError):
                obs.load_snapshot(path)

    def test_load_snapshot_unwraps_envelope_under_the_schema_gate(
            self, tmp_path):
        reg = MetricsRegistry()
        reg.count("serve.requests")
        wrapped = tmp_path / "wrapped.json"
        wrapped.write_text(json.dumps({"status": "ok",
                                       "metrics": reg.snapshot()}))
        assert obs.load_snapshot(wrapped)["counters"] == {
            "serve.requests": 1}
        unversioned = tmp_path / "unversioned.json"
        unversioned.write_text(json.dumps({"status": "ok",
                                           "metrics": {"counters": {}}}))
        with pytest.raises(ValueError):
            obs.load_snapshot(unversioned)


#: Well-versioned snapshots that still do not decode: a histogram
#: missing a field, and a section that is not an object.
MALFORMED = {
    "histogram_without_min": {
        "schema": "metrics1", "counters": {},
        "histograms": {"x": {"count": 2, "sum": 1.0,
                             "buckets": [[3, 2]]}}},
    "counters_not_an_object": {"schema": "metrics1", "counters": []},
}


_kinds = st.sampled_from(["check.unit", "unit.compile", "link.static"])
_collector_ops = st.lists(st.one_of(
    st.tuples(st.just("span"), _kinds, st.just(None)),
    st.tuples(st.just("emit"), _kinds, st.just(None)),
    st.tuples(st.just("count"), st.sampled_from(["a", "b"]),
              st.integers(1, 5)),
    st.tuples(st.just("observe"), st.sampled_from(["lat", "wait"]),
              values),
    st.tuples(st.just("gauge"), st.sampled_from(["level", "depth"]),
              st.floats(min_value=-50.0, max_value=50.0,
                        allow_nan=False)),
), max_size=12)


def _recorded(ops, record_events: bool, max_events: int) -> obs.Collector:
    """A finished collector holding ``ops``; a small ``max_events``
    makes a recording collector drop events."""
    col = obs.Collector(max_events=max_events,
                        record_events=record_events)
    for op, name, value in ops:
        if op == "span":
            with col.span(name):
                col.emit("reduce.step")
        elif op == "emit":
            col.emit(name)
        else:
            getattr(col, op)(name, value)
    return col


WORKERS = 8
ITERATIONS = 25


class TestFoldRoutesAgree:
    @settings(deadline=None, max_examples=60)
    @given(items=st.lists(
        st.tuples(_collector_ops, st.booleans(), st.integers(0, 6),
                  st.integers(0, 2)),
        max_size=6))
    def test_absorb_equals_worker_drain_then_merge(self, items):
        """The thread-mode route (every collector absorbed into one
        registry) and the process-mode route (each collector absorbed
        by its worker's registry, drained, and the fragment merged
        into the parent) give equal snapshots."""
        direct = MetricsRegistry()
        parent = MetricsRegistry()
        workers = [MetricsRegistry() for _ in range(3)]
        cols = []
        for ops, record_events, max_events, worker in items:
            col = _recorded(ops, record_events, max_events)
            cols.append(col)
            direct.absorb(col)
            workers[worker].absorb(col)
            parent.merge_snapshot(workers[worker].drain())
        snap = direct.snapshot()
        assert parent.snapshot() == snap
        assert all(w.snapshot()["flushes"] == 0 for w in workers)
        # And both equal the plain sums over the collectors.
        assert snap["flushes"] == len(cols)
        assert snap["events"] == sum(len(c.events) for c in cols)
        assert snap["spans"] == sum(c.metrics()["spans"] for c in cols)
        assert snap["dropped"] == sum(c.dropped for c in cols)
        assert snap["counters"] == dict(sum(
            (Counter(c.counters) for c in cols), Counter()))


class TestConcurrency:
    def test_thread_pool_stress_disjoint_trees_one_coherent_registry(self):
        # The acceptance-criteria shape: N concurrent traced
        # invocations through one registry with a parent collector.
        # Every child must flush a well-formed span tree, the adopted
        # parent trace must still validate (disjoint subtrees, no
        # cross-contamination), nothing may drop, and the merged
        # numbers must equal the sum of the children's.
        parent = obs.Collector()
        reg = MetricsRegistry(parent=parent)
        per_child: list[dict] = []
        lock = threading.Lock()

        def request(worker: int) -> None:
            with reg.scope() as child:
                for i in range(ITERATIONS):
                    traced_work(worker * ITERATIONS + i)
            assert obs.validate_spans(child.events) == []
            with lock:
                per_child.append(child.metrics())

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            for f in [pool.submit(request, w) for w in range(WORKERS)]:
                f.result()

        assert len(per_child) == WORKERS
        assert obs.validate_spans(parent.events) == []
        snap = reg.snapshot()
        assert parent.dropped == 0 and snap["dropped"] == 0
        assert parent.counters.get("trace.dropped", 0) == 0
        total = WORKERS * ITERATIONS
        assert snap["counters"]["check.unit"] == total
        assert snap["counters"]["work.done"] == total
        assert parent.counters["check.unit"] == total
        assert snap["histograms"]["check.unit"]["count"] == total
        assert parent.histograms["check.unit"].count == total
        assert sum(m["counters"]["check.unit"] for m in per_child) == total
        # Disjointness: every span id in the adopted trace is unique.
        enter_ids = [e.fields["span"] for e in parent.events
                     if e.fields.get("phase") == "enter"]
        assert len(enter_ids) == len(set(enter_ids))
        forest = obs.build_spans(parent.events)
        assert forest.span_count == total * 2  # two spans per work item
        assert len(forest.roots) == total

    def test_thread_pool_without_parent_is_metrics_only(self):
        reg = MetricsRegistry()

        def request(worker: int) -> None:
            with reg.scope():
                traced_work(worker)

        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            for f in [pool.submit(request, w) for w in range(WORKERS)]:
                f.result()
        snap = reg.snapshot()
        assert snap["counters"]["check.unit"] == WORKERS
        assert snap["events"] == 0
        assert snap["flushes"] == WORKERS

    def test_asyncio_tasks_are_isolated(self):
        parent = obs.Collector()
        reg = MetricsRegistry(parent=parent)

        async def request(worker: int) -> None:
            with reg.scope() as child:
                traced_work(worker)
                await asyncio.sleep(0)
                traced_work(worker)
            assert obs.validate_spans(child.events) == []

        async def drive() -> None:
            await asyncio.gather(*(request(w) for w in range(6)))

        asyncio.run(drive())
        assert obs.validate_spans(parent.events) == []
        assert reg.snapshot()["counters"]["check.unit"] == 12
        assert parent.histograms["check.unit"].count == 12

    def test_registry_direct_recording_is_thread_safe(self):
        reg = MetricsRegistry()

        def hammer() -> None:
            for _ in range(500):
                reg.count("n")
                reg.observe("lat", 0.001)
                reg.gauge("level", 1.0)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = reg.snapshot()
        assert snap["counters"]["n"] == 4000
        assert snap["histograms"]["lat"]["count"] == 4000


class TestAdoption:
    def test_adopt_remaps_span_ids_and_rebases_time(self):
        parent = obs.Collector()
        with obs.collecting(parent):
            with obs.span("check.unit"):
                pass
        child = obs.Collector()
        with obs.collecting(child):
            with obs.span("unit.compile"):
                obs.emit("reduce.step")
        parent.adopt(child)
        assert obs.validate_spans(parent.events) == []
        ids = [e.fields["span"] for e in parent.events
               if e.fields.get("phase") == "enter"]
        assert len(ids) == len(set(ids)) == 2
        assert parent.counters == {"check.unit": 1, "unit.compile": 1,
                                   "reduce.step": 1}
        assert parent._next_span == 2

    def test_adopt_merges_numeric_state(self):
        parent, child = obs.Collector(), obs.Collector()
        child.count("x", 3)
        child.observe("lat", 0.5)
        child.gauge("level", 2.0)
        child.dropped_kinds["reduce.step"] = 4
        child.dropped = 4
        parent.adopt(child)
        assert parent.counters["x"] == 3
        assert parent.histograms["lat"].count == 1
        assert parent.gauges["level"].last == 2.0
        assert parent.dropped == 4
        assert parent.dropped_kinds == {"reduce.step": 4}

    def test_adopt_does_not_alias_histograms(self):
        parent, child = obs.Collector(), obs.Collector()
        child.observe("lat", 0.5)
        parent.adopt(child)
        child.observe("lat", 0.5)
        assert parent.histograms["lat"].count == 1


class TestRenderers:
    def _snapshot(self) -> dict:
        reg = MetricsRegistry()
        with reg.scope():
            traced_work(1)
        with reg.scope():
            traced_work(2)
        return reg.snapshot()

    def test_report_contains_percentile_table_and_gauges(self):
        text = obs.render_metrics_report(self._snapshot())
        assert "p50" in text and "p99" in text
        assert "check.unit" in text
        assert "cache.occupancy.compile" in text

    def test_prometheus_exposition_shape(self):
        text = obs.render_prometheus(self._snapshot())
        assert '# TYPE repro_latency_seconds histogram' in text
        assert 'le="+Inf"} 2' in text
        assert 'repro_events_total{kind="check.unit"} 2' in text
        assert 'repro_gauge{name="cache.occupancy.compile"}' in text
        # Cumulative bucket counts end at the total count.
        assert 'repro_latency_seconds_count{op="check.unit"} 2' in text

    def test_diff_passes_on_identical_snapshots(self):
        snap = self._snapshot()
        text, failed = obs.render_metrics_diff(snap, snap)
        assert not failed
        assert "within threshold" in text

    def test_diff_fails_on_count_regression(self):
        base = self._snapshot()
        reg = MetricsRegistry()
        reg.merge_snapshot(base)
        reg.merge_snapshot(base)  # doubled counts
        text, failed = obs.render_metrics_diff(base, reg.snapshot(),
                                               count_threshold=0.10)
        assert failed
        assert "FAIL" in text

    def test_diff_counter_drop_and_small_growth_pass(self):
        base = {"counters": {"reduce.step": 100, "check.unit": 10}}
        cur = {"counters": {"reduce.step": 105, "check.unit": 3}}
        text, failed = obs.render_metrics_diff(base, cur,
                                               count_threshold=0.10)
        assert not failed
        assert "within threshold" in text

    def test_diff_counters_only_snapshots(self):
        base = {"counters": {"reduce.step": 10}}
        cur = {"counters": {"reduce.step": 20}}
        text, failed = obs.render_metrics_diff(base, cur)
        assert failed
        assert "counter" in text and "histogram" not in text
        text, failed = obs.render_metrics_diff({}, {})
        assert not failed
        assert "no counters or histograms" in text

    def test_diff_strict_fails_on_appearing_counter(self):
        base = {"counters": {"reduce.step": 10}}
        cur = {"counters": {"reduce.step": 10, "link.static": 4}}
        _, failed = obs.render_metrics_diff(base, cur)
        assert not failed
        text, failed = obs.render_metrics_diff(base, cur, strict=True)
        assert failed
        assert [line for line in text.splitlines()
                if "link.static" in line and "FAIL" in line]


class TestMetricsCli:
    def _write_snapshot(self, tmp_path, name="m.json", rounds=1):
        reg = MetricsRegistry()
        for i in range(rounds):
            with reg.scope():
                traced_work(i)
        path = tmp_path / name
        path.write_text(json.dumps(reg.snapshot(), indent=2,
                                   sort_keys=True))
        return path

    def test_report_merges_and_renders(self, tmp_path, capsys):
        a = self._write_snapshot(tmp_path, "a.json")
        b = self._write_snapshot(tmp_path, "b.json")
        assert main(["metrics", "report", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "p99" in out and "check.unit" in out
        assert "2 flush(es)" in out

    def test_report_prometheus_flag(self, tmp_path, capsys):
        a = self._write_snapshot(tmp_path)
        assert main(["metrics", "report", str(a), "--prometheus"]) == 0
        assert "# TYPE repro_latency_seconds histogram" \
            in capsys.readouterr().out

    def test_report_bad_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["metrics", "report", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_snapshot_exits_2_not_regression(self, tmp_path,
                                                       capsys, name):
        """A file that does not decode is an input error (exit 2) for
        both commands, never a traceback, and never ``diff``'s exit 1
        (which means "regression")."""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(MALFORMED[name]))
        good = self._write_snapshot(tmp_path)
        for argv in (["metrics", "report", str(bad)],
                     ["metrics", "diff", str(good), str(bad)],
                     ["metrics", "diff", str(bad), str(good)]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_diff_ok_and_regression_exit_codes(self, tmp_path, capsys):
        base = self._write_snapshot(tmp_path, "base.json", rounds=1)
        cur = self._write_snapshot(tmp_path, "cur.json", rounds=3)
        assert main(["metrics", "diff", str(base), str(base)]) == 0
        capsys.readouterr()
        assert main(["metrics", "diff", str(base), str(cur)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_diff_vanished_kind_fails_only_under_strict(self, tmp_path,
                                                        capsys):
        base = self._write_snapshot(tmp_path, "base.json")
        snap = json.loads(base.read_text())
        del snap["counters"]["unit.compile"]
        del snap["histograms"]["unit.compile"]
        gone = tmp_path / "gone.json"
        gone.write_text(json.dumps(snap))
        assert main(["metrics", "diff", str(base), str(gone)]) == 0
        assert main(["metrics", "diff", str(base), str(gone),
                     "--strict"]) == 1
        assert "gone" in capsys.readouterr().out

    def test_diff_gates_counters_without_histograms(self, tmp_path,
                                                    capsys):
        """``reduce.step`` is an event, not a span: it feeds a counter
        but no histogram, and the one count gate must still catch it."""
        base = self._write_snapshot(tmp_path, "base.json")
        snap = json.loads(base.read_text())
        assert "reduce.step" not in snap["histograms"]
        snap["counters"]["reduce.step"] *= 3
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(snap))
        assert main(["metrics", "diff", str(base), str(cur)]) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines()
                if "reduce.step" in line and "FAIL" in line]
        # Unregistered bookkeeping counters stay out of the gate.
        snap = json.loads(base.read_text())
        snap["counters"]["work.done"] *= 3
        cur.write_text(json.dumps(snap))
        assert main(["metrics", "diff", str(base), str(cur)]) == 0
        capsys.readouterr()

    def test_metrics_out_is_a_metrics1_snapshot(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        prog = tmp_path / "p.scm"
        prog.write_text("(invoke (unit (import) (export) 42))")
        metrics = tmp_path / "m.json"
        assert main(["--metrics-out", str(metrics), "run",
                     str(prog)]) == 0
        snap = obs.load_snapshot(metrics)
        assert snap["schema"] == "metrics1"
        assert snap["histograms"]  # span exits fed histograms

"""Tests for the observability layer (:mod:`repro.obs`).

* the collector's scoping semantics: off by default, contextvar-scoped,
  nested scopes shadow and restore, threads are isolated,
* event ordering: sequence numbers are total and timestamps monotone,
* the JSONL wire format round-trips exactly (property-tested),
* the overhead guard: with observability disabled, a hot reduction
  loop performs **zero** allocations attributable to the obs layer.
"""

from __future__ import annotations

import json
import threading
import tracemalloc

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import obs
from repro.lang.machine import Machine
from repro.lang.parser import parse_program
from repro.obs import (
    Collector,
    FAMILIES,
    JsonlSink,
    KINDS,
    TraceEvent,
    family_of,
    read_jsonl,
    write_jsonl,
    write_metrics,
)


class TestScoping:
    def test_off_by_default(self):
        assert obs.current() is None
        assert not obs.enabled()

    def test_module_level_emit_is_noop_when_disabled(self):
        # Must not raise, must not record anywhere.
        obs.emit("reduce.step", {"where": "nowhere"})
        obs.count("steps")
        assert obs.current() is None

    def test_collecting_scopes_and_restores(self):
        with obs.collecting() as col:
            assert obs.current() is col
            assert obs.enabled()
        assert obs.current() is None

    def test_collecting_accepts_existing_collector(self):
        mine = Collector()
        with obs.collecting(mine) as col:
            assert col is mine
            obs.emit("reduce.step")
        assert mine.counters == {"reduce.step": 1}

    def test_nested_scopes_shadow_innermost_wins(self):
        with obs.collecting() as outer:
            obs.emit("check.unit")
            with obs.collecting() as inner:
                obs.emit("reduce.step")
                assert obs.current() is inner
            assert obs.current() is outer
            obs.emit("check.unit")
        assert outer.counters == {"check.unit": 2}
        assert inner.counters == {"reduce.step": 1}

    def test_activate_deactivate_tokens(self):
        col = Collector()
        token = obs.activate(col)
        try:
            assert obs.current() is col
        finally:
            obs.deactivate(token)
        assert obs.current() is None

    def test_threads_do_not_inherit_scope(self):
        seen: list = []
        with obs.collecting():
            thread = threading.Thread(
                target=lambda: seen.append(obs.current()))
            thread.start()
            thread.join()
        assert seen == [None]

    def test_exception_still_restores_scope(self):
        with pytest.raises(RuntimeError):
            with obs.collecting():
                raise RuntimeError("boom")
        assert obs.current() is None


class TestCollector:
    def test_emit_records_counters_and_events(self):
        col = Collector()
        col.emit("reduce.step", {"where": "control"})
        col.emit("reduce.step", {"where": "store"})
        col.emit("link.edge", {"name": "f"})
        assert col.counters == {"reduce.step": 2, "link.edge": 1}
        assert [e.kind for e in col.events] \
            == ["reduce.step", "reduce.step", "link.edge"]

    def test_event_ordering_is_total(self):
        col = Collector()
        for _ in range(100):
            col.emit("reduce.step")
        seqs = [e.seq for e in col.events]
        times = [e.t for e in col.events]
        assert seqs == list(range(100))
        assert times == sorted(times)
        assert all(t >= 0 for t in times)

    def test_max_events_drops_but_keeps_counting(self):
        col = Collector(max_events=3)
        for _ in range(10):
            col.emit("reduce.step")
        assert len(col.events) == 3
        assert col.dropped == 7
        assert col.counters["reduce.step"] == 10
        # Sequence numbers keep advancing past the cap.
        assert col.emit("reduce.step") is None

    def test_count_accumulates(self):
        col = Collector()
        col.count("cells", 3)
        col.count("cells")
        assert col.counters["cells"] == 4

    def test_kinds_and_families(self):
        col = Collector()
        col.emit("reduce.step")
        col.emit("link.edge")
        col.count("cells")          # plain counter: not an event kind
        assert col.kinds() == {"reduce.step": 1, "link.edge": 1}
        assert col.families() == {"reduce", "link"}

    def test_metrics_snapshot_shape(self):
        col = Collector()
        col.emit("reduce.step")
        with col.span("check.unit"):
            pass
        snap = col.metrics()
        assert snap["events"] == 3
        assert snap["dropped"] == 0
        assert snap["counters"] == {"reduce.step": 1, "check.unit": 1}
        assert snap["histograms"]["check.unit"]["count"] == 1
        assert "timers" not in snap
        json.dumps(snap)  # must be JSON-ready


class TestEvents:
    def test_registered_kinds_have_known_families(self):
        for kind in KINDS:
            assert family_of(kind) in FAMILIES, kind

    def test_reserved_key_collision_rejected(self):
        event = TraceEvent("reduce.step", 0, 0.0, {"kind": "sneaky"})
        with pytest.raises(ValueError, match="reserved"):
            event.to_json()

    def test_wire_form_puts_reserved_keys_first(self):
        event = TraceEvent("link.edge", 7, 0.25, {"name": "f"})
        assert list(event.to_json()) == ["kind", "seq", "t", "name"]

    def test_family_property(self):
        assert TraceEvent("dynlink.load", 0, 0.0).family == "dynlink"


# JSON-serializable field values (no NaN: NaN != NaN breaks equality).
# Nested lists *and* objects: span exits carry structured annotations,
# so the wire format must round-trip arbitrary JSON nesting.
_field_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2**31, 2**31),
              st.floats(allow_nan=False, allow_infinity=False), st.text()),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(min_size=1), children, max_size=3)),
    max_leaves=6)
_fields = st.dictionaries(
    st.text(min_size=1).filter(lambda k: k not in ("kind", "seq", "t")),
    _field_values, max_size=4)
_events = st.builds(
    TraceEvent,
    kind=st.sampled_from(sorted(KINDS)),
    seq=st.integers(0, 2**31),
    t=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    fields=_fields)


class TestJsonl:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(_events, max_size=10))
    def test_roundtrip_is_identity(self, tmp_path_factory, events):
        path = tmp_path_factory.mktemp("jsonl") / "trace.jsonl"
        assert write_jsonl(events, path) == len(events)
        assert read_jsonl(path) == events

    @settings(max_examples=50, deadline=None)
    @given(_events)
    def test_to_json_from_json_inverse(self, event):
        assert TraceEvent.from_json(event.to_json()) == event

    def test_lines_are_flat_json_objects(self, tmp_path):
        col = Collector()
        col.emit("check.unit", {"defns": 3})
        col.emit("dynlink.load", {"name": "plugin", "typed": True})
        path = tmp_path / "trace.jsonl"
        write_jsonl(col.events, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            payload = json.loads(line)
            assert isinstance(payload, dict)
            assert set(payload) >= {"kind", "seq", "t"}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"kind":"reduce.step","seq":0,"t":0.0}\n\n\n')
        assert len(read_jsonl(path)) == 1

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text("[1,2,3]\n")
        with pytest.raises(ValueError, match="not an object"):
            read_jsonl(path)

    def test_write_metrics(self, tmp_path):
        col = Collector()
        col.emit("reduce.step")
        path = tmp_path / "metrics.json"
        write_metrics(col, path)
        assert json.loads(path.read_text())["counters"] \
            == {"reduce.step": 1}


class TestJsonlSink:
    def test_concurrent_writers_produce_intact_lines(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        path = tmp_path / "trace.jsonl"
        workers, per_worker = 8, 200

        def hammer(worker: int) -> None:
            for i in range(per_worker):
                sink.write(TraceEvent(
                    "reduce.step", worker * per_worker + i, 0.0,
                    {"worker": worker, "i": i}))

        with JsonlSink(path) as sink:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(hammer, range(workers)))
        # Every line parses; nothing interleaved or torn.
        events = read_jsonl(path)
        assert len(events) == workers * per_worker
        seen = {(e.fields["worker"], e.fields["i"]) for e in events}
        assert len(seen) == workers * per_worker

    def test_close_is_idempotent_and_write_after_close_raises(
            self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.write(TraceEvent("reduce.step", 0, 0.0, {}))
        sink.close()
        sink.close()  # no-op, no error
        with pytest.raises(ValueError, match="closed"):
            sink.write(TraceEvent("reduce.step", 1, 0.0, {}))
        assert len(read_jsonl(tmp_path / "t.jsonl")) == 1

    def test_append_mode_preserves_existing_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlSink(path) as sink:
            sink.write(TraceEvent("reduce.step", 0, 0.0, {}))
        with JsonlSink(path, append=True) as sink:
            sink.write_many([TraceEvent("reduce.step", 1, 0.0, {})])
        assert [e.seq for e in read_jsonl(path)] == [0, 1]


class TestDropCounters:
    def test_drops_are_counted_per_kind(self):
        col = Collector(max_events=2)
        col.emit("reduce.step")
        col.emit("reduce.step")
        for _ in range(3):
            col.emit("reduce.step")
        col.emit("check.unit")
        assert col.dropped == 4
        assert col.dropped_kinds == {"reduce.step": 3, "check.unit": 1}
        snap = col.metrics()
        assert snap["dropped"] == 4
        assert snap["dropped_by_kind"] == {"reduce.step": 3,
                                           "check.unit": 1}

    def test_metrics_only_collector_does_not_count_drops(self):
        col = Collector(record_events=False)
        for _ in range(10):
            col.emit("reduce.step")
        assert col.events == []
        assert col.dropped == 0
        assert col.dropped_kinds == {}
        assert col.counters["reduce.step"] == 10


class TestSpans:
    def test_module_level_span_is_noop_when_disabled(self):
        assert obs.current() is None
        with obs.span("reduce.machine", {"driver": "test"}) as sp:
            sp.annotate(ignored=True)
        assert obs.current() is None
        # The disabled path hands back a shared singleton every time.
        assert obs.span("reduce.machine") is obs.span("check.unit")

    def test_enter_exit_pair_and_ids(self):
        col = Collector()
        with col.span("link.static", {"merged": True}):
            col.emit("link.edge", {"name": "f"})
        shape = [(e.kind, e.fields.get("phase")) for e in col.events]
        assert shape == [("link.static", "enter"), ("link.edge", None),
                         ("link.static", "exit")]
        enter, edge, exit_ = col.events
        assert enter.fields["span"] == exit_.fields["span"] == 0
        assert "parent" not in enter.fields      # a root span
        assert enter.fields["merged"] is True
        assert edge.fields["span"] == 0          # stamped with its scope
        assert exit_.fields["dur"] >= exit_.fields["self"] >= 0.0

    def test_nested_spans_record_parent_and_self_time(self):
        col = Collector()
        with col.span("reduce.machine"):
            with col.span("reduce.compound"):
                pass
        enter_outer, enter_inner, exit_inner, exit_outer = col.events
        assert enter_inner.fields["parent"] == enter_outer.fields["span"]
        assert exit_outer.fields["dur"] >= exit_inner.fields["dur"]
        assert exit_outer.fields["self"] \
            <= exit_outer.fields["dur"] - exit_inner.fields["dur"] + 1e-9

    def test_counter_bumps_on_enter_only(self):
        col = Collector()
        with col.span("check.unit"):
            pass
        assert col.counters["check.unit"] == 1
        assert col.kinds()["check.unit"] == 1

    def test_exception_recorded_on_exit_and_propagates(self):
        col = Collector()
        with pytest.raises(ValueError, match="boom"):
            with col.span("dynlink.load", {"name": "p"}):
                raise ValueError("boom")
        exit_ = col.events[-1]
        assert exit_.fields["phase"] == "exit"
        assert "ValueError" in exit_.fields["err"]

    def test_annotate_lands_on_exit_event(self):
        col = Collector()
        with col.span("unit.invoke") as sp:
            sp.annotate(exports=3, imports=1)
        exit_ = col.events[-1]
        assert exit_.fields["exports"] == 3
        assert exit_.fields["imports"] == 1
        # Reserved span keys cannot be smuggled in through annotate.
        with col.span("unit.invoke") as sp:
            sp.annotate(dur="lies")
        assert col.events[-1].fields["dur"] != "lies"

    def test_metrics_reports_span_count(self):
        col = Collector()
        with col.span("reduce.machine"):
            with col.span("reduce.compound"):
                pass
        assert col.metrics()["spans"] == 2

    def test_dropped_events_are_not_silent(self):
        col = Collector(max_events=1)
        col.emit("reduce.step")
        col.emit("reduce.step")
        col.emit("reduce.step")
        assert col.dropped == 2
        assert col.counters["trace.dropped"] == 2
        assert col.metrics()["counters"]["trace.dropped"] == 2
        # The bookkeeping counter is not an event kind.
        assert "trace.dropped" not in col.kinds()
        assert "trace" not in col.families()


HOT_PROGRAM = """
    (invoke
      (compound (import) (export)
        (link ((unit (import) (export loop)
                 (define loop (lambda (n acc)
                   (if (zero? n) acc (loop (- n 1) (+ acc n)))))
                 (void))
               (with) (provides loop))
              ((unit (import loop) (export) (loop 40 0))
               (with loop) (provides)))))
"""


class TestOverheadGuard:
    """With no collector in scope the obs layer must stay off the
    allocation profile of hot loops entirely."""

    def _run_hot_loop(self):
        machine = Machine()
        state = machine.load(parse_program(HOT_PROGRAM))
        steps = 0
        while machine.step(state):
            steps += 1
        assert steps > 100  # genuinely hot
        return steps

    def test_disabled_path_allocates_nothing_in_obs(self):
        assert obs.current() is None
        self._run_hot_loop()  # warm caches outside the trace window
        tracemalloc.start()
        try:
            self._run_hot_loop()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        obs_allocs = [
            stat for stat in snapshot.statistics("filename")
            if "/obs/" in stat.traceback[0].filename]
        assert obs_allocs == [], obs_allocs

    def test_enabled_path_sees_every_step(self):
        with obs.collecting() as col:
            steps = self._run_hot_loop()
        assert col.counters["reduce.step"] == steps

    def test_machine_counters_empty_when_disabled(self):
        col = Collector()   # never activated
        self._run_hot_loop()
        assert col.counters == {} and col.events == []

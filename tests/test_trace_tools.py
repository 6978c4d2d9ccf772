"""Tests for the trace-analysis toolkit (analyze/report + ``repro trace``).

* span-tree reconstruction and well-formedness on synthetic traces and
  on a real traced ``repro demo`` run (all five families, valid tree),
* the agreement invariant: per-kind counts from a trace file equal the
  live collector's counters (metrics file) for the same run,
* the count-diff arithmetic behind ``repro metrics diff`` (threshold
  property-tested, strict mode) and the CLI exit codes of ``repro
  trace report|flame``,
* the ``trace steps`` back-compat spelling.
"""

from __future__ import annotations

import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import obs
from repro.cli import main as cli_main
from repro.obs import (
    Collector,
    KindDelta,
    build_spans,
    critical_path,
    diff_counts,
    fold_stacks,
    kind_counts,
    read_jsonl,
    regressions,
    render_flame,
    render_report,
    top_self_time,
    validate_spans,
)
from repro.obs.analyze import registered_counts

EXAMPLE = str(Path(__file__).resolve().parents[1]
              / "examples" / "phonebook.scm")


@pytest.fixture(scope="module")
def demo_artifacts(tmp_path_factory):
    """One traced+metered ``repro demo`` run, shared by the module."""
    tmp = tmp_path_factory.mktemp("demo")
    trace, metrics = tmp / "t.jsonl", tmp / "m.json"
    assert cli_main(["--trace", str(trace), "--metrics-out", str(metrics),
                     "demo", EXAMPLE]) == 0
    return trace, metrics


def _synthetic_events():
    """A small well-formed trace: two roots, nesting, plain events."""
    col = Collector()
    with col.span("reduce.machine", {"driver": "test"}):
        col.emit("reduce.step", {"rule": "beta"})
        with col.span("reduce.compound", {"defns": 2}) as sp:
            sp.annotate(renamed=1)
        col.emit("reduce.step", {"rule": "beta"})
    with col.span("unit.invoke"):
        col.emit("link.edge", {"name": "f"})
    return col


class TestBuildSpans:
    def test_forest_structure(self):
        col = _synthetic_events()
        forest = build_spans(col.events)
        assert [r.kind for r in forest.roots] \
            == ["reduce.machine", "unit.invoke"]
        machine = forest.roots[0]
        assert [c.kind for c in machine.children] == ["reduce.compound"]
        # Plain events attach to their enclosing span, not a child's.
        assert [e.kind for e in machine.events] \
            == ["reduce.step", "reduce.step"]
        assert forest.loose_events == []
        assert forest.span_count == 3
        assert forest.depth() == 2

    def test_dur_and_self_from_exit(self):
        col = _synthetic_events()
        forest = build_spans(col.events)
        machine = forest.roots[0]
        assert machine.dur >= machine.self_time >= 0.0
        assert machine.dur >= machine.children[0].dur

    def test_orphan_parent_becomes_root(self):
        col = _synthetic_events()
        events = [e for e in col.events
                  if e.fields.get("span") != 0
                  or e.fields.get("phase") not in ("enter", "exit")]
        forest = build_spans(events)
        # The nested span's parent (0) vanished: it is promoted to root.
        assert "reduce.compound" in [r.kind for r in forest.roots]

    def test_exit_without_enter_goes_loose(self):
        col = _synthetic_events()
        events = [e for e in col.events
                  if not (e.fields.get("phase") == "enter"
                          and e.fields.get("span") == 1)]
        forest = build_spans(events)
        assert any(e.fields.get("phase") == "exit"
                   and e.fields.get("span") == 1
                   for e in forest.loose_events)


class TestValidateSpans:
    def test_live_collector_trace_is_well_formed(self):
        assert validate_spans(_synthetic_events().events) == []

    def test_jsonl_roundtrip_stays_well_formed(self, tmp_path):
        col = _synthetic_events()
        path = tmp_path / "t.jsonl"
        obs.write_jsonl(col.events, path)
        assert validate_spans(read_jsonl(path)) == []

    def test_missing_exit_detected(self):
        col = _synthetic_events()
        events = [e for e in col.events
                  if not (e.fields.get("phase") == "exit"
                          and e.fields.get("span") == 0)]
        assert any("never exited" in p for p in validate_spans(events))

    def test_duplicate_enter_detected(self):
        col = _synthetic_events()
        enter = next(e for e in col.events
                     if e.fields.get("phase") == "enter")
        assert any("entered twice" in p
                   for p in validate_spans([enter] + col.events))

    def test_self_exceeding_cum_detected(self):
        col = _synthetic_events()
        for e in col.events:
            if e.fields.get("phase") == "exit":
                e.fields["self"] = e.fields["dur"] + 1.0
        assert any("exceeds cumulative" in p
                   for p in validate_spans(col.events))


class TestDemoTrace:
    """The acceptance run: a traced demo yields a real, valid tree."""

    def test_span_tree_is_well_formed(self, demo_artifacts):
        trace, _ = demo_artifacts
        events = read_jsonl(trace)
        assert validate_spans(events) == []

    def test_tree_is_non_trivial_and_covers_families(self, demo_artifacts):
        trace, _ = demo_artifacts
        events = read_jsonl(trace)
        forest = build_spans(events)
        assert forest.span_count >= 5
        assert forest.depth() >= 2
        span_families = {n.kind.split(".")[0] for n in forest.walk()}
        assert span_families >= {"check", "link", "reduce", "unit",
                                 "dynlink"}

    def test_trace_counts_agree_with_live_counters(self, demo_artifacts):
        trace, metrics = demo_artifacts
        counters = json.loads(Path(metrics).read_text())["counters"]
        assert kind_counts(read_jsonl(trace)) == \
            registered_counts(counters)

    def test_critical_path_is_a_chain(self, demo_artifacts):
        trace, _ = demo_artifacts
        forest = build_spans(read_jsonl(trace))
        path = critical_path(forest)
        assert path and path[0] in forest.roots
        for parent, child in zip(path, path[1:]):
            assert child in parent.children
            assert parent.dur >= child.dur

    def test_top_self_time_is_sorted(self, demo_artifacts):
        trace, _ = demo_artifacts
        forest = build_spans(read_jsonl(trace))
        ranked = top_self_time(forest, n=5)
        assert len(ranked) == 5
        selfs = [n.self_time for n in ranked]
        assert selfs == sorted(selfs, reverse=True)

    def test_fold_stacks_shape(self, demo_artifacts):
        trace, _ = demo_artifacts
        forest = build_spans(read_jsonl(trace))
        folded = fold_stacks(forest)
        assert folded
        for stack, micros in folded.items():
            assert micros >= 1
            for frame in stack.split(";"):
                assert "." in frame    # every frame is a kind

    def test_report_renders_required_sections(self, demo_artifacts):
        trace, _ = demo_artifacts
        text = render_report(read_jsonl(trace))
        for needle in ("events by family", "span tree", "critical path",
                       "self time", "reduce.machine", "dynlink.load"):
            assert needle in text, needle


class TestDiffGate:
    def test_status_thresholds(self):
        assert KindDelta("k", 100, 111).status(0.10) == "regressed"
        assert KindDelta("k", 100, 110).status(0.10) == "ok"
        assert KindDelta("k", 100, 89).status(0.10) == "improved"
        assert KindDelta("k", 100, 90).status(0.10) == "ok"
        assert KindDelta("k", 0, 5).status(0.10) == "new"
        assert KindDelta("k", 5, 0).status(0.10) == "gone"
        assert KindDelta("k", 0, 0).status(0.10) == "ok"

    @settings(max_examples=200, deadline=None)
    @given(base=st.integers(1, 10_000), cur=st.integers(1, 10_000),
           threshold=st.floats(0, 2, allow_nan=False))
    def test_regressed_iff_past_threshold(self, base, cur, threshold):
        status = KindDelta("k", base, cur).status(threshold)
        assert (status == "regressed") == (cur > base * (1 + threshold))

    def test_regressions_strict_mode(self):
        deltas = diff_counts({"a.x": 10, "a.y": 1}, {"a.x": 10, "a.z": 1})
        assert regressions(deltas, 0.10) == []
        strict = {d.kind for d in regressions(deltas, 0.10, strict=True)}
        assert strict == {"a.y", "a.z"}

    def test_registered_counts_skips_bookkeeping(self, demo_artifacts):
        trace, metrics = demo_artifacts
        counters = dict(json.loads(Path(metrics).read_text())["counters"])
        counters["bogus"] = 7
        counters["trace.dropped"] = 3
        counts = registered_counts(counters)
        assert "bogus" not in counts and "trace.dropped" not in counts
        assert counts == kind_counts(read_jsonl(trace))


class TestCliExitCodes:
    def test_report_ok_and_min_spans_gate(self, demo_artifacts, capsys):
        trace, _ = demo_artifacts
        assert cli_main(["trace", "report", str(trace)]) == 0
        assert "span tree" in capsys.readouterr().out
        assert cli_main(["trace", "report", str(trace),
                         "--min-spans", "100000"]) == 1

    def test_report_bad_file_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("[not, an, object]\n")
        assert cli_main(["trace", "report", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_trace_diff_is_gone(self, demo_artifacts, capsys):
        # ``repro metrics diff`` is the one count gate.
        _, metrics = demo_artifacts
        with pytest.raises(SystemExit) as exc:
            cli_main(["trace", "diff", str(metrics), str(metrics)])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_flame_writes_collapsed_stacks(self, tmp_path,
                                           demo_artifacts):
        trace, _ = demo_artifacts
        out = tmp_path / "flame.txt"
        assert cli_main(["trace", "flame", str(trace),
                         "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines
        for line in lines:
            stack, _, micros = line.rpartition(" ")
            assert stack and int(micros) >= 1
        assert render_flame(read_jsonl(trace)) == "\n".join(lines)

    def test_trace_steps_spellings_agree(self, tmp_path, capsys):
        program = tmp_path / "p.scm"
        program.write_text(
            "(invoke (unit (import) (export) (+ 1 2)))\n")
        assert cli_main(["trace", "steps", str(program)]) == 0
        explicit = capsys.readouterr().out
        assert cli_main(["trace", str(program)]) == 0
        assert capsys.readouterr().out == explicit
        assert "[0]" in explicit

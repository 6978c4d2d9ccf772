"""Text rendering for the trace-analysis toolkit.

Everything here turns :mod:`repro.obs.analyze` structures into plain
monospace text for the ``repro trace report|flame`` subcommands.
No terminal control codes: the output is meant to be read in CI logs
and diffed across runs as easily as on a tty.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs.analyze import (
    SpanForest,
    SpanNode,
    critical_path,
    family_counts,
    fold_stacks,
    kind_counts,
    top_self_time,
    validate_spans,
)
from repro.obs.events import FAMILIES, TraceEvent, family_of


def _ms(seconds: float) -> str:
    return f"{seconds * 1e3:.3f}"


def _counts_table(counts: dict[str, int], indent: str = "  ") -> list[str]:
    if not counts:
        return [f"{indent}(none)"]
    width = max(len(kind) for kind in counts)
    return [f"{indent}{kind.ljust(width)}  {counts[kind]:>8}"
            for kind in sorted(counts)]


def render_tree(forest: SpanForest, max_depth: int | None = None
                ) -> list[str]:
    """The span forest as an indented tree.

    Each line shows the span kind, cumulative and self milliseconds, a
    ``*`` marker on the critical path, aggregated plain-event counts
    attributed to the span, and any failure or source location the
    events carry.  Runs of identical childless siblings collapse into
    one ``×N`` line so wide traces stay readable.
    """
    on_path = {id(node) for node in critical_path(forest)}
    lines: list[str] = []

    def describe(node: SpanNode, count: int = 1) -> str:
        mark = "*" if id(node) in on_path else " "
        label = node.kind if count == 1 else f"{node.kind} ×{count}"
        text = f"{mark} {label}  [{_ms(node.dur)}ms cum, " \
               f"{_ms(node.self_time)}ms self]"
        inner: dict[str, int] = {}
        for event in node.events:
            inner[event.kind] = inner.get(event.kind, 0) + 1
        if inner:
            text += "  (" + ", ".join(
                f"{k} ×{v}" for k, v in sorted(inner.items())) + ")"
        loc = node.enter.fields.get("loc")
        if loc:
            text += f"  @ {loc}"
        if node.failed:
            text += f"  !! {node.exit.fields.get('err')}"
        return text

    def go(nodes: Sequence[SpanNode], depth: int) -> None:
        if max_depth is not None and depth >= max_depth:
            if nodes:
                lines.append("  " * depth + f"… {len(nodes)} span(s) "
                             f"below --max-depth")
            return
        index = 0
        while index < len(nodes):
            node = nodes[index]
            run = 1
            if not node.children and not node.events \
                    and id(node) not in on_path and not node.failed:
                while index + run < len(nodes):
                    peer = nodes[index + run]
                    if peer.kind != node.kind or peer.children \
                            or peer.events or id(peer) in on_path \
                            or peer.failed:
                        break
                    run += 1
            if run > 1:
                total = sum(n.dur for n in nodes[index:index + run])
                merged = SpanNode(node.kind, node.span_id, node.parent_id,
                                  node.enter, node.exit)
                lines.append("  " * depth + describe(merged, run)
                             .replace(f"[{_ms(node.dur)}ms cum",
                                      f"[{_ms(total)}ms cum", 1))
                index += run
                continue
            lines.append("  " * depth + describe(node))
            go(node.children, depth + 1)
            index += 1
    go(forest.roots, 0)
    if not lines:
        lines.append("  (no spans recorded)")
    return lines


def _failures(events: Sequence[TraceEvent]) -> list[str]:
    """Failure lines: errored spans and error-kind events, with any
    ``origin:line:col`` source location they carry."""
    lines: list[str] = []
    for event in events:
        err = event.fields.get("err")
        reason = event.fields.get("reason")
        if err is None and not event.kind.endswith(".error"):
            continue
        loc = event.fields.get("loc")
        where = f" @ {loc}" if loc else ""
        detail = err if err is not None else reason
        lines.append(f"  {event.kind}{where}: {detail}")
    return lines


def _cache_efficiency(events: Sequence[TraceEvent]) -> list[str]:
    """Per-cache hit/miss/eviction lines, empty without cache events.

    Ratios come from the events' ``cache`` field, so the section works
    on any recorded trace (live collector or reloaded JSONL).
    """
    stats: dict[str, dict[str, int]] = {}
    for event in events:
        if family_of(event.kind) != "cache":
            continue
        name = str(event.fields.get("cache", "?"))
        per = stats.setdefault(name, {"hit": 0, "miss": 0, "evict": 0})
        action = event.kind.split(".", 1)[1]
        if action in per:
            per[action] += 1
    if not stats:
        return []
    lines = ["cache efficiency:"]
    width = max(len(name) for name in stats)
    for name in sorted(stats):
        per = stats[name]
        lookups = per["hit"] + per["miss"]
        ratio = f"{per['hit'] / lookups:6.1%}" if lookups else "   n/a"
        line = (f"  {name.ljust(width)}  {per['hit']:>6} hit  "
                f"{per['miss']:>6} miss  {ratio} hit rate")
        if per["evict"]:
            line += f"  ({per['evict']} evicted)"
        lines.append(line)
    return lines


def _truncation(events: Sequence[TraceEvent]) -> list[str]:
    """Per-kind drop lines from ``metric.dropped`` trailer events.

    When a collector hits ``max_events`` it keeps per-kind drop
    counters; the CLI appends one ``metric.dropped`` event per
    truncated kind to the written trace, so a reloaded report can say
    *what* was lost, not just how much.
    """
    tally: dict[str, int] = {}
    for event in events:
        if event.kind != "metric.dropped":
            continue
        kind = str(event.fields.get("of", "?"))
        tally[kind] = tally.get(kind, 0) + int(event.fields.get("count", 0))  # type: ignore[arg-type]
    if not tally:
        return []
    width = max(len(kind) for kind in tally)
    return [f"  {kind.ljust(width)}  ×{tally[kind]}"
            for kind in sorted(tally)]


def render_report(events: Sequence[TraceEvent], top: int = 10,
                  max_depth: int | None = None) -> str:
    """The full ``repro trace report`` text for one recorded trace."""
    from repro.obs.analyze import build_spans

    forest = build_spans(events)
    counts = kind_counts(events)
    families = family_counts(counts)
    out: list[str] = []
    out.append(
        f"trace report — {len(events)} events, {forest.span_count} spans, "
        f"depth {forest.depth()}")
    out.append("")
    out.append("events by family:")
    out.extend(_counts_table(
        {fam: families.get(fam, 0) for fam in FAMILIES if fam in families}))
    out.append("")
    out.append("events by kind:")
    out.extend(_counts_table(counts))
    out.append("")
    efficiency = _cache_efficiency(events)
    if efficiency:
        out.extend(efficiency)
        out.append("")
    out.append("span tree  (* = critical path; cum/self in ms):")
    out.extend(render_tree(forest, max_depth))
    path = critical_path(forest)
    if path:
        out.append("")
        out.append("critical path: "
                   + " -> ".join(node.kind for node in path)
                   + f"  ({_ms(path[0].dur)}ms)")
    ranked = top_self_time(forest, top)
    if ranked:
        out.append("")
        out.append(f"top {len(ranked)} spans by self time:")
        width = max(len(node.kind) for node in ranked)
        for node in ranked:
            out.append(f"  {node.kind.ljust(width)}  "
                       f"{_ms(node.self_time):>10}ms self  "
                       f"{_ms(node.dur):>10}ms cum")
    failures = _failures(events)
    if failures:
        out.append("")
        out.append("failures:")
        out.extend(failures)
    truncated = _truncation(events)
    if truncated:
        out.append("")
        out.append("truncated (events dropped at the collector's "
                   "max_events bound):")
        out.extend(truncated)
    problems = validate_spans(events)
    if problems:
        out.append("")
        out.append("span-structure problems:")
        out.extend(f"  {p}" for p in problems)
    return "\n".join(out)


def render_flame(events: Sequence[TraceEvent]) -> str:
    """Collapsed-stack lines (``kind;kind;kind microseconds``)."""
    from repro.obs.analyze import build_spans

    folded = fold_stacks(build_spans(events))
    return "\n".join(f"{stack} {value}"
                     for stack, value in sorted(folded.items()))

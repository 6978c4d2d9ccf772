"""Trace analysis: span trees, critical paths, counts, and diffs.

This module is the *consumption* side of the observability layer: it
takes a recorded event stream (a live ``Collector.events`` list or a
JSONL trace read back with :func:`repro.obs.read_jsonl`) and rebuilds
the causal structure the span layer stamped onto it —

* :func:`build_spans` reconstructs the span forest (every trace is a
  well-formed tree mirroring the paper's derivations: an ``invoke``
  reduction contains the compound merges it triggered, a compound
  check contains its clause and subtype sub-judgments),
* :func:`validate_spans` checks that tree's well-formedness (balanced
  enter/exit, resolvable parents, self-time ≤ cumulative, proper
  nesting),
* :func:`critical_path` walks the longest-duration chain root-to-leaf,
* :func:`top_self_time` ranks spans by where wall time was actually
  spent,
* :func:`fold_stacks` flattens the forest into collapsed-stack lines
  consumable by standard flamegraph tools,
* :func:`kind_counts` counts a trace per kind; :func:`diff_counts` /
  :func:`regressions` / :func:`registered_counts` back the ``repro
  metrics diff`` count gate.

Rendering lives in :mod:`repro.obs.report`; the CLI entry points are
the ``repro trace report|flame`` subcommands.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.obs.events import TraceEvent, family_of

#: Slack for floating-point timer comparisons (seconds).
_EPS = 1e-9


@dataclass
class SpanNode:
    """One reconstructed span: an enter/exit event pair plus children.

    ``events`` holds the *plain* events stamped with this span's id —
    the flat observations (``reduce.step``, ``link.edge``, ...) that
    happened directly inside this scope, not inside a child span.
    """

    kind: str
    span_id: int
    parent_id: int | None
    enter: TraceEvent
    exit: TraceEvent | None = None
    children: list["SpanNode"] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)

    @property
    def dur(self) -> float:
        """Cumulative wall seconds (0.0 for an unclosed span)."""
        if self.exit is None:
            return 0.0
        return float(self.exit.fields.get("dur", 0.0))  # type: ignore[arg-type]

    @property
    def self_time(self) -> float:
        """Seconds spent in this span excluding child spans."""
        if self.exit is None:
            return 0.0
        return float(self.exit.fields.get("self", 0.0))  # type: ignore[arg-type]

    @property
    def failed(self) -> bool:
        """Did the span's body raise (exit carries ``err``)?"""
        return self.exit is not None and "err" in self.exit.fields

    def walk(self) -> Iterable["SpanNode"]:
        """This node and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


@dataclass
class SpanForest:
    """The reconstructed trace: span roots plus unattributed events."""

    roots: list[SpanNode]
    #: span id -> node, for every span seen (even orphaned ones).
    by_id: dict[int, SpanNode]
    #: plain events with no (resolvable) enclosing span.
    loose_events: list[TraceEvent]

    def walk(self) -> Iterable[SpanNode]:
        for root in self.roots:
            yield from root.walk()

    @property
    def span_count(self) -> int:
        return len(self.by_id)

    def depth(self) -> int:
        """Maximum nesting depth over all roots (0 when empty)."""
        best = 0

        def go(node: SpanNode, d: int) -> None:
            nonlocal best
            best = max(best, d)
            for child in node.children:
                go(child, d + 1)

        for root in self.roots:
            go(root, 1)
        return best


def build_spans(events: Sequence[TraceEvent]) -> SpanForest:
    """Rebuild the span forest from a recorded event stream.

    Tolerant by construction: spans whose parent id never appears
    become roots, exits without enters are ignored, unclosed spans
    keep ``dur == 0``.  Use :func:`validate_spans` to *detect* such
    defects; this function's job is to give tools a tree regardless.
    """
    by_id: dict[int, SpanNode] = {}
    roots: list[SpanNode] = []
    loose: list[TraceEvent] = []
    for event in events:
        phase = event.fields.get("phase")
        if phase == "enter":
            span_id = event.fields.get("span")
            if not isinstance(span_id, int):
                loose.append(event)
                continue
            parent_id = event.fields.get("parent")
            parent_id = parent_id if isinstance(parent_id, int) else None
            node = SpanNode(event.kind, span_id, parent_id, event)
            by_id[span_id] = node
            parent = by_id.get(parent_id) if parent_id is not None else None
            if parent is not None:
                parent.children.append(node)
            else:
                roots.append(node)
        elif phase == "exit":
            span_id = event.fields.get("span")
            node = by_id.get(span_id) if isinstance(span_id, int) else None
            if node is not None and node.exit is None:
                node.exit = event
            else:
                loose.append(event)
        else:
            span_id = event.fields.get("span")
            node = by_id.get(span_id) if isinstance(span_id, int) else None
            if node is not None:
                node.events.append(event)
            else:
                loose.append(event)
    return SpanForest(roots, by_id, loose)


def validate_spans(events: Sequence[TraceEvent]) -> list[str]:
    """Well-formedness problems of a trace's span structure.

    Returns human-readable problem strings (empty means well formed):
    unbalanced enter/exit, duplicate span ids, parents that never
    entered, exits out of nesting order, self-time exceeding
    cumulative time, and children wider than their parent.
    """
    problems: list[str] = []
    seen: dict[int, TraceEvent] = {}
    open_stack: list[tuple[int, TraceEvent]] = []
    closed: dict[int, TraceEvent] = {}
    for event in events:
        phase = event.fields.get("phase")
        if phase not in ("enter", "exit"):
            continue
        span_id = event.fields.get("span")
        if not isinstance(span_id, int):
            problems.append(
                f"seq {event.seq}: span event without an integer id")
            continue
        if phase == "enter":
            if span_id in seen:
                problems.append(f"span {span_id}: entered twice")
            seen[span_id] = event
            parent_id = event.fields.get("parent")
            if parent_id is not None and parent_id not in seen:
                problems.append(
                    f"span {span_id}: parent {parent_id} never entered")
            if open_stack and parent_id != open_stack[-1][0]:
                problems.append(
                    f"span {span_id}: parent {parent_id!r} is not the "
                    f"innermost open span {open_stack[-1][0]}")
            open_stack.append((span_id, event))
        else:
            if span_id in closed:
                problems.append(f"span {span_id}: exited twice")
                continue
            if span_id not in seen:
                problems.append(f"span {span_id}: exit without enter")
                continue
            if not open_stack or open_stack[-1][0] != span_id:
                problems.append(
                    f"span {span_id}: exit out of nesting order")
                open_stack[:] = [(i, e) for i, e in open_stack
                                 if i != span_id]
            else:
                open_stack.pop()
            closed[span_id] = event
            dur = event.fields.get("dur")
            self_time = event.fields.get("self")
            if not isinstance(dur, (int, float)) \
                    or not isinstance(self_time, (int, float)):
                problems.append(
                    f"span {span_id}: exit lacks dur/self timings")
            elif self_time > dur + _EPS:
                problems.append(
                    f"span {span_id}: self time {self_time} exceeds "
                    f"cumulative {dur}")
    for span_id, enter in seen.items():
        if span_id not in closed:
            problems.append(f"span {span_id}: never exited "
                            f"(entered at seq {enter.seq})")
    # Children must fit inside their parent's cumulative time.
    forest = build_spans(events)
    for node in forest.walk():
        if node.exit is None:
            continue
        child_total = sum(c.dur for c in node.children if c.exit)
        if child_total > node.dur + max(_EPS, 1e-6 * len(node.children)):
            problems.append(
                f"span {node.span_id} ({node.kind}): children total "
                f"{child_total} exceeds cumulative {node.dur}")
    return problems


def critical_path(forest: SpanForest) -> list[SpanNode]:
    """The heaviest root-to-leaf chain by cumulative duration."""
    if not forest.roots:
        return []
    path: list[SpanNode] = []
    node = max(forest.roots, key=lambda n: n.dur)
    while node is not None:
        path.append(node)
        node = max(node.children, key=lambda n: n.dur, default=None)
    return path


def top_self_time(forest: SpanForest, n: int = 10) -> list[SpanNode]:
    """The ``n`` spans with the largest self time, descending."""
    nodes = [node for node in forest.walk() if node.exit is not None]
    nodes.sort(key=lambda node: node.self_time, reverse=True)
    return nodes[:n]


def fold_stacks(forest: SpanForest) -> dict[str, int]:
    """Collapse the span forest into flamegraph folded-stack form.

    Keys are ``;``-joined kind paths root-to-node, values are
    microseconds of *self* time (minimum 1 so every recorded span
    stays visible).  The output feeds ``flamegraph.pl`` / speedscope /
    inferno unchanged.
    """
    folded: dict[str, int] = {}

    def go(node: SpanNode, prefix: str) -> None:
        stack = f"{prefix};{node.kind}" if prefix else node.kind
        micros = max(1, int(round(node.self_time * 1e6)))
        folded[stack] = folded.get(stack, 0) + micros
        for child in node.children:
            go(child, stack)

    for root in forest.roots:
        go(root, "")
    return folded


# ---------------------------------------------------------------------------
# Counts and the regression diff
# ---------------------------------------------------------------------------


def kind_counts(events: Sequence[TraceEvent]) -> dict[str, int]:
    """Event occurrences per kind, counting each span once.

    Span exit events are excluded so counts from a trace file agree
    exactly with the live collector's counters (which bump on enter).
    """
    counts: dict[str, int] = {}
    for event in events:
        if event.fields.get("phase") == "exit":
            continue
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


def family_counts(counts: dict[str, int]) -> dict[str, int]:
    """Aggregate per-kind counts up to their families."""
    out: dict[str, int] = {}
    for kind, value in counts.items():
        out[family_of(kind)] = out.get(family_of(kind), 0) + value
    return out


@dataclass(frozen=True)
class KindDelta:
    """The diff of one event kind between a baseline and a current run."""

    kind: str
    base: int
    cur: int

    @property
    def delta(self) -> int:
        return self.cur - self.base

    @property
    def ratio(self) -> float | None:
        """cur/base, or ``None`` when the kind is new (base == 0)."""
        if self.base == 0:
            return None
        return self.cur / self.base

    def status(self, threshold: float) -> str:
        """One of ``new``, ``gone``, ``regressed``, ``improved``,
        ``ok`` under a relative regression ``threshold``."""
        if self.base == 0:
            return "new" if self.cur else "ok"
        if self.cur == 0:
            return "gone"
        if self.cur > self.base * (1.0 + threshold):
            return "regressed"
        if self.cur < self.base * (1.0 - threshold):
            return "improved"
        return "ok"


def diff_counts(base: dict[str, int], cur: dict[str, int]
                ) -> list[KindDelta]:
    """Per-kind deltas over the union of both count maps, sorted."""
    kinds = sorted(set(base) | set(cur))
    return [KindDelta(kind, base.get(kind, 0), cur.get(kind, 0))
            for kind in kinds]


def regressions(deltas: Iterable[KindDelta], threshold: float,
                strict: bool = False) -> list[KindDelta]:
    """The deltas that should fail a CI gate.

    A kind whose count grew past ``base * (1 + threshold)`` is a
    regression.  Under ``strict``, kinds that appeared (``new``) or
    vanished (``gone``) also fail — both mean the committed baseline
    no longer describes the instrumentation and needs a refresh.
    """
    bad_states = {"regressed"} | ({"new", "gone"} if strict else set())
    return [d for d in deltas if d.status(threshold) in bad_states]


def registered_counts(counters: dict[str, object]) -> dict[str, int]:
    """The dotted ``family.action`` counters of a registered family;
    bookkeeping counters such as ``trace.dropped`` are skipped."""
    from repro.obs.events import FAMILIES

    return {kind: int(value) for kind, value in counters.items()
            if "." in kind and family_of(kind) in FAMILIES}

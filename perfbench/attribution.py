"""Per-layer metrics from a traced pass.

Two sources, joined on the request id:

* the launcher's span dump (``launcher.py``): per request, a tree
  rooted at ``execute_request`` with one span per layer call;
* the server's own telemetry, read through the ``metrics`` and
  ``stats`` ops just before and after the pass: the per-tier
  ``cache.hit.<tier>`` / ``cache.miss.<tier>`` service-time histograms
  (their count and sum deltas) and tier occupancy.

A layer's self time is its span's duration minus what its child spans
cover.  ``unattributed`` is the client latency minus the self times of
the named layers (parse, check, link, codegen, runtime); the rest of
the root span (handler glue) and everything outside it (admission,
executor handoff, encoding, the socket) land there.
``serve.overhead`` is the client latency minus the root span alone.
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import Pass, quantile

#: Span name -> layer.
LAYERS = {
    "cached_parse": "parse", "parse_script": "parse",
    "check_program": "check",
    "link_and_optimize": "link", "link.flatten": "link.flatten",
    "link.optimize": "link.optimize",
    "compile_program": "codegen",
    "PyProgram.run": "runtime",
}
#: Layers whose self times sum to the attributed share of a request.
NAMED = ("parse", "check", "link", "link.flatten", "link.optimize",
         "codegen", "runtime")
TIERS = ("dynlink", "check", "compile", "link", "flatten", "pycode")


def load_spans(path: Path) -> dict[int, list[list[object]]]:
    return {int(rid): spans
            for rid, spans in json.loads(path.read_text()).items()}


def _request_layers(spans: list[list[object]]) -> dict[str, float]:
    """Per-layer self seconds (``self.<layer>``) and outermost-span
    durations (``dur.<layer>``) of one request's span tree."""
    child = [0.0] * len(spans)
    for name, parent, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out: dict[str, float] = {"exec": spans[0][3] - spans[0][2]}
    for i, (name, parent, t0, t1, _) in enumerate(spans):
        layer = LAYERS.get(name)
        if layer is None:
            continue
        key = "self." + layer
        out[key] = out.get(key, 0.0) + (t1 - t0) - child[i]
        if LAYERS.get(spans[parent][0]) != layer:
            key = "dur." + layer
            out[key] = out.get(key, 0.0) + (t1 - t0)
    return out


def _hist_delta(before: dict, after: dict, name: str) -> tuple[int, float]:
    a = after["metrics"]["histograms"].get(name, {})
    b = before["metrics"]["histograms"].get(name, {})
    return (a.get("count", 0) - b.get("count", 0),
            a.get("sum", 0.0) - b.get("sum", 0.0))


def per_layer(traced: Pass, untraced: Pass,
              spans: dict[int, list[list[object]]]
              ) -> tuple[dict[str, float], int]:
    """The per-layer metrics, and how many requests were joined."""
    wall = traced.wall
    rows = []
    parse_bytes = parse_secs = 0.0
    for req in traced.requests:
        tree = spans.get(req.rid)
        if req.status != "ok" or not tree:
            continue
        layers = _request_layers(tree)
        layers["client"] = req.latency
        rows.append(layers)
        for name, _, t0, t1, nbytes in tree:
            if name == "parse_script":
                parse_bytes += nbytes
                parse_secs += t1 - t0
    if not rows:
        raise RuntimeError("traced pass produced no joined spans")

    def p50(key: str) -> float:
        values = [r[key] for r in rows if key in r]
        return quantile(values, 0.5) * 1e3 if values else 0.0

    def busy(layer: str) -> float:
        return sum(r.get("dur." + layer, 0.0) for r in rows) / wall

    overhead = [r["client"] - r["exec"] for r in rows]
    unattributed = [r["client"] - sum(r.get("self." + k, 0.0)
                                      for k in NAMED) for r in rows]
    metrics: dict[str, float] = {
        "parse.ms.p50": p50("dur.parse"),
        "parse.busy_frac": busy("parse"),
        "parse.kb_per_s": (parse_bytes / 1024 / parse_secs
                           if parse_secs else 0.0),
        "check.ms.p50": p50("dur.check"),
        "check.busy_frac": busy("check"),
        "link.busy_frac": busy("link"),
        "link.flatten.busy_frac": busy("link.flatten"),
        "link.optimize.busy_frac": busy("link.optimize"),
        "codegen.busy_frac": busy("codegen"),
        "runtime.ms.p50": p50("dur.runtime"),
    }
    before, after = traced.marks
    occupancy = after["stats"]["occupancy"]
    for tier in TIERS:
        hits, hit_s = _hist_delta(before, after, f"cache.hit.{tier}")
        misses, miss_s = _hist_delta(before, after, f"cache.miss.{tier}")
        metrics[f"cache.{tier}.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        metrics[f"cache.{tier}.hit_busy_frac"] = hit_s / wall
        metrics[f"cache.{tier}.miss_busy_frac"] = miss_s / wall
        metrics[f"cache.{tier}.entries"] = float(occupancy.get(tier, 0))
    metrics.update({
        "serve.overhead_ms.p50": quantile(overhead, 0.5) * 1e3,
        "serve.overhead_ms.p99": quantile(overhead, 0.99) * 1e3,
        "serve.shed_frac": traced.count("overloaded") / traced.attempted,
        "serve.conn_dropped": float(traced.count("dropped")),
        "unattributed_ms.p50": quantile(unattributed, 0.5) * 1e3,
        "trace_overhead_frac": (quantile(traced.latencies, 0.5)
                                / quantile(untraced.latencies, 0.5) - 1.0),
    })
    return metrics, len(rows)

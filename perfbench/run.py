"""Served-pipeline benchmark: one workload, one run.

    python3 perfbench/run.py --workload cold-compile --seed 1 \
        --seconds 40 --trace 0

Run from the root of a checkout.  The benchmark starts the checkout's
``repro serve`` (``src/`` on ``PYTHONPATH``, default flags) as a
subprocess, drives it from this one process, checks every answer
against the generator's closed-form value, and prints each metric by
name with its unit; the last line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes an untraced and then a traced pass (through
``launcher.py``) and reports the per-layer metrics.  Exit status 3
means the run is invalid (generator self-check mismatch, or an open
loop that could not keep its schedule); 2 means there is nothing to
benchmark here.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from attribution import load_spans, per_layer  # noqa: E402
from client import ROOT, Conn, ServerProcess, call, start_server  # noqa: E402
from workloads import (WORKLOADS, InvalidRun, Pass, quantile,  # noqa: E402
                       self_check)

#: Server spawns per run; ``setup_s`` is their median.
SETUP_SPAWNS = 5


def _spec() -> dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


async def _probe(conn: Conn) -> dict[str, object]:
    """The server's telemetry snapshot and cache occupancy (ids below
    zero never collide with the workload's own)."""
    metrics = await call(conn, -1, "metrics")
    stats = await call(conn, -2, "stats")
    return {"metrics": metrics["metrics"], "stats": stats}


def _measure(workload: str, seed: int, seconds: float, server: ServerProcess,
             **kwargs: object) -> Pass:
    asyncio.run(self_check(server.port, seed))
    # The load generator must not add pauses of its own to what it
    # times: no cyclic garbage collection in this process while the
    # workload runs (reference counting still frees nearly everything).
    gc.collect()
    gc.disable()
    try:
        return asyncio.run(WORKLOADS[workload](server.port, seed, seconds,
                                               **kwargs))
    finally:
        gc.enable()


def end_to_end(workload: str, seed: int,
               seconds: float) -> tuple[Pass, dict[str, float]]:
    setups: list[float] = []
    server = None
    try:
        for i in range(SETUP_SPAWNS):
            if server is not None:
                server.stop()
            server, seconds_to_ping = start_server(tag=f"setup{i}")
            setups.append(seconds_to_ping)
        run = _measure(workload, seed, seconds, server,
                       rss=server.rss_hwm_mb)
    finally:
        if server is not None:
            server.stop()
    return run, {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": quantile(run.latencies, 0.5) * 1e3,
        "latency_p90_ms": quantile(run.latencies, 0.9) * 1e3,
        "slo_met_frac": run.slo_met / len(run.latencies),
        "peak_rss_mb": run.rss_mb,
    }


def traced(workload: str, seed: int,
           seconds: float) -> tuple[Pass, dict[str, float]]:
    """An untraced pass (the reference for ``trace_overhead_frac``),
    then the same inputs against the span-recording launcher."""
    passes = []
    for mode in ("untraced", "traced"):
        server, _ = start_server(traced=mode == "traced", tag=mode)
        try:
            passes.append(_measure(
                workload, seed, seconds, server, ladder=False,
                probe=_probe if mode == "traced" else None))
        finally:
            server.stop()
    metrics, joined = per_layer(passes[1], passes[0],
                                load_spans(server.spans_path))
    print(f"# spans joined to {joined} of {passes[1].attempted} "
          f"traced requests")
    return passes[1], metrics


def _report(run: Pass, metrics: dict[str, float],
            spec: list[dict[str, object]]) -> dict[str, object]:
    """Print the human-readable report; return the result object."""
    n = len(run.latencies)
    print(f"# attempted {run.attempted} requests, failed {run.failed} "
          f"(failed_frac {run.failed / run.attempted:.4f}: "
          f"error {run.count('error')}, overloaded "
          f"{run.count('overloaded')}, dropped {run.count('dropped')}, "
          f"wrong {run.count('wrong')})")
    print(f"# {n} SLO samples over {run.wall:.2f} s, limit "
          f"{run.limit * 1e3:.0f} ms; p50/p90/p99 from n={n} "
          f"(samples beyond p99: {n - -(-99 * n // 100)})")
    if run.lateness:
        print(f"# open-loop lateness p99 "
              f"{quantile(run.lateness, 0.99) * 1e3:.3f} ms")
    print(f"# goodput {run.slo_met / run.wall:.2f} SLO-met results/s")
    for rung in run.rungs:
        print(f"# rung {rung['rate']:7.1f} req/s: n={rung['requests']} "
              f"p50 {rung['p50'] * 1e3:.2f} ms p99 {rung['p99'] * 1e3:.2f} "
              f"ms failed {rung['failed']} late_p99 "
              f"{rung['late_p99'] * 1e3:.2f} ms")
    if run.max_rps:
        print(f"# max_rps_slo {run.max_rps:.1f} req/s (p99 under the "
              f"limit; reported, not bounded: see README.md)")
    names = [m["name"] for m in spec]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(names)}")
    out = {}
    for m in spec:
        value = metrics[m["name"]]
        print(f"{m['name']:32s} {value:14.6f} {m['unit']}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": run.count("wrong") == 0, "attempted": run.attempted,
            "failed": run.failed, "metrics": out}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so the server subprocess is
    # still stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"nproc={os.cpu_count()} python={platform.python_version()}")
    section = "per_layer" if args.trace else "end_to_end"
    try:
        run, metrics = (traced if args.trace else end_to_end)(
            args.workload, args.seed, args.seconds)
    except InvalidRun as err:
        print(f"INVALID: {err}", file=sys.stderr)
        return 3
    result = _report(run, metrics, _spec()[section])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

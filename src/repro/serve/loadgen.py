"""The ``repro bench --serve`` load generator.

Measures the link server the way a client feels it: end-to-end
request latency over the socket, cold (store flushed before every
request) versus warm (the shared store primed), plus sustained
concurrent throughput.  Results merge into ``BENCH_results.json``
under a ``"serve"`` key (thread mode) or ``"serve-processes"``
(``processes=N``) so the serving numbers live next to the pipeline
benches they explain.

Every row records its worker configuration — ``mode``
(``threads``/``processes``), ``workers``, ``processes``, and the
host's ``cpus`` — so throughput numbers are attributable: a
multi-process row can only beat the GIL ceiling when ``cpus`` gives
it cores to scale onto.

Latency rows (seconds) come from :func:`repro.bench.percentiles`, the
telemetry :class:`~repro.obs.metrics.Histogram` path the pipeline bench
uses, so the two estimate quantiles identically; each row carries its
sample ``count`` beside the p50/p90/p99, because a "p99" of three cold
samples is their maximum, not a tail.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, ServerThread


def _timed_request(client: ServeClient,
                   fields: dict[str, object]) -> float:
    t = time.perf_counter()
    response = client.request(**fields)
    elapsed = time.perf_counter() - t
    if response.get("status") != "ok":
        raise RuntimeError(f"bench request failed: {response}")
    return elapsed


def run_serve_bench(quick: bool = False,
                    out: str | Path = "BENCH_results.json",
                    processes: int = 0) -> dict[str, object]:
    """Drive an in-process server; return (and merge) the results.

    Cases are the bench corpus's sharing/chain programs.  ``cold``
    sends ``flush`` before each timed ``run`` request, so every
    request re-parses, re-checks, re-links, and re-generates code;
    ``warm`` repeats the identical request against the primed store.
    ``throughput`` hammers the warm server from 8 concurrent
    connections and reports requests/second plus the latency
    distribution under that contention.

    ``processes=N`` benches the multi-process server instead (no disk
    tier in either mode, so cold means a genuine recompute for both);
    its row merges under ``"serve-processes"`` so the two modes sit
    side by side.
    """
    from repro.bench import chain_program, percentiles, sharing_program
    from repro.lang.pretty import show

    cold_repeats = 2 if quick else 3
    warm_repeats = 8 if quick else 20
    clients = 4 if quick else 8
    per_client = 5 if quick else 15

    cases = {
        ("serve-sharing-016" if quick else "serve-sharing-032"):
            show(sharing_program(16 if quick else 32)),
        ("serve-chain-032" if quick else "serve-chain-064"):
            show(chain_program(32 if quick else 64)),
    }
    config = ServeConfig(workers=4, processes=processes,
                         queue_limit=clients * per_client,
                         default_deadline_s=120.0,
                         max_deadline_s=300.0)
    results: dict[str, object] = {}
    with ServerThread(config) as st:
        for name, source in cases.items():
            fields = {"op": "run", "source": source,
                      "backend": "pycode"}
            with ServeClient(st.host, st.port,
                             timeout_s=300.0) as client:
                cold = []
                for _ in range(cold_repeats):
                    client.request("flush")
                    cold.append(_timed_request(client, fields))
                warm = [_timed_request(client, fields)
                        for _ in range(warm_repeats)]
            case = {"cold": percentiles(cold),
                    "warm": percentiles(warm)}
            case["p50_speedup"] = round(
                case["cold"]["p50"] / max(case["warm"]["p50"], 1e-9), 1)
            results[name] = case

        # Throughput: concurrent clients over the warm store,
        # smallest case (contention, not single-request cost).
        source = next(iter(cases.values()))
        fields = {"op": "run", "source": source,
                  "backend": "pycode"}
        latencies: list[float] = []
        lock = threading.Lock()

        def worker() -> None:
            with ServeClient(st.host, st.port,
                             timeout_s=300.0) as client:
                mine = [_timed_request(client, fields)
                        for _ in range(per_client)]
            with lock:
                latencies.extend(mine)

        threads = [threading.Thread(target=worker)
                   for _ in range(clients)]
        t_wall = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t_wall
        total = clients * per_client
        mode = "processes" if processes else "threads"
        throughput = percentiles(latencies)
        throughput.update({
            "clients": clients,
            "requests": total,
            "wall_s": round(wall, 3),
            "rps": round(total / wall, 1),
            "mode": mode,
            "workers": config.pool_size,
        })

    payload = {
        "schema": "serve-bench2",
        "quick": quick,
        "mode": mode,
        "workers": config.pool_size,
        "processes": processes,
        "cpus": os.cpu_count(),
        "cases": results,
        "throughput": throughput,
    }
    out = Path(out)
    merged: dict[str, object] = {}
    if out.exists():
        try:
            merged = json.loads(out.read_text(encoding="utf-8"))
        except ValueError:
            merged = {}
    if not isinstance(merged, dict):
        merged = {}
    merged["serve-processes" if processes else "serve"] = payload
    out.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")

    def ms(row: dict[str, float], q: str) -> str:
        return f"{q} {row[q] * 1e3:.3f}ms (n={row['count']})"

    for name, case in results.items():
        print(f"{name}: cold {ms(case['cold'], 'p50')} -> warm "
              f"{ms(case['warm'], 'p50')} ({case['p50_speedup']}x); "
              f"warm {ms(case['warm'], 'p99')}")
    print(f"throughput: {throughput['rps']} req/s over "
          f"{throughput['clients']} clients "
          f"[{mode}, {config.pool_size} workers, "
          f"{os.cpu_count()} cpu(s)] "
          f"({ms(throughput, 'p50')}, {ms(throughput, 'p99')})")
    return payload

"""The benchmark trajectory: cached vs ``--no-term-cache`` pipelines.

``repro bench`` times the pipeline the link server runs — parse,
Figure 10 checking, static linking, and evaluation on the selected
backend — over parameterized workloads.  Each case's program text goes
through :func:`repro.serve.handlers.run_pipeline` as a ``link`` request
and a ``run`` request, exactly as a client of ``repro serve`` would
send them, in three configurations:

* **uncached** — the term-performance layer off (what
  ``--no-term-cache`` runs): no memoized free variables, no
  substitution short-circuits, no content caches;
* **cached (cold)** — the default configuration with *empty* caches,
  what the first invocation on a program pays;
* **cached (warm)** — the same, after a priming pass populated the
  content-addressed caches, what reruns and structurally shared
  programs pay.

Workloads:

* ``chain-N`` — N linked units, each importing its predecessor (the
  ``bench_scalability.py`` shape): all units distinct, so the win is
  the memo layer (free-variable sets, substitution short-circuits),
  not content reuse;
* ``deep-N`` — the same N units nested left-deep, every level
  re-exporting each name provided so far: Θ(N²) text N compounds
  deep, so the cost of deep nesting in the reader, checker and linker
  stays measured;
* ``sharing-N`` — N copies of one 24-definition library unit linked
  into a program (the paper's footnote-8 code-sharing scenario): a
  warm pass serves the whole flattened program from the flatten memo,
  and the ``run`` request reuses the ``link`` request's check verdict
  on the parse entry, so each pass checks the N copies once;
* ``phonebook`` — ``examples/phonebook.scm``, the paper's running
  example, as a realistic small program.

Each case reports best-of-``repeats`` wall seconds per configuration,
per-stage breakdowns (:data:`STAGES`: ``parse``, ``check``, ``link``
with its ``link.flatten``/``link.optimize`` sub-timings, and ``eval``
— for ``pycode``, codegen plus the run), per-stage
p50/p90/p99 latency with its sample count over all repeats (via
:func:`percentiles`, the telemetry
:class:`~repro.obs.metrics.Histogram` path ``repro bench --serve``
shares), and the speedups ``uncached / cached`` and ``uncached /
warm``.  Results go to ``BENCH_results.json``; a ``metrics1`` snapshot
(``--snapshot``) records the ``cache.*`` hit/miss activity and
per-kind latency histograms in the format ``repro metrics
report|diff`` read.  docs/PERFORMANCE.md explains how to read
both.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Iterable

from repro.lang import terms as _terms
from repro.lang.ast import Expr
from repro.lang.pretty import show
from repro.limits import Budget, budget_scope
from repro.linking.graph import LinkGraph
from repro.serve.handlers import MAX_DEPTH, run_pipeline
from repro.units.ast import InvokeExpr
from repro.units.cache import unit_cache_scope

STAGES = ("parse", "check", "link", "link.flatten", "link.optimize",
          "eval")


# ---------------------------------------------------------------------------
# Workload builders.  Each returns a fresh AST per call; the bench
# times the pipeline on its text.
# ---------------------------------------------------------------------------


def chain_program(n: int) -> Expr:
    """N linked units, v_k = v_{k-1} + 1, plus a driver (all distinct)."""
    graph = LinkGraph(exports=())
    graph.add_box(
        "u0",
        "(unit (import) (export v0) (define v0 (lambda () 1)) (void))")
    for k in range(1, n):
        graph.add_box(f"u{k}", f"""
            (unit (import v{k - 1}) (export v{k})
              (define v{k} (lambda () (+ (v{k - 1}) 1)))
              (void))
        """)
    graph.add_box("driver",
                  f"(unit (import v{n - 1}) (export) (v{n - 1}))")
    return InvokeExpr(graph.to_compound_expr(), ())


def deep_program(n: int) -> str:
    """The chain-N units nested left-deep, as program text.

    Level k links the nest so far with unit k and re-exports every
    name provided so far, so the text is Θ(n²) and n compounds deep.
    It is built as text: no link graph lowers to this shape.
    """
    nest = "(unit (import) (export v0) (define v0 (lambda () 1)) (void))"
    for k in range(1, n + 1):
        so_far = "".join(f" v{i}" for i in range(k))
        if k < n:
            unit, own = (f"(unit (import v{k - 1}) (export v{k}) (define "
                         f"v{k} (lambda () (+ (v{k - 1}) 1))) (void))",
                         f" v{k}")
        else:  # the last unit calls the top of the chain
            unit, own = f"(unit (import v{k - 1}) (export) (v{k - 1}))", ""
        nest = (f"(compound (import) (export{so_far}{own}) (link ({nest} "
                f"(with) (provides{so_far})) ({unit} (with v{k - 1}) "
                f"(provides{own}))))")
    return ("(invoke (compound (import) (export) (link ((unit (import) "
            f"(export) (void)) (with) (provides)) ({nest} (with) "
            "(provides)))))")


def _library_source(defns: int) -> str:
    parts = ["(define g0 (lambda (x) (+ x 1)))"]
    for i in range(1, defns):
        parts.append(f"(define g{i} (lambda (x) (g{i - 1} (+ x 1))))")
    body = "\n  ".join(parts)
    return f"(unit (import) (export)\n  {body}\n  (g{defns - 1} 0))"


def sharing_program(n: int, defns: int = 24) -> Expr:
    """N copies of one library unit linked into a program.

    Every copy is structurally identical.  Cold, each copy is still
    checked and optimized on its own: that costs less than digesting
    the copy for a per-unit memo did (docs/PERFORMANCE.md, "Cache
    tiers").
    """
    source = _library_source(defns)
    graph = LinkGraph(exports=())
    for k in range(n):
        graph.add_box(f"c{k}", source)
    graph.add_box("driver", "(unit (import) (export) 42)")
    return InvokeExpr(graph.to_compound_expr(), ())


def _phonebook_path() -> Path:
    return Path(__file__).resolve().parents[2] / "examples" / "phonebook.scm"


def phonebook_source() -> str:
    return _phonebook_path().read_text()


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


def _pipeline(program: Expr | str,
              backend: str = "pycode") -> dict[str, float]:
    """Serve ``program`` as the link server would; return stage seconds.

    The program's text goes through the shared pipeline
    (:func:`repro.serve.handlers.run_pipeline`) twice, as a ``link``
    request and as a ``run`` request on ``backend``, each under the
    depth cap of a served request's budget, so every stage timed here
    is a stage the server runs.  Stage seconds are summed over both
    requests (the second parse and check are what a client sending
    both ops pays); the link stage also reports its ``flatten``/
    ``optimize`` sub-timings as ``link.flatten``/``link.optimize``.
    """
    source = program if isinstance(program, str) else show(program)
    stages = dict.fromkeys(STAGES, 0.0)
    t0 = time.perf_counter()
    for op in ("link", "run"):
        timings: dict[str, float] = {}
        with budget_scope(Budget(max_depth=MAX_DEPTH)):
            run_pipeline({"op": op, "source": source, "origin": "<bench>",
                          "backend": backend, "lenient": True}, timings)
        for stage, seconds in timings.items():
            stages[stage] += seconds
    stages["total"] = time.perf_counter() - t0
    return stages


def _best(runs: list[dict[str, float]]) -> dict[str, float]:
    """The run with the smallest total (stages kept coherent)."""
    return min(runs, key=lambda r: r["total"])


def percentiles(samples: Iterable[float]) -> dict[str, float]:
    """``count``, p50/p90/p99 and ``max`` of ``samples`` (seconds).

    Samples go through the telemetry
    :class:`~repro.obs.metrics.Histogram`, so the bench, the serve
    load generator, and the live metrics layer estimate quantiles
    identically; the count rides along so a tail taken from a handful
    of samples reads as such.
    """
    from repro.obs.metrics import PERCENTILES, Histogram

    hist = Histogram()
    for sample in samples:
        hist.record(sample)
    out: dict[str, float] = {"count": hist.count}
    for q in PERCENTILES:
        out[f"p{int(q * 100)}"] = round(hist.percentile(q), 6)
    out["max"] = round(hist.max, 6)
    return out


def _time_case(name: str, build: Callable[[], Expr | str],
               repeats: int, backend: str) -> dict[str, object]:
    uncached_runs = []
    prev = _terms.set_caching(False)
    try:
        for _ in range(repeats):
            uncached_runs.append(_pipeline(build(), backend))
    finally:
        _terms.set_caching(prev)

    cold_runs = []
    for _ in range(repeats):
        with unit_cache_scope():
            cold_runs.append(_pipeline(build(), backend))

    warm_runs = []
    with unit_cache_scope():
        _pipeline(build(), backend)  # priming pass
        for _ in range(repeats):
            warm_runs.append(_pipeline(build(), backend))

    configs = {"uncached": uncached_runs, "cached": cold_runs,
               "warm": warm_runs}
    best = {config: _best(runs) for config, runs in configs.items()}
    uncached = best["uncached"]["total"]
    return {
        "case": name,
        "repeats": repeats,
        "uncached_s": round(uncached, 6),
        "cached_s": round(best["cached"]["total"], 6),
        "warm_s": round(best["warm"]["total"], 6),
        "speedup": round(uncached / best["cached"]["total"], 3),
        "warm_speedup": round(uncached / best["warm"]["total"], 3),
        "stages": {config: {k: round(run[k], 6) for k in STAGES}
                   for config, run in best.items()},
        # Best-of answers "how fast can it go"; the percentiles over
        # all repeats answer "how fast is it usually".
        "percentiles": {
            config: {stage: percentiles(run[stage] for run in runs)
                     for stage in STAGES + ("total",)}
            for config, runs in configs.items()},
    }


def _cache_counters(build: Callable[[], Expr | str], backend: str):
    """One primed, traced pipeline pass; returns (collector, counters).

    Untimed — its only job is recording the ``cache.*`` hit/miss
    activity a warm run produces, for the metrics snapshot.
    """
    from repro import obs

    collector = obs.Collector()
    with unit_cache_scope():
        _pipeline(build(), backend)
        with obs.collecting(collector):
            _pipeline(build(), backend)
    return collector


def run_bench(quick: bool = False, out: str = "BENCH_results.json",
              snapshot: str | None = None,
              backend: str = "pycode") -> int:
    """The ``repro bench`` driver.  Returns a process exit status.

    ``backend`` is the evaluator of every ``run`` request
    (``pycode``, the server's default, or ``interp``).
    """
    if quick:
        cases: list[tuple[str, Callable[[], Expr | str]]] = [
            ("chain-032", lambda: chain_program(32)),
            ("sharing-016", lambda: sharing_program(16)),
        ]
        repeats = 1
    else:
        cases = [
            ("chain-064", lambda: chain_program(64)),
            ("chain-128", lambda: chain_program(128)),
            ("chain-256", lambda: chain_program(256)),
            ("sharing-032", lambda: sharing_program(32)),
            ("sharing-064", lambda: sharing_program(64)),
            ("deep-128", lambda: deep_program(128)),
        ]
        repeats = 3
    if _phonebook_path().exists():
        cases.append(("phonebook", phonebook_source))

    results = []
    for name, build in cases:
        print(f"bench: {name} ({repeats} repeat(s)) ...", flush=True)
        results.append(_time_case(name, build, repeats, backend))
        r = results[-1]
        print(f"  uncached {r['uncached_s']:.3f}s   "
              f"cached {r['cached_s']:.3f}s ({r['speedup']}x)   "
              f"warm {r['warm_s']:.3f}s ({r['warm_speedup']}x)")
        warm_p = r["percentiles"]["warm"]
        print(f"  warm p50/p99 ms (n={repeats}): " + "   ".join(
            f"{stage} {warm_p[stage]['p50'] * 1e3:.2f}/"
            f"{warm_p[stage]['p99'] * 1e3:.2f}"
            for stage in ("parse", "check", "link", "eval")))

    collector = _cache_counters(
        cases[0][1] if quick else (lambda: chain_program(64)), backend)
    counters = {kind: count
                for kind, count in sorted(collector.counters.items())}

    payload = {
        "schema": "bench1",
        "quick": quick,
        "repeats": repeats,
        "backend": backend,
        "cases": results,
        "warm_counters": counters,
    }
    Path(out).write_text(json.dumps(payload, indent=2) + "\n",
                         encoding="utf-8")
    print(f"bench: results -> {out}")
    if snapshot:
        from repro import obs

        Path(snapshot).parent.mkdir(parents=True, exist_ok=True)
        obs.write_metrics(collector, snapshot)
        print(f"bench: counters snapshot -> {snapshot}")
    hits = sum(count for kind, count in counters.items()
               if kind == "cache.hit")
    if hits == 0:
        print("bench: error: warm pass recorded no cache hits",
              file=sys.stderr)
        return 1
    return 0

"""Command-line driver for the unit language.

Usage::

    python -m repro run FILE            # evaluate an untyped program
    python -m repro check FILE          # Figure 10 checks only
    python -m repro typecheck FILE      # typed program: print its type
    python -m repro run-typed FILE      # typed program: check + run
    python -m repro trace steps FILE    # small-step reduction trace
    python -m repro compile FILE        # print the Figure 12 compilation
    python -m repro demo FILE           # every pipeline stage on FILE
    python -m repro batch DIR           # run every program in DIR with
                                        # per-item budgets and isolation
    python -m repro figures [N ...]     # run figure reproductions

Trace-analysis toolkit (consumes ``--trace``/``--metrics-out`` files;
see docs/TRACING.md)::

    python -m repro trace report T.jsonl         # span tree, critical
                                                 # path, self-time ranks
    python -m repro trace flame T.jsonl          # collapsed stacks for
                                                 # flamegraph tools

``repro trace FILE`` (no tool name) still prints the reduction trace,
as ``trace steps`` does.

Metrics toolkit (consumes ``metrics1`` snapshots from
``--metrics-out``; see docs/METRICS.md)::

    python -m repro metrics report M.json ...    # merge snapshots, render
                                                 # p50/p90/p99 latency tables
    python -m repro metrics report M.json --prometheus
    python -m repro metrics diff BASE CUR        # event/histogram count
                                                 # regression gate

Programs are single expressions in the s-expression surface syntax
(see the README's grammar summary).  ``run`` prints the program's value
and anything it displayed.

Observability (any subcommand)::

    python -m repro --trace out.jsonl demo examples/phonebook.scm
    python -m repro --metrics run examples/phonebook.scm
    python -m repro --profile run examples/phonebook.scm

``--trace FILE`` records every pipeline event (reduction steps, link
edges, checks, compiles, invokes, dynamic-link loads) as JSON Lines;
``--metrics`` prints the ``metrics1`` snapshot (counters, latency
histograms, gauges) as JSON on stderr
(``--metrics-out FILE`` writes it to a file instead); ``--profile``
prints a cProfile report on stderr.  All three are off by default and
cost nothing when off.

Caching (any subcommand)::

    python -m repro --no-term-cache run examples/phonebook.scm
    python -m repro --cache-dir .repro-cache demo examples/phonebook.scm
    python -m repro bench --quick

Every invocation runs with the term-performance layer on (memoized
free variables and substitution short-circuits) and a fresh
content-addressed cache store: parsed text with its check verdict,
generated pycode modules, and the flatten memo (linking is
incremental: flattened compound subtrees are memoized on their
digests); ``cache.*`` trace events report hits.  ``--no-term-cache``
disables all of it — the escape hatch and the differential-testing
baseline.  ``--cache-dir DIR`` (or the ``REPRO_CACHE_DIR`` environment
variable) adds an on-disk tier so generated pycode modules persist
across invocations.  ``bench`` measures the difference and writes
``BENCH_results.json`` (docs/PERFORMANCE.md).

Resource governance (docs/ROBUSTNESS.md)::

    python -m repro batch progs/ --eval-steps 100000 --deadline 2.0
    python -m repro batch progs/ --out records.jsonl --retry 2

``batch`` runs every matching program in a directory, each under a
fresh budget, writing one JSON record per item; a looping or
exhausting item becomes a failure record while the rest complete.
Exit code 3 is reserved for budget exhaustion: ``demo`` exits 3 when
the machine step budget runs out, and any subcommand exits 3 when a
:class:`~repro.limits.BudgetExceeded` escapes (``batch --fail-fast``
included).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lang.errors import LangError
from repro.lang.interp import Interpreter
from repro.limits import BudgetExceeded
from repro.lang.machine import Machine
from repro.lang.parser import parse_script
from repro.lang.pretty import pretty
from repro.lang.values import to_write_string
from repro.units.check import check_program
from repro.units.compile import compile_expr


def _read(path: str) -> str:
    return Path(path).read_text()


def _libraries(args: argparse.Namespace) -> list[tuple[str, str]]:
    """The ``--load FILE`` libraries as ``(text, origin)`` pairs."""
    return [(_read(lib), lib) for lib in getattr(args, "load", None) or []]


def _load_script(args: argparse.Namespace):
    """Parse the program file, prepending any ``--load`` libraries
    (:func:`repro.serve.handlers.with_libraries`)."""
    from repro.serve.handlers import with_libraries

    return with_libraries(parse_script(_read(args.file), origin=args.file),
                          _libraries(args))


def _pipeline(args: argparse.Namespace, op: str,
              backend: str = "interp") -> tuple[str, str]:
    """Run the program file through the shared pipeline
    (:func:`repro.serve.handlers.run_pipeline`) — the same code path
    ``repro serve`` and ``repro batch`` execute."""
    from repro.serve.handlers import run_pipeline

    request = {"op": op, "source": _read(args.file), "origin": args.file,
               "backend": backend, "lenient": args.lenient,
               "libraries": _libraries(args)}
    return run_pipeline(request, {})


def cmd_run(args: argparse.Namespace) -> int:
    """Evaluate an untyped unit program."""
    value, output = _pipeline(args, "run", getattr(args, "backend", "interp"))
    if output:
        sys.stdout.write(output)
        if not output.endswith("\n"):
            sys.stdout.write("\n")
    print("=>", value)
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Run the Figure 10 context-sensitive checks."""
    print(_pipeline(args, "check")[0])
    return 0


def cmd_typecheck(args: argparse.Namespace) -> int:
    """Type-check a typed program and print its type."""
    from repro.unitc.run import typecheck

    ty = typecheck(_read(args.file), origin=args.file,
                   strict_valuable=not args.lenient)
    print(ty)
    return 0


def cmd_run_typed(args: argparse.Namespace) -> int:
    """Check and run a typed program."""
    from repro.unitc.run import run_typed

    result, ty, output = run_typed(_read(args.file), origin=args.file,
                                   strict_valuable=not args.lenient)
    if output:
        sys.stdout.write(output)
        if not output.endswith("\n"):
            sys.stdout.write("\n")
    print("=>", to_write_string(result), ":", ty)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Print a small-step reduction trace."""
    expr = _load_script(args)
    machine = Machine()
    for index, term in enumerate(machine.trace(expr, limit=args.limit)):
        print(f"[{index}]", pretty(term, width=100))
    return 0


def cmd_trace_report(args: argparse.Namespace) -> int:
    """Analyze a recorded JSONL trace: span tree, critical path,
    per-kind counts, top self-time spans, failures with locations."""
    from repro import obs

    try:
        events = obs.read_jsonl(args.trace_file)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(obs.render_report(events, top=args.top,
                            max_depth=args.max_depth))
    if args.min_spans:
        spans = obs.build_spans(events).span_count
        if spans < args.min_spans:
            print(f"error: trace has {spans} span(s), expected at least "
                  f"{args.min_spans}", file=sys.stderr)
            return 1
    return 0


def cmd_trace_flame(args: argparse.Namespace) -> int:
    """Fold a trace's span tree into collapsed-stack flamegraph input."""
    from repro import obs

    try:
        events = obs.read_jsonl(args.trace_file)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    folded = obs.render_flame(events)
    if args.output:
        Path(args.output).write_text(folded + ("\n" if folded else ""),
                                     encoding="utf-8")
        print(f"flame: {len(folded.splitlines())} stacks -> {args.output}",
              file=sys.stderr)
    elif folded:
        print(folded)
    return 0


def cmd_metrics_report(args: argparse.Namespace) -> int:
    """Merge ``metrics1`` snapshots and render percentile tables (or
    Prometheus text exposition with ``--prometheus``)."""
    from repro import obs

    try:
        snapshot = obs.merge_snapshot_files(args.files)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.prometheus:
        sys.stdout.write(obs.render_prometheus(snapshot))
    else:
        print(obs.render_metrics_report(snapshot))
    return 0


def cmd_metrics_diff(args: argparse.Namespace) -> int:
    """Diff two metrics snapshots: event counters and histogram
    observation counts gate; p50/p99 are shown for information.  Exit 1
    on regression."""
    from repro import obs

    try:
        base = obs.load_snapshot(args.base)
        cur = obs.load_snapshot(args.current)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    text, failed = obs.render_metrics_diff(
        base, cur, count_threshold=args.threshold, strict=args.strict)
    print(text)
    return 1 if failed else 0


def cmd_compile(args: argparse.Namespace) -> int:
    """Print the Figure 12 compilation of a program."""
    expr = _load_script(args)
    print(pretty(compile_expr(expr)))
    return 0


def cmd_link(args: argparse.Namespace) -> int:
    """Statically link (flatten + optimize) a program and print it."""
    from repro.units.linker import link_and_optimize

    expr = _load_script(args)
    check_program(expr, strict_valuable=not args.lenient)
    linked, stats = link_and_optimize(expr)
    print(f"; {stats}")
    print(pretty(linked))
    return 0


def cmd_repl(args: argparse.Namespace) -> int:
    """An interactive read-eval-print loop with unit support.

    Top-level ``(define x e)`` forms bind into the session's global
    environment (so units can be named and linked across inputs); any
    other form is evaluated and its value printed.
    """
    from repro.lang.parser import _parse_define, parse_expr
    from repro.lang.sexpr import SList, Symbol, read_sexpr
    from repro.lang.errors import LangError

    interp = Interpreter()
    print("units repl — (define x e) persists; ctrl-d exits")
    while True:
        try:
            line = input("units> ")
        except EOFError:
            print()
            return 0
        if not line.strip():
            continue
        try:
            datum = read_sexpr(line, origin="<repl>")
            if isinstance(datum, SList) and len(datum) > 0 \
                    and isinstance(datum[0], Symbol) \
                    and datum[0].name == "define":
                name, rhs = _parse_define(datum)
                interp.global_env.define(name, interp.eval(rhs))
                print(f"defined {name}")
                continue
            value = interp.eval(parse_expr(datum))
            flushed = interp.port.getvalue()
            if flushed:
                sys.stdout.write(flushed)
                interp.port.chunks.clear()
                if not flushed.endswith("\n"):
                    sys.stdout.write("\n")
            print("=>", to_write_string(value))
        except LangError as err:
            print(f"error: {err}")


def cmd_demo(args: argparse.Namespace) -> int:
    """Run every pipeline stage on one untyped program.

    The point of this subcommand is observability: one invocation
    exercises checking, static linking, compilation, archive retrieval
    (dynamic linking), the small-step machine, and the big-step
    interpreter, so a ``--trace`` of it shows events from every family.
    The interpreter and machine results are compared at the end.
    """
    from repro.units.linker import link_and_optimize
    from repro.units.ast import UnitExpr
    from repro.dynlink.archive import UnitArchive

    expr = _load_script(args)
    check_program(expr, strict_valuable=not args.lenient)
    print("check: ok")

    linked, stats = link_and_optimize(expr)
    print(f"link: {stats}")

    # Re-check the linked program (lenient mode, as the archive's
    # retrieval check below runs): linking must preserve
    # well-formedness.
    check_program(linked, strict_valuable=False)
    print("recheck: linked program ok")

    compiled = compile_expr(expr)
    print(f"compile: {type(compiled).__name__}")

    # Round-trip the statically linked unit through the archive so the
    # dynamic-linking layer runs too (Figure 7's retrieval checks).
    from repro.units.ast import InvokeExpr

    unit = linked.expr if isinstance(linked, InvokeExpr) else linked
    if isinstance(unit, UnitExpr):
        archive = UnitArchive()
        archive.put_unit("demo", unit)
        # Retrieve twice, as two importers would: the second parse is
        # a parse-cache hit, and its Figure 7 checks still run.
        for _importer in range(2):
            retrieved = archive.retrieve_untyped(
                "demo", unit.imports, unit.exports)
        print(f"dynlink: retrieved 'demo' twice "
              f"({len(retrieved.exports)} exports)")
    else:
        print("dynlink: skipped (program is not a unit after linking)")

    from repro.lang.ast import Lit

    from repro.obs import span as _obs_span

    machine = Machine(max_steps=args.limit)
    state = machine.load(expr)
    steps = 0
    # demo drives machine.step() by hand, so the run()/trace() span
    # never fires here; open the reduce.machine span ourselves.
    with _obs_span("reduce.machine", {"driver": "demo"}):
        for _ in range(args.limit):
            if not machine.step(state):
                break
            steps += 1
        else:
            # Exit code 3 is the budget-exhaustion code (see main()):
            # distinguishable from a language error (1) in scripts.
            print("error: machine step budget exhausted", file=sys.stderr)
            return 3
    print(f"machine: {steps} steps")

    interp = Interpreter()
    result = interp.eval(expr)
    output = interp.port.getvalue()
    if output:
        sys.stdout.write(output)
        if not output.endswith("\n"):
            sys.stdout.write("\n")
    print("=>", to_write_string(result))

    final = state.control
    if not (isinstance(final, Lit)
            and to_write_string(final.value) == to_write_string(result)):
        print("error: interpreter and machine disagree", file=sys.stderr)
        return 1

    if getattr(args, "backend", "interp") == "pycode":
        # One more evaluator: compile the linked program to Python
        # closures and hold it to the interpreter's result.  A second
        # demo run with the same --cache-dir serves the code object
        # from the pycode disk tier (the check.sh smoke asserts this).
        from repro import backend as _backend

        program = _backend.compile_program(linked)
        py_result, py_output = program.run()
        print(f"pycode: {to_write_string(py_result)}")
        if (to_write_string(py_result) != to_write_string(result)
                or py_output != output):
            print("error: interpreter and pycode backend disagree",
                  file=sys.stderr)
            return 1
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    """Run every program in a directory with per-item isolation.

    Each item runs under a fresh budget built from the ``--*`` caps;
    one record per item is written as JSON Lines (``--out FILE``, or
    stdout).  The batch completing is success (exit 0) even when items
    failed — the records carry the failures; ``--fail-fast`` instead
    stops at the first failure and exits nonzero (3 when the failure
    was budget exhaustion, 1 otherwise).
    """
    from repro import batch as _batch
    from repro import limits as _limits
    from repro import obs

    root = Path(args.directory)
    if not root.is_dir():
        print(f"error: not a directory: {root}", file=sys.stderr)
        return 2
    paths = sorted(root.glob(args.pattern))
    if not paths:
        print(f"error: no files match {args.pattern!r} in {root}",
              file=sys.stderr)
        return 2

    def make_budget() -> _limits.Budget:
        return _limits.Budget(
            eval_steps=args.eval_steps,
            machine_steps=args.machine_steps,
            subst_nodes=args.subst_nodes,
            expand_fuel=args.expand_fuel,
            max_depth=args.max_depth,
            deadline_s=args.deadline,
        )

    # Each item runs in its own collector scope, flushed into one
    # registry; with --trace/--metrics active the registry adopts the
    # items' span trees into the CLI collector so the written trace is
    # a single coherent forest.
    registry = obs.MetricsRegistry(parent=obs.current())
    records, failures = _batch.run_batch(
        paths, make_budget, lenient=args.lenient, retries=args.retry,
        fail_fast=args.fail_fast, registry=registry,
        backend=args.backend)
    if args.out:
        written = _batch.write_records(records, args.out)
        print(f"batch: {written} record(s) -> {args.out}",
              file=sys.stderr)
    else:
        import json as _json

        for record in records:
            print(_json.dumps(record, sort_keys=True))
    ok = len(records) - failures
    print(f"batch: {ok} ok, {failures} failed, {len(records)} total",
          file=sys.stderr)
    snapshot = registry.snapshot()
    stage_hists = {name: obs.Histogram.from_json(hist)
                   for name, hist in snapshot["histograms"].items()
                   if name.startswith("stage.")}
    for line in obs.render_percentiles(stage_hists,
                                       title="stage latency (ms)"):
        print(line, file=sys.stderr)
    if args.metrics_snapshot:
        import json as _json

        Path(args.metrics_snapshot).write_text(
            _json.dumps(snapshot, indent=2, sort_keys=True)
            + "\n", encoding="utf-8")
        print(f"metrics: snapshot -> {args.metrics_snapshot}",
              file=sys.stderr)
    if args.fail_fast and failures:
        failed = next(r for r in records if r["status"] == "error")
        error = failed["error"]
        print(f"error: {failed['file']}: {error['message']}",
              file=sys.stderr)
        return 3 if error["type"] == "BudgetExceeded" else 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Benchmark the pipeline cached vs uncached; write the results."""
    if getattr(args, "serve", False):
        from repro.serve.loadgen import run_serve_bench

        run_serve_bench(quick=args.quick, out=args.out,
                        processes=args.processes)
        return 0
    from repro.bench import run_bench

    return run_bench(quick=args.quick, out=args.out,
                     snapshot=args.snapshot, backend=args.backend)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the link-server daemon (or the chaos sweep)."""
    import os

    if args.chaos:
        from repro.serve.chaos import run_chaos_sweep

        run_chaos_sweep()
        return 0
    from repro.serve.server import ServeConfig, run_server

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_limit=args.queue_limit, processes=args.processes,
        default_deadline_s=args.deadline,
        max_deadline_s=args.max_deadline,
        cache_dir=args.cache_dir or os.environ.get("REPRO_CACHE_DIR"),
        allow_chaos=args.allow_chaos,
        port_file=args.port_file)
    return run_server(config)


def cmd_client(args: argparse.Namespace) -> int:
    """Send one request to a running link server; print the response."""
    import json

    from repro.serve.client import (ServeClient, ServeError,
                                    exit_code_for, read_port_file)

    port = args.port
    if port is None:
        if not args.port_file:
            print("client: need --port or --port-file", file=sys.stderr)
            return 2
        try:
            port = read_port_file(args.port_file)
        except ServeError as err:
            # Transport failures are retryable (exit 2), not a bug.
            print(f"error: {err}", file=sys.stderr)
            return 2
    fields: dict[str, object] = {}
    if args.op in ("check", "link", "run"):
        if args.file:
            source = Path(args.file).read_text()
            fields["origin"] = args.file
        else:
            source = sys.stdin.read()
            fields["origin"] = "<stdin>"
        fields["source"] = source
        fields["backend"] = args.backend
        if args.lenient:
            fields["lenient"] = True
        if args.archive:
            fields["archive"] = True
        if args.retries:
            fields["retries"] = args.retries
        if args.eval_steps is not None:
            fields["eval_steps"] = args.eval_steps
        if args.chaos:
            fields["chaos"] = args.chaos.split(",")
        if args.chaos_slow is not None:
            fields["chaos_slow_s"] = args.chaos_slow
    if args.deadline is not None:
        fields["deadline_s"] = args.deadline
    try:
        with ServeClient(args.host, port,
                         timeout_s=args.timeout) as client:
            response = client.request(args.op, **fields)
    except ServeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    text = json.dumps(response, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return exit_code_for(response)


def cmd_figures(args: argparse.Namespace) -> int:
    """Run figure reproductions and print their reports."""
    from repro.figures import FIGURES, get_figure

    figures = ([get_figure(n) for n in args.numbers]
               if args.numbers else list(FIGURES))
    for figure in figures:
        print(f"=== Figure {figure.number}: {figure.title} ===")
        print(figure.run())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Units: Cool Modules for HOT Languages — reproduction")
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write pipeline events as JSON Lines to FILE")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics1 snapshot (counters, "
                             "histograms, gauges) as JSON on stderr")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the metrics JSON to FILE")
    parser.add_argument("--profile", action="store_true",
                        help="print a cProfile report on stderr")
    parser.add_argument("--no-term-cache", action="store_true",
                        help="disable term memoization and the "
                             "content-addressed caches")
    parser.add_argument("--cache-dir", metavar="DIR", default=None,
                        help="persist generated pycode modules under DIR "
                             "across invocations (default: "
                             "$REPRO_CACHE_DIR)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, with_file=True):
        p = sub.add_parser(name, help=help_text)
        if with_file:
            p.add_argument("file", help="program file")
            p.add_argument("--lenient", action="store_true",
                           help="skip the Harper-Stone valuability check")
            p.add_argument("--load", action="append", metavar="LIB",
                           help="prepend a library file's top-level "
                                "definitions (repeatable)")
        p.set_defaults(fn=fn)
        return p

    run_p = add("run", cmd_run, "evaluate an untyped unit program")
    run_p.add_argument("--backend", choices=("interp", "machine", "pycode"),
                       default="interp",
                       help="evaluator: the environment interpreter, the "
                            "small-step machine, or the Python-closure "
                            "codegen backend (docs/PERFORMANCE.md)")
    add("check", cmd_check, "run the Figure 10 checks")
    add("typecheck", cmd_typecheck, "type-check a typed program")
    add("run-typed", cmd_run_typed, "check and run a typed program")

    trace = sub.add_parser(
        "trace", help="reduction traces and the trace-analysis toolkit")
    tsub = trace.add_subparsers(dest="trace_tool", required=True)
    steps = tsub.add_parser("steps", help="print a reduction trace")
    steps.add_argument("file", help="program file")
    steps.add_argument("--lenient", action="store_true",
                       help="skip the Harper-Stone valuability check")
    steps.add_argument("--load", action="append", metavar="LIB",
                       help="prepend a library file's top-level "
                            "definitions (repeatable)")
    steps.add_argument("--limit", type=int, default=500,
                       help="maximum reduction steps to show")
    steps.set_defaults(fn=cmd_trace)
    report = tsub.add_parser(
        "report", help="span tree, critical path, and count report "
                       "for a recorded trace")
    report.add_argument("trace_file", help="JSONL trace (from --trace)")
    report.add_argument("--top", type=int, default=10,
                        help="how many spans to rank by self time")
    report.add_argument("--max-depth", type=int, default=None,
                        help="truncate the span tree at this depth")
    report.add_argument("--min-spans", type=int, default=0,
                        help="fail unless the trace holds at least this "
                             "many spans (CI smoke gate)")
    report.set_defaults(fn=cmd_trace_report)
    flame = tsub.add_parser(
        "flame", help="collapsed stacks (flamegraph.pl/speedscope input) "
                      "from a recorded trace")
    flame.add_argument("trace_file", help="JSONL trace (from --trace)")
    flame.add_argument("-o", "--output", default=None,
                       help="write stacks to a file instead of stdout")
    flame.set_defaults(fn=cmd_trace_flame)

    add("compile", cmd_compile, "print the Figure 12 compilation")
    add("link", cmd_link, "statically link (flatten + optimize)")
    demo = add("demo", cmd_demo,
               "run every pipeline stage (check, link, compile, "
               "archive, machine, interpreter) on one program")
    demo.add_argument("--limit", type=int, default=1_000_000,
                      help="maximum machine reduction steps")
    demo.add_argument("--backend", choices=("interp", "pycode"),
                      default="interp",
                      help="with pycode, also run the Python-closure "
                           "backend and hold it to the interpreter's "
                           "result")
    batch = sub.add_parser(
        "batch", help="run every program in a directory, each under a "
                      "fresh resource budget (docs/ROBUSTNESS.md)")
    batch.add_argument("directory", help="directory of program files")
    batch.add_argument("--pattern", default="*.scm",
                       help="glob for program files (default: *.scm)")
    batch.add_argument("--out", metavar="FILE", default=None,
                       help="write records as JSON Lines to FILE "
                            "(default: stdout)")
    batch.add_argument("--lenient", action="store_true",
                       help="skip the Harper-Stone valuability check")
    batch.add_argument("--eval-steps", type=int, default=1_000_000,
                       help="per-item interpreter step cap")
    batch.add_argument("--machine-steps", type=int, default=1_000_000,
                       help="per-item machine reduction cap")
    batch.add_argument("--subst-nodes", type=int, default=None,
                       help="per-item substitution node cap")
    batch.add_argument("--expand-fuel", type=int, default=None,
                       help="per-item type-expansion unfolding cap")
    batch.add_argument("--max-depth", type=int, default=10_000,
                       help="per-item nesting/recursion depth cap")
    batch.add_argument("--deadline", type=float, default=None,
                       help="per-item wall-clock deadline in seconds")
    batch.add_argument("--retry", type=int, default=0,
                       help="extra attempts (with backoff) for archive "
                            "retrieval failures")
    batch.add_argument("--fail-fast", action="store_true",
                       help="stop at the first failing item and exit "
                            "nonzero instead of recording it")
    batch.add_argument("--metrics-snapshot", metavar="FILE", default=None,
                       help="write the batch's merged metrics1 snapshot "
                            "(stage latency histograms) to FILE")
    batch.add_argument("--backend", choices=("interp", "machine", "pycode"),
                       default="interp",
                       help="evaluator for the eval stage of every item")
    batch.set_defaults(fn=cmd_batch)
    metrics = sub.add_parser(
        "metrics", help="merge, report, and gate metrics1 snapshots "
                        "(docs/METRICS.md)")
    msub = metrics.add_subparsers(dest="metrics_tool", required=True)
    mreport = msub.add_parser(
        "report", help="merge snapshots and render p50/p90/p99 latency "
                       "tables (or Prometheus exposition)")
    mreport.add_argument("files", nargs="+",
                         help="metrics1 JSON files (from --metrics-out, "
                              "batch --metrics-snapshot, bench --snapshot)")
    mreport.add_argument("--prometheus", action="store_true",
                         help="emit Prometheus text exposition instead "
                              "of tables")
    mreport.set_defaults(fn=cmd_metrics_report)
    mdiff = msub.add_parser(
        "diff", help="event and histogram count regression gate between "
                     "two snapshots (p50/p99 shown, not gated); nonzero "
                     "exit on regression")
    mdiff.add_argument("base", help="baseline metrics1 JSON")
    mdiff.add_argument("current", help="current metrics1 JSON")
    mdiff.add_argument("--threshold", type=float, default=0.10,
                       help="relative growth tolerated per histogram "
                            "count (0.10 = 10%%)")
    mdiff.add_argument("--strict", action="store_true",
                       help="also fail when histograms appear or vanish")
    mdiff.set_defaults(fn=cmd_metrics_diff)
    bench = sub.add_parser(
        "bench", help="time the pipeline cached vs --no-term-cache and "
                      "write BENCH_results.json")
    bench.add_argument("--quick", action="store_true",
                       help="small sizes, one repeat (CI smoke)")
    bench.add_argument("--out", metavar="FILE",
                       default="BENCH_results.json",
                       help="where to write the results JSON")
    bench.add_argument("--snapshot", metavar="FILE", default=None,
                       help="also write a counters snapshot (with "
                            "cache.* activity) usable by 'metrics diff'")
    bench.add_argument("--backend", choices=("interp", "pycode"),
                       default="pycode",
                       help="evaluator of the benched run requests "
                            "(default: pycode, as the server)")
    bench.add_argument("--serve", action="store_true",
                       help="load-test an in-process link server instead: "
                            "cold/warm request latency (p50/p99) and "
                            "concurrent throughput into the results file "
                            "under 'serve' (docs/SERVING.md)")
    bench.add_argument("--processes", type=int, default=0,
                       help="with --serve: bench a server running N "
                            "worker processes; the row merges under "
                            "'serve-processes' next to the thread row")
    bench.set_defaults(fn=cmd_bench)
    serve = sub.add_parser(
        "serve", help="run the link-server daemon: compile/check/link/run "
                      "requests over newline-delimited JSON "
                      "(docs/SERVING.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="port (default 0: ephemeral, announced on "
                            "stdout)")
    serve.add_argument("--port-file", metavar="FILE", default=None,
                       help="also write the bound port to FILE (for "
                            "scripts)")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker threads executing requests")
    serve.add_argument("--processes", type=int, default=0,
                       help="execute requests in N spawned worker "
                            "processes instead of threads (scales past "
                            "the GIL on multi-core hosts; warm state "
                            "shared via the disk cache tier; "
                            "docs/SERVING.md)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="requests allowed to wait beyond the workers; "
                            "past that, fast 'overloaded' responses")
    serve.add_argument("--deadline", type=float, default=10.0,
                       help="default per-request wall-clock deadline "
                            "(seconds)")
    serve.add_argument("--max-deadline", type=float, default=60.0,
                       help="ceiling on request-supplied deadlines")
    serve.add_argument("--allow-chaos", action="store_true",
                       help="honor request-carried fault injection "
                            "(tests/CI only)")
    serve.add_argument("--chaos", action="store_true",
                       help="run the fault-injection sweep instead of "
                            "serving: every fault races healthy requests "
                            "on an in-process server, with differential "
                            "and store-isolation asserts")
    serve.set_defaults(fn=cmd_serve)
    client = sub.add_parser(
        "client", help="send one request to a running link server")
    client.add_argument("op", choices=("ping", "metrics", "stats",
                                       "flush", "check",
                                       "link", "run"),
                        help="request op")
    client.add_argument("file", nargs="?", default=None,
                        help="program file (check/link/run; stdin when "
                             "omitted)")
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, default=None)
    client.add_argument("--port-file", metavar="FILE", default=None,
                        help="read the port a 'repro serve --port-file' "
                             "daemon announced")
    client.add_argument("--backend",
                        choices=("interp", "machine", "pycode"),
                        default="pycode")
    client.add_argument("--lenient", action="store_true")
    client.add_argument("--archive", action="store_true",
                        help="round-trip the program's unit through the "
                             "dynlink archive before evaluating")
    client.add_argument("--retries", type=int, default=0,
                        help="archive retry attempts")
    client.add_argument("--deadline", type=float, default=None,
                        help="per-request wall-clock deadline (seconds)")
    client.add_argument("--eval-steps", type=int, default=None,
                        help="per-request eval step cap")
    client.add_argument("--chaos", default=None,
                        help="comma-separated fault names to inject "
                             "(server must allow chaos)")
    client.add_argument("--chaos-slow", type=float, default=None,
                        help="slow-load stall seconds")
    client.add_argument("--timeout", type=float, default=60.0,
                        help="socket timeout (seconds)")
    client.add_argument("--out", metavar="FILE", default=None,
                        help="also write the response JSON to FILE")
    client.set_defaults(fn=cmd_client)
    repl = sub.add_parser("repl", help="interactive session")
    repl.set_defaults(fn=cmd_repl)
    figures = sub.add_parser("figures", help="run figure reproductions")
    figures.add_argument("numbers", nargs="*", type=int,
                         help="figure numbers (default: all)")
    figures.set_defaults(fn=cmd_figures)
    return parser


def _run_observed(args: argparse.Namespace) -> int:
    """Run the selected subcommand under an observability collector."""
    from repro import obs

    collector = obs.Collector()
    profiler = obs.ProfileSession() if args.profile else None
    try:
        with obs.collecting(collector):
            if profiler is not None:
                profiler.profile.enable()
            try:
                status = args.fn(args)
            finally:
                if profiler is not None:
                    profiler.profile.disable()
    finally:
        # Flush trace/metrics even when the command failed: the events
        # leading up to a failure are the interesting ones.
        if args.trace:
            trace_events = list(collector.events)
            if collector.dropped_kinds:
                # Truncation trailer: one metric.dropped event per
                # dropped kind, so a reloaded report can say what the
                # max_events bound cut (not just how much).
                tail_t = trace_events[-1].t if trace_events else 0.0
                for offset, kind in enumerate(
                        sorted(collector.dropped_kinds)):
                    trace_events.append(obs.TraceEvent(
                        "metric.dropped", collector._seq + offset, tail_t,
                        {"of": kind,
                         "count": collector.dropped_kinds[kind]}))
            written = obs.write_jsonl(trace_events, args.trace)
            print(f"trace: {written} events -> {args.trace}",
                  file=sys.stderr)
        if args.metrics_out:
            obs.write_metrics(collector, args.metrics_out)
        if args.metrics:
            import json as _json

            print(_json.dumps(collector.metrics(), indent=2),
                  file=sys.stderr)
        if profiler is not None:
            print(profiler.report(), file=sys.stderr)
    return status


_TRACE_TOOLS = ("steps", "report", "flame")
_VALUE_FLAGS = ("--trace", "--metrics-out", "--cache-dir")


def _normalize_argv(argv: list[str]) -> list[str]:
    """Back-compat shim: ``repro trace FILE`` means ``trace steps FILE``.

    The ``trace`` subcommand grew tools (``report``/``flame``);
    a bare ``trace FILE`` still has to print the reduction trace, so
    when the token after ``trace`` is not a tool name we insert
    ``steps``.  Global flags before the subcommand are skipped
    (value-taking ones consume their argument unless spelled
    ``--flag=value``).
    """
    out = list(argv)
    i = 0
    while i < len(out):
        tok = out[i]
        if tok in _VALUE_FLAGS:
            i += 2
            continue
        if tok.startswith("-"):
            i += 1
            continue
        if tok == "trace":
            nxt = out[i + 1] if i + 1 < len(out) else None
            if nxt is not None and nxt not in _TRACE_TOOLS \
                    and nxt not in ("-h", "--help"):
                out.insert(i + 1, "steps")
        break
    return out


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    import os
    from contextlib import ExitStack

    from repro.lang import terms as _terms
    from repro.units.cache import unit_cache_scope

    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_normalize_argv(argv))
    observed = (args.trace or args.metrics or args.metrics_out
                or args.profile)
    try:
        with ExitStack() as stack:
            if args.no_term_cache:
                prev = _terms.set_caching(False)
                stack.callback(_terms.set_caching, prev)
            else:
                # One invocation = one fresh cache scope: in-process
                # callers of main() (tests, scripting) never see one
                # another's cache state.
                cache_dir = (args.cache_dir
                             or os.environ.get("REPRO_CACHE_DIR") or None)
                stack.enter_context(unit_cache_scope(cache_dir))
            if observed:
                return _run_observed(args)
            return args.fn(args)
    except BudgetExceeded as err:
        # Before LangError: BudgetExceeded is a LangError, but resource
        # exhaustion gets its own exit code so callers can tell "the
        # program is wrong" (1) from "the program ran out" (3).
        print(f"error: {err}", file=sys.stderr)
        return 3
    except LangError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

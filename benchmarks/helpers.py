"""Shared generators for the benchmark harness.

These build parameterized workloads — units with many definitions,
chains of linked units, signatures with many declarations, equation
chains — so each figure's bench can sweep a size axis and report the
scaling *shape* (the paper makes qualitative claims; shapes, not
absolute numbers, are what reproduction means here).
"""

from __future__ import annotations

from pathlib import Path

from repro.lang.parser import parse_program
from repro.linking.graph import LinkGraph
from repro.obs import Collector, write_metrics
from repro.types.types import Arrow, INT, Sig
from repro.units.ast import UnitExpr

METRICS_DIR = Path(__file__).resolve().parent / ".metrics"


def write_bench_metrics(collector: Collector, nodeid: str) -> Path:
    """Write one bench's counter/timer snapshot under ``.metrics/``.

    The file name is the pytest node id with path separators and
    brackets flattened, so every parameterized case gets its own JSON.
    """
    safe = "".join(c if c.isalnum() or c in "._-" else "_"
                   for c in nodeid)
    METRICS_DIR.mkdir(exist_ok=True)
    path = METRICS_DIR / f"{safe}.json"
    write_metrics(collector, path)
    return path


def unit_with_defns(n: int) -> str:
    """Source of a unit with ``n`` chained function definitions."""
    defns = ["(define f0 (lambda (x) (+ x 1)))"]
    for i in range(1, n):
        defns.append(f"(define f{i} (lambda (x) (f{i - 1} (+ x 1))))")
    body = "\n  ".join(defns)
    return f"""
        (unit (import) (export f{n - 1})
          {body}
          (f{n - 1} 0))
    """


def typed_unit_with_defns(n: int) -> str:
    """Typed variant of :func:`unit_with_defns`."""
    defns = ["(define f0 (-> int int) (lambda ((x int)) (+ x 1)))"]
    for i in range(1, n):
        defns.append(
            f"(define f{i} (-> int int) "
            f"(lambda ((x int)) (f{i - 1} (+ x 1))))")
    body = "\n  ".join(defns)
    return f"""
        (unit/t (import) (export (val f{n - 1} (-> int int)))
          {body}
          (f{n - 1} 0))
    """


def chain_graph(n: int) -> LinkGraph:
    """A linear chain of ``n`` linked units: v_k = v_{{k-1}} + 1."""
    graph = LinkGraph(exports=(f"v{n - 1}",))
    graph.add_box("u0", "(unit (import) (export v0) (define v0 (lambda () 1)) (void))")
    for k in range(1, n):
        graph.add_box(f"u{k}", f"""
            (unit (import v{k - 1}) (export v{k})
              (define v{k} (lambda () (+ (v{k - 1}) 1)))
              (void))
        """)
    return graph


def wide_sig(n: int, extra_exports: int = 0) -> Sig:
    """A signature with ``n`` value imports and ``n+extra`` exports."""
    f = Arrow((INT,), INT)
    return Sig(
        (), tuple((f"i{k}", f) for k in range(n)),
        (), tuple((f"e{k}", f) for k in range(n + extra_exports)),
        INT)


def equation_chain(n: int) -> dict:
    """Equations t0 = int -> int, t_k = t_{k-1} -> t_{k-1}."""
    from repro.types.parser import parse_type_text

    eqs = {"t0": parse_type_text("(-> int int)")}
    for k in range(1, n):
        eqs[f"t{k}"] = parse_type_text(f"(-> t{k - 1} t{k - 1})")
    return eqs


def big_unit_expr(n: int) -> UnitExpr:
    """Parsed form of :func:`unit_with_defns`."""
    expr = parse_program(unit_with_defns(n))
    assert isinstance(expr, UnitExpr)
    return expr

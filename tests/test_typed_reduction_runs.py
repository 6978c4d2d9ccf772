"""Typed reduction agrees with direct invocation (Sections 4.2.2/4.3.2)."""

import pytest

from repro.unitc.ast import TLit, TypedInvokeExpr, TypedUnitExpr
from repro.unitc.parser import parse_typed_program
from repro.unitc.reduce import (
    erase_typed_block,
    merge_typed_compound,
    reduce_typed_invoke,
    run_typed_block,
)
from repro.unitc.run import run_typed_expr

CASES = [
    # (unit source, tlinks, vlinks, expected)
    ("""(unit/t (import) (export)
          (define f (-> int int) (lambda ((x int)) (* x x)))
          (f 9))""",
     {}, {}, 81),
    ("""(unit/t (import (val n int)) (export)
          (define double (-> int) (lambda () (* n 2)))
          (double))""",
     {}, {"n": TLit(21)}, 42),
    ("""(unit/t (import (type t) (val v t) (val show (-> t str)))
                (export)
          (show v))""",
     {"t": "int"}, {"v": TLit(7), "show": None}, "7"),
    ("""(unit/t (import) (export)
          (datatype opt (some un-some int) (none un-none void) some?)
          (define get (-> opt int int)
            (lambda ((o opt) (dflt int))
              (if (some? o) (un-some o) dflt)))
          (+ (get (some 40) 0) (get (none (void)) 2)))""",
     {}, {}, 42),
    ("""(unit/t (import) (export)
          (type pairish (* int int))
          (define swap (-> pairish pairish)
            (lambda ((p pairish)) (tuple (proj 1 p) (proj 0 p))))
          (proj 0 (swap (tuple 1 2))))""",
     {}, {}, 2),
]


def _parse_types(tlinks: dict):
    from repro.types.parser import parse_type_text

    return {name: parse_type_text(text) for name, text in tlinks.items()}


def _fill_vlinks(vlinks: dict):
    out = {}
    for name, value in vlinks.items():
        if value is None and name == "show":
            out[name] = parse_typed_program(
                "(lambda ((x int)) (number->string x))")
        else:
            out[name] = value
    return out


@pytest.mark.parametrize("source,tlinks,vlinks,expected", CASES)
def test_reduction_agrees_with_invocation(source, tlinks, vlinks, expected):
    unit = parse_typed_program(source)
    assert isinstance(unit, TypedUnitExpr)
    real_tlinks = _parse_types(tlinks)
    real_vlinks = _fill_vlinks(vlinks)

    # Path 1: direct typed invocation (check + erase + run).
    invoke = TypedInvokeExpr(
        unit, tuple(real_tlinks.items()), tuple(real_vlinks.items()))
    direct, _, _ = run_typed_expr(invoke)

    # Path 2: the typed reduction of Figure 11 lifted to UNITc/UNITe,
    # then evaluation of the resulting block.
    block = reduce_typed_invoke(unit, real_tlinks, real_vlinks)
    reduced = run_typed_block(block)

    assert direct == reduced == expected


def test_reduction_after_merge_agrees():
    compound = parse_typed_program("""
        (compound/t (import) (export)
          (link ((unit/t (import (val helper (-> int int))) (export
                           (val main (-> int)))
                   (define main (-> int) (lambda () (helper 20)))
                   (void))
                 (with (val helper (-> int int)))
                 (provides (val main (-> int))))
                ((unit/t (import (val main (-> int)))
                         (export (val helper (-> int int)))
                   (define helper (-> int int)
                     (lambda ((x int)) (+ (* 2 x) 2)))
                   (main))
                 (with (val main (-> int)))
                 (provides (val helper (-> int int))))))
    """)
    direct, _, _ = run_typed_expr(TypedInvokeExpr(compound, (), ()))

    merged = merge_typed_compound(
        compound, compound.first.expr, compound.second.expr)
    block = reduce_typed_invoke(merged, {}, {})
    assert run_typed_block(block) == direct == 42


def test_block_erasure_has_no_unit_forms():
    from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr

    unit = parse_typed_program("""
        (unit/t (import) (export)
          (datatype t (a ua int) (b ub str) a?)
          (define v t (a 1))
          (ua v))
    """)
    block = reduce_typed_invoke(unit, {}, {})
    erased = erase_typed_block(block)

    def walk(expr):
        from repro.lang.subst import children

        assert not isinstance(expr, (UnitExpr, CompoundExpr, InvokeExpr))
        try:
            kids = children(expr)
        except TypeError:
            return
        for kid in kids:
            walk(kid)

    walk(erased)
    assert run_typed_block(block) == 1

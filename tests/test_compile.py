"""Tests for the Figure 12 compilation of units to cell-passing functions."""

import pytest

from repro.lang.ast import App, Expr, Lambda, Lit, Var
from repro.lang.errors import RunTimeError
from repro.lang.interp import Interpreter, run_program
from repro.lang.parser import parse_program
from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr
from repro.units.compile import compile_expr, compile_unit


def contains_unit_forms(expr: Expr) -> bool:
    from repro.lang.subst import children

    if isinstance(expr, (UnitExpr, CompoundExpr, InvokeExpr)):
        return True
    try:
        kids = children(expr)
    except TypeError:
        return False
    return any(contains_unit_forms(k) for k in kids)


def run_compiled(text: str):
    expr = compile_expr(parse_program(text))
    assert not contains_unit_forms(expr), "compilation must remove unit forms"
    interp = Interpreter()
    return interp.eval(expr), interp.port.getvalue()


class TestCompileUnit:
    def test_compiled_unit_is_a_lambda(self):
        unit = parse_program("(unit (import a) (export b) (define b 1) b)")
        compiled = compile_unit(unit)
        assert isinstance(compiled, Lambda)
        assert len(compiled.params) == 2  # import table, export table

    def test_figure_12_even_odd(self):
        # The unit of Figure 12: imports even, exports odd, applies odd
        # to 19 at initialization.
        result, _ = run_compiled("""
            (invoke
              (unit (import even?) (export odd?)
                (define odd? (lambda (n)
                  (if (zero? n) #f (even? (- n 1)))))
                (odd? 19))
              (even? (lambda (n) (if (zero? n) #t
                                     (if (= n 1) #f
                                         (zero? (modulo n 2)))))))
        """)
        assert result is True

    def test_invoke_simple(self):
        result, _ = run_compiled("(invoke (unit (import) (export) 42))")
        assert result == 42

    def test_imports_via_cells(self):
        result, _ = run_compiled(
            "(invoke (unit (import n) (export) (* n n)) (n 6))")
        assert result == 36

    def test_hidden_definitions_stay_local(self):
        result, _ = run_compiled("""
            (invoke (unit (import) (export pub)
              (define hidden (lambda () 21))
              (define pub (lambda () (* 2 (hidden))))
              (pub)))
        """)
        assert result == 42

    def test_missing_import_is_runtime_error(self):
        with pytest.raises(RunTimeError):
            run_compiled("(invoke (unit (import n) (export) n))")


class TestCompileCompound:
    def test_linked_compound(self):
        result, _ = run_compiled("""
            (invoke
              (compound (import) (export)
                (link ((unit (import) (export x) (define x 4) (void))
                       (with) (provides x))
                      ((unit (import x) (export) (* x x))
                       (with x) (provides)))))
        """)
        assert result == 16

    def test_mutual_recursion_across_compiled_units(self):
        result, _ = run_compiled("""
            (invoke
              (compound (import) (export)
                (link ((unit (import odd?) (export even?)
                         (define even? (lambda (n)
                           (if (zero? n) #t (odd? (- n 1)))))
                         (void))
                       (with odd?) (provides even?))
                      ((unit (import even?) (export odd?)
                         (define odd? (lambda (n)
                           (if (zero? n) #f (even? (- n 1)))))
                         (odd? 19))
                       (with even?) (provides odd?)))))
        """)
        assert result is True

    def test_import_passthrough(self):
        result, _ = run_compiled("""
            (invoke
              (compound (import base) (export)
                (link ((unit (import base) (export mid)
                         (define mid (lambda () (* base 2))) (void))
                       (with base) (provides mid))
                      ((unit (import mid) (export) (+ (mid) 1))
                       (with mid) (provides))))
              (base 20))
        """)
        assert result == 41

    def test_hidden_provides_get_private_cells(self):
        # First unit exports both pub and priv; compound only provides
        # pub; the invoking context must still work.
        result, _ = run_compiled("""
            (invoke
              (compound (import) (export)
                (link ((unit (import) (export pub priv)
                         (define priv 10)
                         (define pub (lambda () priv))
                         (void))
                       (with) (provides pub))
                      ((unit (import pub) (export) (pub))
                       (with pub) (provides)))))
        """)
        assert result == 10

    def test_init_order_preserved(self):
        _, output = run_compiled("""
            (invoke
              (compound (import) (export)
                (link ((unit (import) (export) (display "first"))
                       (with) (provides))
                      ((unit (import) (export) (display " second"))
                       (with) (provides)))))
        """)
        assert output == "first second"

    def test_nested_compounds_compile(self):
        result, _ = run_compiled("""
            (invoke
              (compound (import) (export)
                (link ((compound (import) (export a)
                         (link ((unit (import) (export a)
                                  (define a 5) (void))
                                (with) (provides a))
                               ((unit (import) (export) (void))
                                (with) (provides))))
                       (with) (provides a))
                      ((unit (import a) (export) (* a a))
                       (with a) (provides)))))
        """)
        assert result == 25


class TestCodeSharing:
    def test_one_compiled_body_many_instances(self):
        # Compile a unit once; link it into two different contexts; the
        # compiled value is a single closure reused for both instances
        # (footnote 8: "a single copy of the definition and
        # initialization code regardless of how many times the unit is
        # linked or invoked").
        interp = Interpreter()
        unit = parse_program("""
            (unit (import base) (export)
              (define result (box 0))
              (begin (set-box! result (* base base))
                     (unbox result)))
        """)
        compiled = compile_unit(unit)
        compiled_value = interp.eval(compiled)
        interp.global_env.define("squarer", compiled_value)
        run = """
            (let ((it (makeStringHashTable)) (et (makeStringHashTable)))
              (begin (hash-put! it "base" (box %d))
                     ((squarer it et))))
        """
        assert interp.run(run % 3) == 9
        assert interp.run(run % 5) == 25

    def test_state_not_shared_between_instances(self):
        result, _ = run_compiled("""
            (let ((u (unit (import) (export)
                       (define state (box 0))
                       (begin (set-box! state (+ (unbox state) 1))
                              (unbox state)))))
              (+ (invoke u) (invoke u)))
        """)
        assert result == 2


class TestCompiledAgreesWithInterpreter:
    PROGRAMS = [
        "(invoke (unit (import) (export) 99))",
        "(invoke (unit (import a b) (export) (+ a b)) (a 1) (b 2))",
        """(invoke (compound (import) (export)
             (link ((unit (import) (export x) (define x 3) (void))
                    (with) (provides x))
                   ((unit (import x) (export) (* x x))
                    (with x) (provides)))))""",
        """(let ((u (unit (import k) (export) (* k 3))))
             (+ (invoke u (k 1)) (invoke u (k 2))))""",
        """(invoke (unit (import) (export f g)
             (define f (lambda (x) (g x)))
             (define g (lambda (x) (+ x 1)))
             (f 10)))""",
    ]

    @pytest.mark.parametrize("program", PROGRAMS)
    def test_agreement(self, program):
        direct, _ = run_program(program)
        compiled, _ = run_compiled(program)
        assert direct == compiled

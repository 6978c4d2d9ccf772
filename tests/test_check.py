"""Tests for Figure 10 context-sensitive checks and valuability."""

import pytest

from repro.lang.errors import CheckError
from repro.lang.parser import parse_program
from repro.units.check import check_program
from repro.units.valuable import is_valuable


def check(text: str, strict: bool = True):
    return check_program(parse_program(text), strict)


class TestUnitChecks:
    def test_well_formed_unit_accepted(self):
        check("""
            (unit (import a) (export f)
              (define f (lambda (x) (a x)))
              (f 1))
        """)

    def test_duplicate_import_rejected(self):
        with pytest.raises(CheckError, match="duplicate"):
            check("(unit (import a a) (export) 1)")

    def test_import_definition_collision_rejected(self):
        with pytest.raises(CheckError, match="duplicate"):
            check("(unit (import a) (export) (define a 1) 1)")

    def test_duplicate_definition_rejected(self):
        with pytest.raises(CheckError, match="duplicate"):
            check("(unit (import) (export) (define x 1) (define x 2) 1)")

    def test_duplicate_export_rejected(self):
        with pytest.raises(CheckError, match="duplicate"):
            check("(unit (import) (export x x) (define x 1) 1)")

    def test_undefined_export_rejected(self):
        with pytest.raises(CheckError, match="not defined"):
            check("(unit (import) (export ghost) 1)")

    def test_imported_name_cannot_be_exported(self):
        # exports must be defined within the unit; an import is not a
        # definition.
        with pytest.raises(CheckError, match="not defined"):
            check("(unit (import x) (export x) 1)")

    def test_nested_units_checked(self):
        with pytest.raises(CheckError):
            check("""
                (unit (import) (export outer)
                  (define outer (unit (import) (export ghost) 1))
                  1)
            """)


class TestValuability:
    def test_lambda_definition_valuable(self):
        check("(unit (import) (export f) (define f (lambda () 1)) 1)")

    def test_literal_definition_valuable(self):
        check("(unit (import) (export x) (define x 5) 1)")

    def test_unit_definition_valuable(self):
        check("""
            (unit (import) (export u)
              (define u (unit (import) (export) 1))
              1)
        """)

    def test_effectful_definition_rejected_when_strict(self):
        with pytest.raises(CheckError, match="valuable"):
            check('(unit (import) (export x) (define x (display "hi")) 1)')

    def test_unknown_application_rejected_when_strict(self):
        # Applying an arbitrary (possibly diverging) procedure is not
        # valuable even when the operator is globally bound.
        with pytest.raises(CheckError, match="valuable"):
            check("""
                (let ((mystery (lambda () 1)))
                  (unit (import) (export x) (define x (mystery)) 1))
            """)

    def test_benign_prim_application_is_valuable(self):
        # Harper-Stone valuability includes pure constructors: boxes,
        # lists, arithmetic of valuable arguments.
        check("(unit (import) (export x) (define x (+ 1 2)) 1)")
        check("(unit (import) (export b) (define b (box (list 1 2))) 1)")

    def test_let_shadowed_prim_application_rejected_when_strict(self):
        # A let-bound '+' is user code; here it reads a later sibling.
        with pytest.raises(CheckError, match="valuable"):
            check("""
                (unit (import) (export)
                  (define a (let ((+ (lambda (x y) b))) (+ 1 2)))
                  (define b 1)
                  a)
            """)

    # The unit applies '+' to a thunk that reads a later sibling.  Code
    # around the unit rebinds '+' to call that thunk, outside the unit's
    # own text: the unit's rebound set must reject it, since running it
    # reads 'b' before it is defined.
    PRIM_REBOUND_OUTSIDE = {
        "lambda": "((lambda (+) {unit}) (lambda (f y) (f)))",
        "let": "(let ((+ (lambda (f y) (f)))) {unit})",
        "top-level-set!": "(begin (set! + (lambda (f y) (f))) {unit})",
        "enclosing-unit": """
            (invoke (unit (import) (export)
              (define + (lambda (f y) (f)))
              (define run (lambda () {unit}))
              (run)))""",
    }
    REBOUND_UNIT = ("(invoke (unit (import) (export)"
                    " (define a (+ (lambda () b) 2)) (define b 1) a))")

    @pytest.mark.parametrize("where", sorted(PRIM_REBOUND_OUTSIDE))
    def test_prim_rebound_outside_unit_rejected_when_strict(self, where):
        from repro.lang.errors import RunTimeError
        from repro.lang.interp import run_program

        text = self.PRIM_REBOUND_OUTSIDE[where].format(
            unit=self.REBOUND_UNIT)
        with pytest.raises(CheckError, match="'a' is not valuable"):
            check(text)
        check(text, strict=False)
        with pytest.raises(RunTimeError, match="undefined variable"):
            run_program(text)

    # Binders of '+' that do not enclose the unit leave its '+' the
    # primitive, so a definition applying it stays valuable.
    PRIM_BOUND_ELSEWHERE = {
        "sibling-lambda": "(begin ((lambda (+) +) 1) {unit})",
        "let-right-hand-side": "(let ((+ 1) (r {unit})) r)",
        "sibling-unit": ("(begin (invoke (unit (import) (export)"
                         " (define + 1) +)) {unit})"),
    }
    PRIM_UNIT = "(invoke (unit (import) (export) (define x (+ 1 2)) x))"

    @pytest.mark.parametrize("where", sorted(PRIM_BOUND_ELSEWHERE))
    def test_prim_bound_outside_unit_scope_accepted_when_strict(self, where):
        from repro.backend import compile_program
        from repro.lang.interp import run_program

        text = self.PRIM_BOUND_ELSEWHERE[where].format(unit=self.PRIM_UNIT)
        check(text)
        assert run_program(text)[0] == 3
        assert compile_program(parse_program(text)).run()[0] == 3

    def test_reference_to_defined_variable_rejected_when_strict(self):
        with pytest.raises(CheckError, match="valuable"):
            check("""
                (unit (import) (export x y)
                  (define x 1)
                  (define y x)
                  1)
            """)

    def test_reference_to_import_rejected_when_strict(self):
        with pytest.raises(CheckError, match="valuable"):
            check("(unit (import a) (export x) (define x a) 1)")

    def test_reference_under_lambda_is_fine(self):
        check("(unit (import a) (export x) (define x (lambda () a)) 1)")

    def test_lenient_mode_allows_applications(self):
        check('(unit (import) (export x) (define x (display "e")) 1)',
              strict=False)

    def test_if_of_values_is_valuable(self):
        assert is_valuable(parse_program("(if #t 1 2)"), frozenset())

    def test_set_bang_not_valuable(self):
        assert not is_valuable(parse_program("(set! z 1)"), frozenset())

    def test_global_reference_valuable(self):
        # A reference to a variable that is not a unit variable is
        # valuable (it is determined at unit evaluation time).
        assert is_valuable(parse_program("car"), frozenset({"x"}))

    def test_invoke_not_valuable(self):
        assert not is_valuable(parse_program("(invoke u)"), frozenset())


class TestCompoundChecks:
    GOOD = """
        (compound (import e) (export a)
          (link ((unit (import e b) (export a)
                   (define a 1) 1)
                 (with e b) (provides a))
                ((unit (import e) (export b)
                   (define b 2) 2)
                 (with e) (provides b))))
    """

    def test_good_compound_accepted(self):
        check(self.GOOD)

    def test_with_outside_sources_rejected(self):
        with pytest.raises(CheckError, match="with-variable"):
            check("""
                (compound (import) (export)
                  (link ((unit (import) (export) 1)
                         (with mystery) (provides))
                        ((unit (import) (export) 2) (with) (provides))))
            """)

    def test_export_not_provided_rejected(self):
        with pytest.raises(CheckError, match="not provided"):
            check("""
                (compound (import) (export ghost)
                  (link ((unit (import) (export) 1) (with) (provides))
                        ((unit (import) (export) 2) (with) (provides))))
            """)

    def test_import_provides_collision_rejected(self):
        with pytest.raises(CheckError, match="duplicate"):
            check("""
                (compound (import x) (export)
                  (link ((unit (import) (export x) (define x 1) 1)
                         (with) (provides x))
                        ((unit (import) (export) 2) (with) (provides))))
            """)

    def test_both_provide_same_name_rejected(self):
        with pytest.raises(CheckError, match="duplicate"):
            check("""
                (compound (import) (export)
                  (link ((unit (import) (export x) (define x 1) 1)
                         (with) (provides x))
                        ((unit (import) (export x) (define x 2) 2)
                         (with) (provides x))))
            """)

    def test_second_with_may_use_first_provides(self):
        check("""
            (compound (import) (export)
              (link ((unit (import) (export x) (define x 1) 1)
                     (with) (provides x))
                    ((unit (import x) (export) x)
                     (with x) (provides))))
        """, strict=False)

    def test_cyclic_with_clauses_accepted(self):
        # Cyclic linking is the point (Section 3.2).
        check("""
            (compound (import) (export)
              (link ((unit (import b) (export a)
                       (define a (lambda () (b))) 1)
                     (with b) (provides a))
                    ((unit (import a) (export b)
                       (define b (lambda () (a))) 2)
                     (with a) (provides b))))
        """)


class TestInvokeChecks:
    def test_invoke_checked_recursively(self):
        with pytest.raises(CheckError):
            check("(invoke (unit (import) (export ghost) 1))")

    def test_invoke_link_exprs_checked(self):
        with pytest.raises(CheckError):
            check("(invoke u (a (unit (import) (export ghost) 1)))")

"""Every evaluator reports a link fault the same way.

Figure 11's link-time checks (a constituent needs no more than its
``with`` clause and provides at least its ``provides`` clause) and the
invoke rule's import check have one definition each
(:func:`repro.lang.values.check_clause`,
:func:`repro.lang.values.invoke_cells`).  The interpreter, the
rewriting machine, the pycode backend and a served ``link`` (then
``run`` of the linked text) must all raise the same error type with
the same message — whether the constituent is a unit literal, a
``let``-bound unit the static linker resolves, or a unit chosen at run
time.  An invoke evaluates its link expressions before it checks its
target, so their errors come first on every path.
"""

import pytest

from repro.backend import compile_program
from repro.lang.errors import RunTimeError, UnitLinkError
from repro.lang.interp import Interpreter
from repro.lang.machine import machine_eval
from repro.lang.parser import parse_program
from repro.serve.handlers import run_pipeline

NEEDS_A = "(unit (import a) (export) 1)"
PLAIN = "(unit (import) (export) 2)"


def _compound(first, second, first_provides="", second_provides=""):
    return ("(invoke (compound (import) (export) (link"
            f" ({first} (with) (provides {first_provides}))"
            f" ({second} (with) (provides {second_provides})))))")


WITH_FIRST = "compound: first constituent imports exceed its with clause: a"
WITH_SECOND = \
    "compound: second constituent imports exceed its with clause: a"
PROVIDES_FIRST = "compound: first constituent does not provide: y"
PROVIDES_SECOND = "compound: second constituent does not provide: y"

FAULTS = {
    "with-first": (_compound(NEEDS_A, PLAIN), UnitLinkError, WITH_FIRST),
    "with-second": (_compound(PLAIN, NEEDS_A), UnitLinkError, WITH_SECOND),
    "provides-first": (_compound(PLAIN, PLAIN, first_provides="y"),
                       UnitLinkError, PROVIDES_FIRST),
    "provides-second": (_compound(PLAIN, PLAIN, second_provides="y"),
                        UnitLinkError, PROVIDES_SECOND),
    "with-first-let-bound": (
        f"(let ((u {NEEDS_A})) {_compound('u', PLAIN)})",
        UnitLinkError, WITH_FIRST),
    "provides-second-let-bound": (
        f"(let ((u {PLAIN})) {_compound(PLAIN, 'u', second_provides='y')})",
        UnitLinkError, PROVIDES_SECOND),
    "with-second-chosen-at-run-time": (
        f"(let ((u (if #t {NEEDS_A} {PLAIN}))) {_compound(PLAIN, 'u')})",
        UnitLinkError, WITH_SECOND),
    "invoke-import-unsatisfied": (
        "(invoke (unit (import a b) (export) 1) (b 2))",
        UnitLinkError, "invoke: unit imports not satisfied: a"),
    "invoke-link-before-unit-check": (
        "(invoke 5 (a (car 1)))",
        RunTimeError, "car: expected a pair, got 1"),
}


def _served(source):
    linked, _ = run_pipeline({"op": "link", "source": source}, {})
    return run_pipeline({"op": "run", "source": linked}, {})


HOSTS = {
    "interp": lambda source: Interpreter().eval(parse_program(source)),
    "machine": lambda source: machine_eval(parse_program(source)),
    "pycode": lambda source: compile_program(parse_program(source)).run(),
    "served-link": _served,
}


@pytest.mark.parametrize("host", sorted(HOSTS))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_link_fault_reported_identically(fault, host):
    source, error, message = FAULTS[fault]
    with pytest.raises(error) as info:
        HOSTS[host](source)
    assert type(info.value) is error
    assert str(info.value) == message


NOT_A_UNIT = {
    "invoke-procedure": ("(invoke (lambda () 1))",
                         "invoke: expected a unit, got "
                         "#<procedure:<anonymous>>"),
    "compound-procedure": (_compound("(lambda () 1)", PLAIN),
                           "compound: expected a unit, got "
                           "#<procedure:<anonymous>>"),
    # Passed through a procedure, so no checker rejects the non-unit
    # before run time.
    "invoke-number": ("(invoke ((lambda (u) u) 5))",
                      "invoke: expected a unit, got 5"),
    "invoke-string": ('(invoke ((lambda (u) u) "s"))',
                      'invoke: expected a unit, got "s"'),
    "invoke-primitive": ("(invoke ((lambda (u) u) car))",
                         "invoke: expected a unit, got #<primitive:car>"),
    "compound-second-number": (_compound(PLAIN, "((lambda (u) u) 5)"),
                               "compound: expected a unit, got 5"),
}


@pytest.mark.parametrize("host", sorted(HOSTS))
@pytest.mark.parametrize("fault", sorted(NOT_A_UNIT))
def test_non_unit_reported_identically(fault, host):
    source, message = NOT_A_UNIT[fault]
    with pytest.raises(RunTimeError) as info:
        HOSTS[host](source)
    assert str(info.value) == message

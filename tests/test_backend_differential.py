"""Backends must agree: a three-way corpus differential sweep.

Every corpus program is evaluated by the big-step environment
interpreter, the small-step rewriting machine (unless the case opts
out with ``skip-machine``), and the ``pycode`` Python-closure codegen
backend — under three cache configurations:

* **off** — the term-performance layer disabled (``--no-term-cache``):
  no memoization, no content caches, so the codegen cache is inert and
  every pass regenerates its Python source;
* **cold** — the default configuration with a fresh cache scope, what
  a first CLI invocation pays;
* **warm** — the same scope after a priming pass, so the codegen cache
  serves the code object content-addressed on the program's digest.

In all three, the interpreter and the codegen backend must agree byte
for byte on value and displayed output, the machine on the written
value, and all must match the corpus golden.  The error half of the
sweep holds failing programs to the same taxonomy: interpreter and
pycode raise the *same exception type with the same message*, and
budget exhaustion surfaces as ``BudgetExceeded`` naming the backend's
own step resource (``eval_steps`` for the interpreter and pycode —
the codegen backend charges one step per application — and
``machine_steps`` for the machine).
"""

import itertools
from contextlib import nullcontext

import pytest

from repro import backend
from repro import limits as _limits
from repro import obs
from repro.lang import subst as lang_subst
from repro.lang import terms
from repro.lang.ast import Lit
from repro.lang.errors import RunTimeError, UnitLinkError
from repro.lang.interp import Interpreter
from repro.lang.machine import machine_eval
from repro.lang.parser import parse_program
from repro.lang.values import to_write_string
from repro.serve import handlers
from repro.units.cache import unit_cache_scope
from repro.units.check import check_program
from repro.units.linker import link_and_optimize

from tests.test_corpus import CASES, _matches

MODES = ("off", "cold", "warm")


def _pass(case):
    """One parse/check/eval pass on every backend; the observation."""
    expr = parse_program(case.source)
    check_program(expr, strict_valuable=not case.lenient)
    out = {}

    interp = Interpreter()
    out["value"] = to_write_string(interp.eval(expr))
    out["output"] = interp.port.getvalue()

    value, output = backend.compile_program(expr).run()
    out["pycode_value"] = to_write_string(value)
    out["pycode_output"] = output

    if not case.skip_compile:
        # Static linking must preserve behaviour: the linked program,
        # run on the codegen backend, is held to the same observation.
        linked, _stats = link_and_optimize(expr)
        lvalue, loutput = backend.compile_program(linked).run()
        out["pycode_linked_value"] = to_write_string(lvalue)
        out["pycode_linked_output"] = loutput

    if not case.skip_machine:
        final, moutput = machine_eval(expr)
        assert isinstance(final, Lit)
        out["machine_value"] = to_write_string(final.value)
        out["machine_output"] = moutput
    return out


def _observe(case, mode):
    lang_subst._counter = itertools.count()
    cached = mode != "off"
    with terms.caching(cached):
        scope = unit_cache_scope() if cached else nullcontext()
        with scope:
            if mode == "warm":
                _pass(case)
            return _pass(case)


class TestBackendsAgreeOnTheCorpus:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_corpus_case(self, case, mode):
        out = _observe(case, mode)
        assert out["pycode_value"] == out["value"]
        assert out["pycode_output"] == out["output"]
        if "pycode_linked_value" in out:
            assert out["pycode_linked_value"] == out["value"]
            assert out["pycode_linked_output"] == out["output"]
        if "machine_value" in out:
            assert out["machine_value"] == out["value"]
            assert out["machine_output"] == out["output"]
        assert _matches_str(out["value"], case)

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_modes_agree(self, case):
        off, cold, warm = (_observe(case, m) for m in MODES)
        assert cold == off
        assert warm == off


def _matches_str(value_str: str, case) -> bool:
    from repro.lang.sexpr import read_sexpr, write_sexpr

    return value_str == write_sexpr(read_sexpr(case.expect_value))


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

#: Failing programs and the exception class they must die with.  The
#: messages are not pinned here — the property is that interp and
#: pycode produce the *same* (type, message) pair, whatever it is.
ERROR_PROGRAMS = (
    ("apply-non-procedure", "(1 2)", RunTimeError),
    ("arity-mismatch", "((lambda (x) x) 1 2)", RunTimeError),
    ("prim-arity-mismatch", "(car 1 2)", RunTimeError),
    ("prim-domain", "(car 5)", RunTimeError),
    ("division-by-zero", "(/ 1 0)", RunTimeError),
    ("user-error", '(error "boom")', RunTimeError),
    ("letrec-premature-read",
     "(letrec ((x (lambda () y)) (y (x))) y)", RunTimeError),
    ("unbound-global", "(invoke (unit (import) (export) nope))",
     RunTimeError),
    ("missing-import", "(invoke (unit (import x) (export) x))",
     UnitLinkError),
    ("unit-forward-reference",
     "(invoke (unit (import) (export) (define a b) (define b 1) a))",
     RunTimeError),
    # A valuable unit's procedure, called while a non-valuable sibling
    # still runs its definitions, reads that sibling's unset export.
    ("cross-unit-forward-reference", """
     (invoke
       (compound (import) (export)
         (link ((unit (import x) (export get-x)
                  (define get-x (lambda () x))
                  (void))
                (with x) (provides get-x))
               ((unit (import get-x) (export x)
                  (define early (get-x))
                  (define x 5)
                  early)
                (with get-x) (provides x)))))""", RunTimeError),
    # A rebound primitive name runs user code that reads a later
    # sibling, whether the binder is local, around the unit or a
    # top-level assignment, and whether the sibling is private or
    # exported.
    ("shadowed-prim-private",
     "(invoke (unit (import) (export)"
     " (define a (let ((+ (lambda (x y) b))) (+ 1 2))) (define b 1) a))",
     RunTimeError),
    ("shadowed-prim-exported",
     "(invoke (unit (import) (export b)"
     " (define a (let ((+ (lambda (x y) b))) (+ 1 2))) (define b 1) a))",
     RunTimeError),
    ("prim-bound-around-unit",
     "((lambda (+) (invoke (unit (import) (export b)"
     " (define a (+ (lambda () b) 2)) (define b 1) a)))"
     " (lambda (f y) (f)))", RunTimeError),
    ("prim-assigned-at-top-level",
     "(begin (set! + (lambda (f y) (f)))"
     " (invoke (unit (import) (export)"
     " (define a (+ (lambda () b) 2)) (define b 1) a)))", RunTimeError),
)


def _failure(run, expr):
    try:
        run(expr)
    except (RunTimeError, UnitLinkError) as err:
        return type(err), str(err)
    raise AssertionError("program unexpectedly succeeded")


def _interp_failure(expr):
    return _failure(lambda e: Interpreter().eval(e), expr)


def _pycode_failure(expr):
    return _failure(lambda e: backend.compile_program(e).run(), expr)


class TestErrorTaxonomyAgrees:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "name,source,exc", ERROR_PROGRAMS, ids=[e[0] for e in ERROR_PROGRAMS])
    def test_same_type_and_message(self, name, source, exc, mode):
        expr = parse_program(source)
        check_program(expr, strict_valuable=False)
        cached = mode != "off"
        with terms.caching(cached):
            scope = unit_cache_scope() if cached else nullcontext()
            with scope:
                if mode == "warm":
                    _interp_failure(expr)
                    _pycode_failure(expr)
                got_interp = _interp_failure(expr)
                got_pycode = _pycode_failure(expr)
        assert got_interp[0] is exc
        assert got_pycode == got_interp

    @pytest.mark.parametrize("name", ["letrec-premature-read",
                                      "unit-forward-reference",
                                      "cross-unit-forward-reference",
                                      "shadowed-prim-private",
                                      "shadowed-prim-exported",
                                      "prim-bound-around-unit",
                                      "prim-assigned-at-top-level"])
    def test_premature_reads_stay_checked(self, name):
        """Codegen drops undefined checks only where no read can see an
        unfilled cell; these programs can, and must still say so."""
        source = dict((n, src) for n, src, _ in ERROR_PROGRAMS)[name]
        expr = parse_program(source)
        check_program(expr, strict_valuable=False)
        assert _pycode_failure(expr) == (
            RunTimeError, "reference to undefined variable")
        assert "raise _undef_error()" in backend.generate_source(expr)

    def test_identical_closed_units_share_one_maker(self):
        copy = "(unit (import) (export) (define f (lambda () 1)) (f))"
        expr = parse_program(
            f"(list (invoke {copy}) (invoke {copy})"
            f" ((lambda (j) (invoke (unit (import) (export) j))) 2))")
        source = backend.generate_source(expr)
        # The two copies share a hoisted maker; the unit under the
        # lambda closes over its parameter and keeps its own.
        assert source.count("(_cells):") == 2
        assert source.count("raise _undef_error()") == 0
        value, _ = backend.compile_program(expr).run()
        assert to_write_string(value) == "(1 1 2)"

    def test_failed_codegen_is_never_cached(self):
        """A program that dies at run time still records its code (its
        codegen succeeded); but a BudgetExceeded raised *during* codegen
        leaves no code behind (see tests/test_unit_cache.py for the disk
        half)."""
        req = {"op": "run", "source": "(car 5)", "backend": "pycode"}
        with unit_cache_scope(), obs.collecting() as col:
            failures = [_failure(lambda _: handlers.run_pipeline(req, {}),
                                 None) for _ in range(2)]
        assert failures[0] == failures[1]
        assert failures[0][0] is RunTimeError
        tiers = [e.fields["tier"] for e in col.events
                 if e.kind == "cache.hit" and e.fields["cache"] == "pycode"]
        assert tiers == ["memory"]  # run-time failure: cacheable


SPIN = "(invoke (unit (import) (export) (define spin (lambda () (spin))) (spin)))"


class TestBudgetExhaustionTaxonomy:
    """An ungoverned infinite tail loop is uninteresting; a governed one
    must die as ``BudgetExceeded`` naming the backend's own step
    resource, on every backend, cached or not."""

    @pytest.mark.parametrize("mode", MODES)
    def test_interp_and_pycode_charge_eval_steps(self, mode):
        expr = parse_program(SPIN)
        check_program(expr, strict_valuable=False)
        cached = mode != "off"
        outcomes = {}
        with terms.caching(cached):
            scope = unit_cache_scope() if cached else nullcontext()
            with scope:
                for name, run in (
                        ("interp", lambda e: Interpreter().eval(e)),
                        ("pycode",
                         lambda e: backend.compile_program(e).run())):
                    with _limits.budget_scope(
                            _limits.Budget(eval_steps=20_000)):
                        with pytest.raises(_limits.BudgetExceeded) as err:
                            run(expr)
                    outcomes[name] = (err.value.resource, err.value.limit)
        assert outcomes["interp"] == ("eval_steps", 20_000)
        assert outcomes["pycode"] == ("eval_steps", 20_000)

    def test_machine_charges_machine_steps(self):
        expr = parse_program(SPIN)
        with _limits.budget_scope(_limits.Budget(machine_steps=20_000)):
            with pytest.raises(_limits.BudgetExceeded) as err:
                machine_eval(expr)
        assert err.value.resource == "machine_steps"

    def test_exhausted_codegen_leaves_no_cache_entry(self, tmp_path):
        """Deadline death inside ``compile_program`` must not populate
        the codegen cache — a rerun with a fresh budget gets a miss and
        a complete compilation, not a half-written entry."""
        expr = parse_program(SPIN)
        check_program(expr, strict_valuable=False)
        with unit_cache_scope(tmp_path), obs.collecting() as col:
            with _limits.budget_scope(_limits.Budget(deadline_s=0.0)):
                with pytest.raises(_limits.BudgetExceeded):
                    backend.compile_program(expr)
            assert not list(tmp_path.rglob("*.py"))
            # A healthy budget afterwards compiles and runs fine.
            with _limits.budget_scope(_limits.Budget(eval_steps=10_000)):
                with pytest.raises(_limits.BudgetExceeded) as err:
                    backend.compile_program(expr).run()
            assert err.value.resource == "eval_steps"
            assert len(list(tmp_path.rglob("*.py"))) == 1
        assert [e.fields["cache"] for e in col.events
                if e.kind == "cache.miss"] == ["pycode"]

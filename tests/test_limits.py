"""The resource-governance layer: budgets, scoping, and exhaustion.

Covers the :mod:`repro.limits` contract directly (charging, the depth
gauge, the deadline, scope nesting and restoration), each governed
subsystem's integration (interpreter, machine, substitution, reader,
type expansion), the ``limit.exceeded`` trace event, the machine's
back-compat step-budget behaviour, the dynlink retry helper, the
scoped recursion-headroom replacement for ``sys.setrecursionlimit``,
and the budget x cache rule: an exhausted check is never recorded as
a success.
"""

import sys
import threading

import pytest

from repro import limits
from repro import obs
from repro.lang.errors import (
    LangError,
    LexError,
    ResourceError,
    RunTimeError,
    TypeCheckError,
)
from repro.lang.interp import Interpreter, run_program
from repro.lang.machine import Machine, machine_eval
from repro.lang.parser import parse_program
from repro.lang.sexpr import read_sexpr
from repro.limits import Budget, BudgetExceeded, budget_scope


LOOP = "(letrec ((spin (lambda (n) (spin (+ n 1))))) (spin 0))"
SMALL = """
(invoke (unit (import) (export out)
  (define out (lambda () (* 6 7)))
  (out)))
"""


class TestBudgetObject:
    def test_unlimited_budget_charges_freely(self):
        b = Budget()
        for _ in range(1000):
            b.charge_eval()
            b.charge_machine()
            b.charge_subst()
            b.charge_expand()
        assert b.spent()["eval_steps"] == 1000

    def test_each_resource_trips_independently(self):
        trips = {
            "eval_steps": lambda b: b.charge_eval(),
            "machine_steps": lambda b: b.charge_machine(),
            "subst_nodes": lambda b: b.charge_subst(),
            "expand_fuel": lambda b: b.charge_expand(),
        }
        for resource, charge in trips.items():
            b = Budget(**{resource: 3})
            for _ in range(3):
                charge(b)
            with pytest.raises(BudgetExceeded) as exc:
                charge(b)
            assert exc.value.resource == resource
            assert exc.value.limit == 3
            assert exc.value.used == 4

    def test_exactly_at_limit_is_fine(self):
        b = Budget(eval_steps=5)
        for _ in range(5):
            b.charge_eval()

    def test_depth_gauge_tracks_and_trips(self):
        b = Budget(max_depth=3)
        b.enter_frame()
        b.enter_frame()
        b.exit_frame()
        b.enter_frame()
        b.enter_frame()
        with pytest.raises(BudgetExceeded) as exc:
            b.enter_frame()
        assert exc.value.resource == "depth"
        assert b.max_depth_seen == 3

    def test_check_depth_reports_governance(self):
        assert Budget(max_depth=10).check_depth(5) is True
        assert Budget().check_depth(5) is False
        with pytest.raises(BudgetExceeded):
            Budget(max_depth=4).check_depth(5)

    def test_deadline_trips_once_passed(self):
        b = Budget(deadline_s=0.0)
        b.arm()
        with pytest.raises(BudgetExceeded) as exc:
            b.check_deadline()
        assert exc.value.resource == "deadline"

    def test_taxonomy(self):
        err = BudgetExceeded("eval_steps", 10, 11)
        assert isinstance(err, ResourceError)
        assert isinstance(err, LangError)
        assert "eval_steps" in str(err)
        assert "10" in str(err)

    def test_counters_cumulative_across_scopes(self):
        b = Budget(eval_steps=10)
        with budget_scope(b):
            for _ in range(4):
                b.charge_eval()
        with budget_scope(b):
            for _ in range(6):
                b.charge_eval()
            with pytest.raises(BudgetExceeded):
                b.charge_eval()


class TestScoping:
    def test_off_by_default(self):
        assert limits.current() is None
        assert not limits.enabled()

    def test_scope_restores_previous(self):
        outer = Budget()
        inner = Budget()
        with budget_scope(outer):
            assert limits.current() is outer
            with budget_scope(inner):
                assert limits.current() is inner
            assert limits.current() is outer
        assert limits.current() is None

    def test_scope_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with budget_scope(Budget()):
                raise RuntimeError("boom")
        assert limits.current() is None

    def test_default_scope_makes_a_budget(self):
        with budget_scope() as b:
            assert isinstance(b, Budget)
            assert limits.current() is b


class TestExhaustionEvent:
    def test_limit_exceeded_event_emitted(self):
        with obs.collecting() as col:
            with budget_scope(Budget(eval_steps=50)):
                with pytest.raises(BudgetExceeded):
                    run_program(LOOP)
        kinds = [e.kind for e in col.events]
        assert kinds.count("limit.exceeded") == 1
        event = next(e for e in col.events if e.kind == "limit.exceeded")
        assert event.fields["resource"] == "eval_steps"
        assert event.fields["limit"] == 50
        assert event.fields["used"] == 51

    def test_no_collector_still_raises(self):
        with budget_scope(Budget(eval_steps=50)):
            with pytest.raises(BudgetExceeded):
                run_program(LOOP)


class TestInterpreterGovernance:
    def test_loop_trips_eval_steps(self):
        with budget_scope(Budget(eval_steps=1000)):
            with pytest.raises(BudgetExceeded) as exc:
                run_program(LOOP)
        assert exc.value.resource == "eval_steps"

    def test_small_program_unaffected(self):
        with budget_scope(Budget(eval_steps=100_000)) as b:
            value, _ = run_program(SMALL)
        assert value == 42
        assert 0 < b.spent()["eval_steps"] <= 100_000

    def test_deep_recursion_trips_depth_not_recursionerror(self):
        deep = ("(letrec ((down (lambda (n) "
                "(if (= n 0) 0 (+ 1 (down (- n 1))))))) (down 100000))")
        with budget_scope(Budget(max_depth=500)):
            with pytest.raises(BudgetExceeded) as exc:
                run_program(deep)
        assert exc.value.resource == "depth"

    def test_ungoverned_run_identical(self):
        value, output = run_program(SMALL)
        assert value == 42


class TestMachineGovernance:
    def test_budget_governs_machine_steps(self):
        expr = parse_program(LOOP)
        with budget_scope(Budget(machine_steps=500)):
            with pytest.raises(BudgetExceeded) as exc:
                machine_eval(expr)
        assert exc.value.resource == "machine_steps"

    def test_explicit_max_steps_keeps_legacy_error(self):
        # Pre-budget API: an explicit cap still raises the machine's
        # own RunTimeError, budget scope or not.
        expr = parse_program(LOOP)
        machine = Machine(max_steps=10)
        with pytest.raises(RunTimeError, match="budget"):
            machine.run(expr)
        with budget_scope(Budget(machine_steps=10_000)):
            with pytest.raises(RunTimeError, match="budget"):
                Machine(max_steps=10).run(expr)

    def test_exact_step_budget_completes(self):
        expr = parse_program("(* 6 7)")
        with budget_scope(Budget(machine_steps=10_000)) as b:
            value, _ = machine_eval(expr)
        assert value.value == 42
        steps = b.spent()["machine_steps"]
        # A budget of exactly the consumed steps must still complete.
        with budget_scope(Budget(machine_steps=steps)):
            value, _ = machine_eval(parse_program("(* 6 7)"))
        assert value.value == 42

    def test_default_cap_still_applies_without_budget(self):
        expr = parse_program(LOOP)
        with pytest.raises(RunTimeError, match="budget"):
            Machine().run(expr)


class TestSubstAndExpandGovernance:
    def test_subst_nodes_trip(self):
        # The machine's invoke rule substitutes supplied values through
        # the unit's whole body (the interpreter is environment-based
        # and never substitutes).
        src = """
        (invoke (unit (import x) (export out)
          (define out (+ x x x x x x x x x x x x x x x x))
          out)
         (x 1))
        """
        expr = parse_program(src)
        with budget_scope(Budget(subst_nodes=4)):
            with pytest.raises(BudgetExceeded) as exc:
                machine_eval(expr)
        assert exc.value.resource == "subst_nodes"

    def test_expand_fuel_budget_replaces_typecheck_error(self):
        from repro.types.types import TyVar
        from repro.unite.expand import expand_type

        cyclic = {"a": TyVar("b"), "b": TyVar("a")}
        # Ungoverned: the module's own fuel and error.
        with pytest.raises(TypeCheckError, match="cyclic"):
            expand_type(TyVar("a"), cyclic)
        # Governed: the budget's fuel and error.
        with budget_scope(Budget(expand_fuel=50)):
            with pytest.raises(BudgetExceeded) as exc:
                expand_type(TyVar("a"), cyclic)
        assert exc.value.resource == "expand_fuel"
        # A budget without an expand cap leaves the default in force.
        with budget_scope(Budget(eval_steps=10)):
            with pytest.raises(TypeCheckError, match="cyclic"):
                expand_type(TyVar("a"), cyclic)

    def test_acyclic_expansion_fine_under_budget(self):
        from repro.types.types import BaseType, TyVar
        from repro.unite.expand import expand_type

        eqs = {"a": TyVar("b"), "b": BaseType("int")}
        with budget_scope(Budget(expand_fuel=50)):
            assert expand_type(TyVar("a"), eqs) == BaseType("int")


class TestReaderGovernance:
    def test_budget_depth_governs_nesting(self):
        deep = "(" * 40 + "x" + ")" * 40
        with budget_scope(Budget(max_depth=20)):
            with pytest.raises(BudgetExceeded) as exc:
                read_sexpr(deep)
        assert exc.value.resource == "depth"
        assert exc.value.loc is not None

    def test_structural_limit_without_budget(self):
        deep = "(" * 300 + "x" + ")" * 300
        with pytest.raises(LexError, match="nesting"):
            read_sexpr(deep)

    def test_generous_budget_overrides_structural_limit(self):
        # The governed reader accepts what its budget accepts — the
        # cap is the budget's, not the hard-coded constant.
        deep = "(" * 300 + "x" + ")" * 300
        with limits.python_recursion_headroom(10_000):
            with budget_scope(Budget(max_depth=1000)):
                datum = read_sexpr(deep)
        assert datum is not None


class TestRetryHelper:
    def test_retries_archive_errors_with_backoff(self):
        from repro.dynlink.loader import load_with_retry
        from repro.lang.errors import ArchiveError

        attempts = []
        naps = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise ArchiveError("transient")
            return "ok"

        # rng pinned to the midpoint: zero jitter, exact exponential.
        assert load_with_retry(flaky, retries=3, backoff_s=0.01,
                               sleep=naps.append,
                               rng=lambda: 0.5) == "ok"
        assert len(attempts) == 3
        assert [round(nap, 6) for nap in naps] == [0.01, 0.02]

    def test_exhausted_retries_reraise(self):
        from repro.dynlink.loader import load_with_retry
        from repro.lang.errors import ArchiveError

        def always():
            raise ArchiveError("down")

        with pytest.raises(ArchiveError):
            load_with_retry(always, retries=2, sleep=lambda s: None)

    def test_budget_exceeded_never_retried(self):
        from repro.dynlink.loader import load_with_retry

        attempts = []

        def exhausted():
            attempts.append(1)
            raise BudgetExceeded("deadline", 1.0, 1.5)

        with pytest.raises(BudgetExceeded):
            load_with_retry(exhausted, retries=5, sleep=lambda s: None)
        assert len(attempts) == 1


class TestRecursionHeadroom:
    def test_raises_then_restores(self):
        before = sys.getrecursionlimit()
        with limits.python_recursion_headroom(before + 5000):
            assert sys.getrecursionlimit() == before + 5000
        assert sys.getrecursionlimit() == before

    def test_never_lowers(self):
        before = sys.getrecursionlimit()
        with limits.python_recursion_headroom(10):
            assert sys.getrecursionlimit() == before
        assert sys.getrecursionlimit() == before

    def test_restores_on_error(self):
        before = sys.getrecursionlimit()
        with pytest.raises(RuntimeError):
            with limits.python_recursion_headroom(before + 5000):
                raise RuntimeError("boom")
        assert sys.getrecursionlimit() == before

    def test_overlapping_threads_keep_headroom_until_last_exit(self):
        # Two served requests overlap: the first to exit must not take
        # the second's headroom, and the last to exit must restore the
        # limit both found.
        before = sys.getrecursionlimit()
        raised = before + 5000
        first_in, second_in, first_out = (threading.Event()
                                          for _ in range(3))
        seen: dict[str, int] = {}

        def first() -> None:
            with limits.python_recursion_headroom(raised):
                first_in.set()
                second_in.wait(timeout=10)
            first_out.set()

        def second() -> None:
            first_in.wait(timeout=10)
            with limits.python_recursion_headroom(raised):
                second_in.set()
                first_out.wait(timeout=10)
                seen["inside"] = sys.getrecursionlimit()

        threads = [threading.Thread(target=fn) for fn in (first, second)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=20)
            seen["after"] = sys.getrecursionlimit()
        finally:
            sys.setrecursionlimit(before)
        assert seen == {"inside": raised, "after": before}

    def test_scope_that_raises_keeps_the_others_headroom(self):
        # The first scope to enter raises and exits while a second,
        # on another thread, still runs: the error path must count
        # the exit too, and leave the second scope its headroom.
        before = sys.getrecursionlimit()
        raised = before + 5000
        entered, failed = threading.Event(), threading.Event()
        seen: dict[str, int] = {}

        def holder() -> None:
            with limits.python_recursion_headroom(raised):
                entered.set()
                failed.wait(timeout=10)
                seen["inside"] = sys.getrecursionlimit()

        thread = threading.Thread(target=holder)
        try:
            with pytest.raises(RuntimeError):
                with limits.python_recursion_headroom(raised):
                    thread.start()
                    entered.wait(timeout=10)
                    raise RuntimeError("boom")
            failed.set()
            thread.join(timeout=20)
            seen["after"] = sys.getrecursionlimit()
        finally:
            failed.set()
            sys.setrecursionlimit(before)
        assert seen == {"inside": raised, "after": before}


class TestBudgetCacheInteraction:
    def test_exhausted_run_leaves_no_cache_poison(self):
        # End-to-end: a budget-killed pipeline run must not make a
        # later run observe different (cached-success) behaviour.
        from repro.units import cache as ucache
        from repro.units.check import check_program

        bomb = parse_program(LOOP)
        with ucache.unit_cache_scope():
            with budget_scope(Budget(eval_steps=200)):
                with pytest.raises(BudgetExceeded):
                    check_program(bomb)
                    Interpreter().eval(bomb)
            value, _ = run_program(SMALL)
            assert value == 42

    # Both units define a private `shared`, so merging must alpha-rename
    # (i.e. substitute) — giving the substitution budget something to
    # trip on mid-merge.
    COLLIDING_COMPOUND = """
    (compound (import) (export a)
      (link ((unit (import) (export a)
               (define shared (lambda (x) x))
               (define a (lambda (y) (shared y))) (void))
             (with) (provides a))
            ((unit (import) (export b)
               (define shared (lambda (x) x))
               (define b (lambda (y) (shared y))) (void))
             (with) (provides))))
    """

    def test_deadline_exhausted_link_is_never_cached(self):
        # The deadline is polled at every merge, and the aborted link
        # must leave no flatten-memo entry.
        from repro.units import cache as ucache
        from repro.units.linker import link_and_optimize

        expr = parse_program(self.COLLIDING_COMPOUND)
        with ucache.unit_cache_scope() as store:
            with budget_scope(Budget(deadline_s=0.0)):
                with pytest.raises(BudgetExceeded):
                    link_and_optimize(expr)
            assert len(store.flatten) == 0
            # The same compound links fine afterwards and only then
            # lands in the store.
            link_and_optimize(expr)
            assert len(store.flatten) >= 1

    def test_mid_merge_exhaustion_is_never_cached(self):
        # Exhaustion *inside* the merge (the substitution budget trips
        # while alpha-renaming) propagates before anything is stored.
        from repro.units import cache as ucache
        from repro.units.linker import link_and_optimize

        expr = parse_program(self.COLLIDING_COMPOUND)
        with ucache.unit_cache_scope() as store:
            with budget_scope(Budget(subst_nodes=1)):
                with pytest.raises(BudgetExceeded):
                    link_and_optimize(expr)
            assert len(store.flatten) == 0
            link_and_optimize(expr)
            assert len(store.flatten) >= 1

"""Fault injection: each fault's blast radius, one request at a time.

The sweep (``repro serve --chaos``, covered in ``test_serve.py``)
proves the concurrent story; these tests pin each fault's *mechanism*
in isolation:

* arming is scoped and nestable, and unarmed processes never enter the
  chaos module (the ``_armed`` fast flag);
* ``cache-io`` degrades the store to memory-only — the request still
  succeeds and no ``.tmp`` residue or torn disk entry remains;
* ``slow-load`` stalls archive lookups, converting to a *deadline*
  exhaustion (exit-code 3), never an ``ArchiveError`` — the taxonomy
  the archive layer must preserve through its wrap-all handlers;
* ``poison`` corrupts the retrieved source, producing the typed
  retrieval failure and leaving the shared store unpoisoned (the next
  clean request gets the right answer from the same store);
* ``link-exhaust`` trips the budget inside the merge, before the link
  store records anything.
"""

import pytest

from repro import obs
from repro.limits import BudgetExceeded
from repro.obs import MetricsRegistry
from repro.serve import chaos
from repro.serve.handlers import execute_request
from repro.serve.protocol import validate_request
from repro.serve.server import ServeConfig
from repro.units.cache import CacheStore


GREET = """
(invoke (unit (import) (export greet)
  (define greet (lambda (n) (* n 7)))
  (greet 6)))
"""

ALLOW = ServeConfig(allow_chaos=True, default_deadline_s=30.0)


def _run(store, **fields):
    req = validate_request(dict({"id": 1, "op": "run", "source": GREET},
                                **fields))
    return execute_request(req, store, MetricsRegistry(), ALLOW)


class TestArming:
    def test_unarmed_by_default(self):
        assert chaos._armed == 0
        assert chaos.current_plan() is None

    def test_scope_arms_and_disarms(self):
        plan = chaos.ChaosPlan(faults=frozenset(["cache-io"]))
        with chaos.chaos_scope(plan):
            assert chaos._armed == 1
            assert chaos.current_plan() is plan
            with chaos.chaos_scope(chaos.ChaosPlan()):
                assert chaos._armed == 2
                assert chaos.current_plan().faults == frozenset()
            assert chaos.current_plan() is plan
        assert chaos._armed == 0

    def test_unknown_fault_rejected_at_plan_construction(self):
        with pytest.raises(ValueError, match="meteor"):
            chaos.ChaosPlan(faults=frozenset(["meteor"]))

    def test_hooks_are_noops_for_unplanned_faults(self):
        with chaos.chaos_scope(chaos.ChaosPlan()):
            chaos.cache_io("x")         # would raise OSError if planned
            chaos.exhaust("x")          # would raise BudgetExceeded
            assert chaos.poison("x", "src") == "src"

    def test_injections_emit_trace_events(self):
        plan = chaos.ChaosPlan(faults=frozenset(["cache-io"]))
        with obs.collecting() as col:
            with chaos.chaos_scope(plan):
                with pytest.raises(OSError):
                    chaos.cache_io("compile.write")
        events = [e for e in col.events if e.kind == "serve.chaos"]
        assert [e.fields["fault"] for e in events] == ["cache-io"]
        assert events[0].fields["site"] == "compile.write"


class TestCacheIoFault:
    def test_request_succeeds_memory_only(self, tmp_path):
        store = CacheStore(tmp_path)
        response = _run(store, chaos=["cache-io"])
        assert response["status"] == "ok"
        assert response["value"] == "42"
        # Nothing reached disk; memory tiers were fed normally.
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]
        assert sum(store.occupancy().values()) >= 1
        # A later healthy (cold) request writes disk tiers as usual.
        other = GREET.replace("(greet 6)", "(greet 5)")
        assert _run(store, source=other)["value"] == "35"
        assert list(tmp_path.rglob("*.py"))
        assert not list(tmp_path.rglob("*.tmp"))


class TestSlowLoadFault:
    def test_stall_becomes_deadline_exhaustion(self):
        store = CacheStore()
        response = _run(store, archive=True, chaos=["slow-load"],
                        chaos_slow_s=0.5, deadline_s=0.05)
        assert response["status"] == "error"
        assert response["error"]["type"] == "BudgetExceeded"
        assert response["error"]["resource"] == "deadline"
        assert response["error"]["code"] == 3

    def test_generous_deadline_just_runs_slow(self):
        store = CacheStore()
        response = _run(store, archive=True, chaos=["slow-load"],
                        chaos_slow_s=0.05, deadline_s=20.0)
        assert response["status"] == "ok"
        assert response["value"] == "42"


class TestPoisonFault:
    def test_typed_failure_and_no_store_poisoning(self):
        store = CacheStore()
        poisoned = _run(store, archive=True, chaos=["poison"])
        assert poisoned["status"] == "error"
        assert poisoned["error"]["type"] == "ArchiveError"
        assert poisoned["error"]["code"] == 1
        # The mangled source keyed differently, so the shared store
        # serves the clean answer to the next request.
        clean = _run(store, archive=True)
        assert clean["status"] == "ok"
        assert clean["value"] == "42"


class TestLinkExhaustFault:
    COMPOUND = """
    (invoke (compound (import) (export out)
      (link ((unit (import) (export mk)
               (define mk (lambda (x) (* x 2))) mk)
             (with) (provides mk))
            ((unit (import mk) (export out)
               (define out (lambda () (mk 21))) (out))
             (with mk) (provides out)))))
    """

    def test_merge_exhaustion_never_cached(self):
        # The `link` op drives the compound through merge_compound
        # (the run op's compiled backend flattens without merging).
        store = CacheStore()
        exhausted = _run(store, op="link", source=self.COMPOUND,
                         chaos=["link-exhaust"])
        assert exhausted["status"] == "error"
        assert exhausted["error"]["type"] == "BudgetExceeded"
        assert len(store.flatten) == 0
        clean = _run(store, op="link", source=self.COMPOUND)
        assert clean["status"] == "ok"
        assert clean["value"].startswith("(")
        assert len(store.flatten) >= 1
        # And the run op still computes the right value afterwards.
        ran = _run(store, source=self.COMPOUND)
        assert ran["value"] == "42"

    def test_exhaust_hook_raises_budget_exceeded(self):
        plan = chaos.ChaosPlan(faults=frozenset(["link-exhaust"]))
        with chaos.chaos_scope(plan):
            with pytest.raises(BudgetExceeded) as exc:
                chaos.exhaust("reduce.merge_compound")
        assert exc.value.resource == "deadline"

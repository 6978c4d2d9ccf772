"""Content digests, hash-consing, the caching switch, and fresh names.

The performance layer must be *invisible*: structurally equal terms
get equal digests regardless of formatting or source location, memo
fields never leak into equality, the ``--no-term-cache`` switch turns
every memo path off, and ``fresh_like`` keeps generated names bounded
no matter how many rename generations a term survives.
"""

import sys

import pytest

from repro import backend
from repro.lang import terms
from repro.lang.ast import App, If, Lambda, Let, Lit, Var
from repro.lang.parser import parse_program
from repro.lang.pretty import show
from repro.lang.subst import fresh_like, free_vars, substitute
from repro.lang.subst import children
from repro.units.ast import CompoundExpr, UnitExpr
from repro.units.cache import pycode_fingerprint, unit_cache_scope

UNIT_SRC = ("(unit (import a) (export f)"
            " (define f (lambda (x) (+ x a))) (void))")


class TestTermKey:
    def test_structurally_equal_terms_share_a_key(self):
        k1 = terms.term_key(parse_program(UNIT_SRC))
        k2 = terms.term_key(parse_program(UNIT_SRC))
        assert k1 == k2
        assert len(k1) == 32

    def test_key_ignores_locations_and_formatting(self):
        reformatted = UNIT_SRC.replace(" (define", "\n   (define")
        k1 = terms.term_key(parse_program(UNIT_SRC, origin="a.scm"))
        k2 = terms.term_key(parse_program(reformatted, origin="b.scm"))
        assert k1 == k2

    def test_key_separates_structures(self):
        variants = [
            UNIT_SRC,
            UNIT_SRC.replace("(+ x a)", "(- x a)"),
            UNIT_SRC.replace("(import a)", "(import b)"),
            UNIT_SRC.replace("(export f)", "(export)")
            .replace(" f ", " g "),
        ]
        keys = {terms.term_key(parse_program(src)) for src in variants}
        assert len(keys) == len(variants)

    def test_literal_types_are_discriminated(self):
        keys = {terms.term_key(Lit(value))
                for value in (1, 1.0, "1", True, None)}
        assert len(keys) == 5

    def test_runtime_payloads_are_unkeyable(self):
        state = App(Var("f"), (Lit(object()),))
        with pytest.raises(terms.Unkeyable):
            terms.term_key(state)
        assert terms.try_term_key(state) is None

    def test_key_is_memoized_on_the_node(self):
        expr = parse_program(UNIT_SRC)
        key = terms.term_key(expr)
        assert expr.__dict__.get("_tk") == key

    def test_no_memo_writes_when_disabled(self):
        with terms.caching(False):
            expr = parse_program(UNIT_SRC)
            terms.term_key(expr)
            free_vars(expr)
            assert "_tk" not in expr.__dict__
            assert "_fv" not in expr.__dict__

    def test_memo_fields_do_not_affect_equality(self):
        plain = parse_program(UNIT_SRC)
        keyed = parse_program(UNIT_SRC)
        terms.term_key(keyed)
        free_vars(keyed)
        assert plain == keyed


COMPOUND_SRC = """
(invoke
  (compound (import) (export)
    (link ((unit (import odd?) (export even?)
             (define even? (lambda (n) (if (zero? n) #t (odd? (- n 1)))))
             (void))
           (with odd?) (provides even?))
          ((unit (import even?) (export odd?)
             (define odd? (lambda (n) (if (zero? n) #f (even? (- n 1)))))
             (odd? 7))
           (with even?) (provides odd?)))))
"""


def _deep(depth: int, leaf: int) -> object:
    """``depth`` alternating ``if``/``let`` levels, built bottom-up."""
    expr = Lit(leaf)
    for i in range(depth):
        if i % 2:
            expr = If(Var("t"), expr, Lit(i))
        else:
            expr = Let((("x", Lit(i)),), expr)
    return expr


def _all_nodes(root):
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


class TestTermKeyShape:
    def test_deep_term_keys_at_the_default_recursion_limit(self):
        first, again, other = (_deep(50_000, leaf) for leaf in (0, 0, 1))
        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert terms.term_key(first) == terms.term_key(again)
            assert terms.term_key(first) != terms.term_key(other)
        finally:
            sys.setrecursionlimit(saved)

    def test_printed_and_reparsed_copy_shares_the_key(self):
        original = parse_program(COMPOUND_SRC)
        copy = parse_program(show(original), origin="printed.scm")
        assert terms.term_key(copy) == terms.term_key(original)

    def test_only_boundaries_and_the_asked_node_carry_memos(self):
        program = parse_program(COMPOUND_SRC)
        key = terms.term_key(program)
        assert program._tk == key
        nodes = list(_all_nodes(program))
        boundaries = [n for n in nodes
                      if isinstance(n, (UnitExpr, CompoundExpr))]
        leaves = [n for n in nodes if isinstance(n, (Var, Lit))]
        assert len(boundaries) == 3 and len(leaves) > 10
        assert all(getattr(n, "_tk", None) for n in boundaries)
        assert not any(getattr(n, "_tk", None) for n in leaves)
        # A boundary's memo is its own key, asked or not.
        fresh = parse_program(COMPOUND_SRC)
        assert all(terms.term_key(a) == b._tk for a, b in zip(
            (n for n in _all_nodes(fresh)
             if isinstance(n, (UnitExpr, CompoundExpr))), boundaries))

    def test_a_nested_unit_memoizes_its_own_key(self):
        alone = terms.term_key(parse_program(UNIT_SRC))
        unit = parse_program(UNIT_SRC)
        outer = Lambda(("y",), App(Var("f"), (unit,)))
        assert terms.term_key(outer) != alone
        assert unit._tk == alone

    def test_the_programs_pycode_disk_entry_is_named_by_its_digest(
            self, tmp_path):
        program = parse_program(COMPOUND_SRC)
        with unit_cache_scope(tmp_path):
            assert backend.compile_program(program).run()[0] is True
            key = terms.term_key(program)
            disk = tmp_path / pycode_fingerprint() / "pycode"
            assert terms.SCHEMA == "tk2"
            assert [p.name for p in disk.iterdir()] == [f"{key}.py"]


class TestCachingSwitch:
    def test_set_returns_previous(self):
        prev = terms.set_caching(False)
        try:
            assert not terms.caching_enabled()
        finally:
            terms.set_caching(prev)

    def test_context_manager_restores(self):
        before = terms.caching_enabled()
        with terms.caching(not before):
            assert terms.caching_enabled() is not before
        assert terms.caching_enabled() is before


class TestSubstShortCircuit:
    def test_untouched_subtree_is_returned_identically(self):
        expr = parse_program("(lambda (x) (+ x 1))")
        assert substitute(expr, {"zzz": Lit(1)}) is expr

    def test_disabled_path_agrees(self):
        expr = parse_program("(lambda (x) (+ x y))")
        mapping = {"y": Lit(7)}
        cached = substitute(expr, mapping)
        with terms.caching(False):
            uncached = substitute(parse_program("(lambda (x) (+ x y))"),
                                  mapping)
        assert cached == uncached


class TestFreshLike:
    def test_generated_names_do_not_accumulate_suffixes(self):
        name = "x"
        for _ in range(64):
            name = fresh_like(name, set())
        assert name.startswith("x%")
        assert name.count("%") == 1

    def test_user_names_containing_percent_keep_their_stem(self):
        out = fresh_like("x%y", {"x%y"})
        assert out.startswith("x%y%")

    def test_machine_suffix_chains_are_fully_stripped(self):
        out = fresh_like("v%12%5", set())
        assert out.startswith("v%")
        assert out.count("%") == 1

    def test_avoid_set_is_respected(self):
        avoid = {f"w%{i}" for i in range(200)}
        out = fresh_like("w", avoid)
        assert out not in avoid

    def test_deeply_nested_merges_keep_names_bounded(self):
        # Link many copies of one library unit: every merge renames the
        # library's definitions apart, so each definition name survives
        # dozens of rename generations.  Lengths must stay flat.
        from repro.linking.graph import LinkGraph
        from repro.lang.pretty import show
        from repro.units.ast import InvokeExpr
        from repro.units.linker import flatten

        source = ("(unit (import) (export)"
                  " (define helper (lambda (x) (+ x 1)))"
                  " (helper 1))")
        graph = LinkGraph(exports=())
        for k in range(24):
            graph.add_box(f"c{k}", source)
        flat = flatten(InvokeExpr(graph.to_compound_expr(), ()))
        longest = max(
            (token for token in show(flat).replace("(", " ")
             .replace(")", " ").split() if token.startswith("helper")),
            key=len)
        assert len(longest) <= len("helper") + 12

"""Tests for the s-expression reader and printer."""

import math
import sys
import time

import pytest
from hypothesis import example, given, strategies as st

from repro.lang.ast import Lit
from repro.lang.errors import LexError, SrcLoc
from repro.lang.pretty import show
from repro.lang.sexpr import (
    MAX_NESTING_DEPTH,
    SList,
    Symbol,
    format_sexpr,
    read_all_sexprs,
    read_sexpr,
    slist,
    sym,
    write_sexpr,
)


class TestReadAtoms:
    def test_integer(self):
        assert read_sexpr("42") == 42

    def test_negative_integer(self):
        assert read_sexpr("-17") == -17

    def test_float(self):
        assert read_sexpr("3.25") == 3.25

    def test_symbol(self):
        assert read_sexpr("hello") == sym("hello")

    def test_symbol_with_punctuation(self):
        assert read_sexpr("set-box!") == sym("set-box!")

    def test_symbol_with_arrow(self):
        assert read_sexpr("->") == sym("->")

    def test_true(self):
        assert read_sexpr("#t") is True

    def test_false(self):
        assert read_sexpr("#f") is False

    def test_string(self):
        assert read_sexpr('"hello world"') == "hello world"

    def test_string_escapes(self):
        assert read_sexpr(r'"a\nb\tc\"d\\e"') == 'a\nb\tc"d\\e'

    def test_unknown_hash(self):
        with pytest.raises(LexError):
            read_sexpr("#q")

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            read_sexpr('"abc')


class TestNumerals:
    """Only ASCII decimal numerals, and Racket's three non-finite
    flonum literals, read as numbers; every other atom is a symbol."""

    @pytest.mark.parametrize("text,value", [
        ("0", 0), ("+5", 5), ("-0", 0), ("007", 7),
        ("3.25", 3.25), (".5", 0.5), ("5.", 5.0), ("-.5e-3", -0.0005),
        ("1e3", 1000.0), ("1E+3", 1000.0), ("1.e2", 100.0),
    ])
    def test_decimal_numerals(self, text, value):
        datum = read_sexpr(text)
        assert datum == value and type(datum) is type(value)

    @pytest.mark.parametrize("text", [
        "inf", "-inf", "+Inf", "nan", "NaN", "-nan", "infinity",
        "-INFINITY", "1_000", "1_0.5", "\u0661\u0662", "\uff11",
        "1e", ".", "+", "-", "..5", "1.2.3", "0x10", "1j", "-nan.0",
        "inf.0", "+inf.00", "1\x0c", "\x0c1", "\x0b2",
    ])
    def test_other_atoms_are_symbols(self, text):
        assert read_sexpr(text) == sym(text)

    @pytest.mark.parametrize("text", [
        "1" * 60_000 + "x",
        "-" + "1" * 60_000 + "x",
        "1" * 30_000 + "." + "1" * 30_000 + "x",
        "1.5e" + "1" * 60_000 + "x",
    ])
    def test_long_numeral_prefix_reads_in_linear_time(self, text):
        # Rejecting each numeral class backtracks over the digits once;
        # an ambiguous class would try every split, quadratic in them.
        start = time.perf_counter()
        assert read_sexpr(text) == sym(text)
        assert time.perf_counter() - start < 2.0

    def test_numeral_past_int_digit_limit_reads_as_float(self):
        digits = "9" * (sys.get_int_max_str_digits() + 1)
        assert read_sexpr(digits) == math.inf

    def test_non_finite_literals(self):
        assert read_sexpr("+inf.0") == math.inf
        assert read_sexpr("-inf.0") == -math.inf
        assert math.isnan(read_sexpr("+nan.0"))
        assert read_sexpr("(+inf.0)") == slist(math.inf)

    def test_write_non_finite(self):
        assert write_sexpr(math.inf) == "+inf.0"
        assert write_sexpr(-math.inf) == "-inf.0"
        assert write_sexpr(math.nan) == "+nan.0"
        assert write_sexpr(slist(-math.inf, 1.5)) == "(-inf.0 1.5)"
        assert show(Lit(math.inf)) == "+inf.0"
        assert math.isnan(read_sexpr(write_sexpr(math.nan)))

    def test_symbol_named_inf_can_be_defined(self):
        from repro.serve.handlers import run_pipeline

        request = {"op": "run", "source": "(define inf 3) (define nan 4)"
                                          " (+ inf nan)"}
        assert run_pipeline(request, {}) == ("7", "")


@given(st.floats(allow_nan=False))
@example(math.inf)
@example(-math.inf)
def test_float_write_read_roundtrip(value):
    assert read_sexpr(write_sexpr(value)) == value


class TestReadLists:
    def test_empty(self):
        assert read_sexpr("()") == slist()

    def test_flat(self):
        assert read_sexpr("(a 1 2)") == slist(sym("a"), 1, 2)

    def test_nested(self):
        assert read_sexpr("(a (b c) d)") == slist(
            sym("a"), slist(sym("b"), sym("c")), sym("d"))

    def test_brackets(self):
        assert read_sexpr("[a b]") == slist(sym("a"), sym("b"))

    def test_mismatched_brackets(self):
        with pytest.raises(LexError):
            read_sexpr("(a b]")

    def test_unterminated(self):
        with pytest.raises(LexError):
            read_sexpr("(a b")

    def test_stray_close(self):
        with pytest.raises(LexError):
            read_sexpr(")")

    def test_comments_skipped(self):
        assert read_sexpr("(a ; comment\n b)") == slist(sym("a"), sym("b"))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(LexError):
            read_sexpr("(a) (b)")

    def test_read_all(self):
        assert read_all_sexprs("(a) (b) 3") == [
            slist(sym("a")), slist(sym("b")), 3]

    def test_read_all_empty(self):
        assert read_all_sexprs("  ; nothing\n") == []


class TestDepthGuard:
    def test_reasonable_nesting_accepted(self):
        text = "(" * 100 + "x" + ")" * 100
        datum = read_sexpr(text)
        for _ in range(100):
            assert isinstance(datum, SList)
            datum = datum[0]
        assert datum == sym("x")

    def test_hostile_nesting_rejected_cleanly(self):
        text = "(" * 100_000 + "x" + ")" * 100_000
        with pytest.raises(LexError, match="nesting deeper"):
            read_sexpr(text)

    def test_depth_resets_between_siblings(self):
        # Sequential (not nested) lists never accumulate depth.
        text = "(" + " ".join("(a)" for _ in range(1000)) + ")"
        datum = read_sexpr(text)
        assert len(datum) == 1000


# Every malformed input the reader rejects, with the exact message and
# the 1-based line:col it reports.  List and string errors are located
# at their opener; everything else at the offending character.
_READ_ERRORS = [
    # unterminated list: the innermost open list, at its opener
    ("\n  (a (b c)", "unterminated list", 2, 3),
    ("(a\n (b c)", "unterminated list", 1, 1),
    ("(a (b", "unterminated list", 1, 4),
    # mismatched and stray closers
    ("(a\n  b]", "mismatched close paren: expected ')'", 2, 4),
    ("[a b)", "mismatched close paren: expected ']'", 1, 5),
    ("  )", "unexpected ')'", 1, 3),
    # strings
    ('(a "abc', "unterminated string literal", 1, 4),
    ('(a "ab\nc', "unterminated string literal", 1, 4),
    (' "ab\\q"', "unknown string escape '\\q'", 1, 2),
    ('"ab\\q', "unknown string escape '\\q'", 1, 1),
    ('"a\\\nb"', "unknown string escape '\\\n'", 1, 1),
    ('"ab\\', "unterminated escape in string literal", 1, 1),
    # '#' syntax
    ("(x #q)", "unknown '#' syntax", 1, 4),
    ("#T", "unknown '#' syntax", 1, 1),
    ("#tx", "bad token after #t", 1, 1),
    ("(a #fal)", "bad token after #f", 1, 4),
    ("#", "unknown '#' syntax", 1, 1),
    ("(#", "unknown '#' syntax", 1, 2),
    # text after the datum
    ("(a)\n  b", "unexpected text after datum", 2, 3),
    ("(a)\n ]", "unexpected text after datum", 2, 2),
    ("1 2", "unexpected text after datum", 1, 3),
    ('(a) "b"', "unexpected text after datum", 1, 5),
    ('1 "b', "unexpected text after datum", 1, 3),
    ("1 #t", "unexpected text after datum", 1, 3),
    ("(a) #q", "unexpected text after datum", 1, 5),
    ("1 +inf.0", "unexpected text after datum", 1, 3),
    # CRLF line ends: '\r' is a column, '\n' ends the line
    ("(a\r\n b\r\n ]", "mismatched close paren: expected ')'", 3, 2),
    # comments, including one running to end of input
    ("(a ; c", "unterminated list", 1, 1),
    ("(a) ; trailing\n x", "unexpected text after datum", 2, 2),
    # newlines inside a string advance the line
    ('(a "x\ny\n z" ]', "mismatched close paren: expected ')'", 3, 5),
    ('("x\ny" b #q)', "unknown '#' syntax", 2, 6),
    # nothing to read
    ("", "unexpected end of input", 1, 1),
    ("  ; only\n  ", "unexpected end of input", 2, 3),
    # the ungoverned nesting cap, at the opener one level too deep
    ("(" * 251, "nesting deeper than 250 levels", 1, 251),
]


@pytest.mark.parametrize("text,message,line,col", _READ_ERRORS)
def test_read_error_message_and_location(text, message, line, col):
    with pytest.raises(LexError) as exc:
        read_sexpr(text, "t.scm")
    err = exc.value
    assert (err.message, err.loc.line, err.loc.col, err.loc.origin) \
        == (message, line, col, "t.scm")
    assert str(err) == f"t.scm:{line}:{col}: {message}"


class TestNoRecursion:
    """Nesting is policy, not stack protection: the reader keeps open
    lists on an explicit stack, so only the governor bounds depth."""

    def test_very_deep_nesting_reads_under_a_large_budget(self):
        from repro.limits import Budget, budget_scope

        depth = 100_000
        limit = sys.getrecursionlimit()
        budget = Budget(max_depth=200_000)
        with budget_scope(budget):
            # A depth-capped scope raises the recursion limit; take
            # that headroom back, so only a non-recursive reader passes.
            sys.setrecursionlimit(limit)
            datum = read_sexpr("(" * depth + "x" + ")" * depth)
        assert budget.max_depth_seen == depth
        for _ in range(depth):
            assert isinstance(datum, SList) and len(datum) == 1
            datum = datum[0]
        assert datum == sym("x")

    def test_served_budget_trips_one_past_its_depth(self):
        from repro.limits import Budget, BudgetExceeded, budget_scope
        from repro.serve.handlers import MAX_DEPTH

        budget = Budget(max_depth=MAX_DEPTH)
        depth = MAX_DEPTH + 1
        with budget_scope(budget):
            with pytest.raises(BudgetExceeded) as exc:
                read_sexpr("(" * depth + ")" * depth)
        assert exc.value.resource == "depth"
        assert exc.value.limit == MAX_DEPTH
        assert (exc.value.loc.line, exc.value.loc.col) == (1, depth)
        assert budget.max_depth_seen == MAX_DEPTH

    def test_ungoverned_cap_admits_its_own_depth(self):
        # One level deeper fails: see the last row of _READ_ERRORS.
        depth = MAX_NESTING_DEPTH
        assert read_sexpr("(" * depth + ")" * depth) is not None


class TestLocations:
    def test_symbol_location(self):
        datum = read_sexpr("(a\n  b)")
        loc = SrcLoc._make(datum.items[1].loc)
        assert loc.line == 2
        assert loc.col == 3

    def test_symbol_after_multiline_string(self):
        datum = read_sexpr('(a "x\ny\n z" sym)')
        loc = SrcLoc._make(datum[2].loc)
        assert (loc.line, loc.col) == (3, 5)

    def test_crlf_columns(self):
        datum = read_sexpr("(a\r\n  b)")
        loc = SrcLoc._make(datum[1].loc)
        assert (loc.line, loc.col) == (2, 3)

    def test_locations_ignored_by_equality(self):
        assert read_sexpr("(a b)") == read_sexpr("  (a   b)")


class TestWrite:
    def test_roundtrip_simple(self):
        text = "(lambda (x) (+ x 1))"
        assert write_sexpr(read_sexpr(text)) == text

    def test_bool(self):
        assert write_sexpr(True) == "#t"
        assert write_sexpr(False) == "#f"

    def test_string_escaping(self):
        assert read_sexpr(write_sexpr('a"b\\c\nd')) == 'a"b\\c\nd'

    def test_format_breaks_long_lists(self):
        datum = slist(sym("define"), *(sym(f"name{i}") for i in range(30)))
        text = format_sexpr(datum, width=40)
        assert "\n" in text
        assert read_sexpr(text) == datum


_atoms = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.booleans(),
    st.text(alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Nd"),
        whitelist_characters=" -_!?"), max_size=12),
    st.sampled_from([sym(s) for s in
                     ("a", "b", "foo", "set!", "+", "->", "lambda%x")]),
)

_data = st.recursive(
    _atoms,
    lambda children: st.lists(children, max_size=5).map(
        lambda items: SList(tuple(items))),
    max_leaves=20,
)


@given(_data)
def test_write_read_roundtrip(datum):
    """Reading back printed data yields an equal datum."""
    assert read_sexpr(write_sexpr(datum)) == datum


@given(_data)
def test_format_read_roundtrip(datum):
    """The multi-line formatter is also read-back-equal."""
    assert read_sexpr(format_sexpr(datum, width=20)) == datum


_ATMOSPHERE = st.lists(
    st.sampled_from([" ", "\t", "\r\n", "\n", "; note\n", ";\n"]),
    max_size=3).map("".join)


def _splice_points(text):
    """Offsets of ``text`` where atmosphere may go: token boundaries
    outside string literals (found by a scanner independent of the
    reader's)."""
    inside = set()
    i = 0
    while i < len(text):
        if text[i] == '"':
            start = i
            i += 1
            while text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            inside.update(range(start + 1, i + 1))
        i += 1
    breaks = "() \n"
    return [i for i in range(len(text) + 1)
            if i not in inside
            and (i in (0, len(text)) or text[i - 1] in breaks
                 or text[i] in breaks)]


def _offset(text, loc):
    loc = SrcLoc._make(loc)
    lines = text.split("\n")
    return sum(len(line) + 1 for line in lines[:loc.line - 1]) + loc.col - 1


@given(_data, st.integers(min_value=0, max_value=24), st.data())
def test_locations_index_their_tokens(datum, width, data):
    """Every Symbol.loc points at the symbol's own name and every
    SList.loc at its opening bracket, whatever atmosphere surrounds
    them."""
    formatted = format_sexpr(datum, width=width)
    pieces = []
    last = 0
    for point in _splice_points(formatted):
        pieces.append(formatted[last:point])
        pieces.append(data.draw(_ATMOSPHERE))
        last = point
    pieces.append(formatted[last:])
    text = "".join(pieces)
    read = read_sexpr(text)
    assert read == datum
    stack = [read]
    while stack:
        node = stack.pop()
        if isinstance(node, Symbol):
            at = _offset(text, node.loc)
            assert text[at:at + len(node.name)] == node.name
            assert text[at + len(node.name):at + len(node.name) + 1] \
                in ("", " ", "\t", "\r", "\n", ";", ")")
        elif isinstance(node, SList):
            assert text[_offset(text, node.loc)] == "("
            stack.extend(node.items)

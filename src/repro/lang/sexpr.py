"""An s-expression reader and printer with source locations.

The surface syntax of the whole reproduction is s-expressions, as in
MzScheme (the paper's host language).  The reader produces a small datum
language:

* ``Symbol`` — an interned identifier,
* ``int`` / ``float`` — ASCII decimal numerals, plus ``+inf.0``,
  ``-inf.0`` and ``+nan.0`` (which ``write_sexpr`` prints for
  non-finite floats),
* ``str`` — string literals,
* ``bool`` — ``#t`` / ``#f``,
* ``SList`` — a parenthesized sequence of data.

``SList`` and ``Symbol`` carry source locations (plain ``(line, col,
origin)`` tuples, see :data:`~repro.lang.errors.Loc`) so later phases
can report positions.  ``write_sexpr`` prints a datum back to reader
syntax; reading the result yields an equal datum (a property the test
suite checks with hypothesis).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Iterator, Union

from repro import limits as _limits
from repro.lang.errors import LexError, Loc

#: The datum type produced by the reader.
Datum = Union["Symbol", "SList", int, float, str, bool]


@dataclass(frozen=True)
class Symbol:
    """An identifier datum.

    Symbols compare equal by name only; the source location is carried
    for error reporting but ignored by ``__eq__`` and ``__hash__``.
    """

    name: str
    loc: Loc | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Symbol({self.name!r})"


@dataclass(frozen=True)
class SList:
    """A parenthesized list datum.

    Like :class:`Symbol`, equality ignores the source location.
    """

    items: tuple[Datum, ...]
    loc: Loc | None = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Datum]:
        return iter(self.items)

    def __getitem__(self, index):
        return self.items[index]

    def __str__(self) -> str:
        return write_sexpr(self)

    def __repr__(self) -> str:
        return f"SList({self.items!r})"


def slist(*items: Datum) -> SList:
    """Build an :class:`SList` from the given items (convenience)."""
    return SList(tuple(items))


def sym(name: str) -> Symbol:
    """Build a :class:`Symbol` with no source location (convenience)."""
    return Symbol(name)


#: Maximum nesting depth the reader accepts when no budget governs
#: depth.  Deeper input is almost certainly hostile or malformed, so it
#: is rejected with a LexError.  This is policy, like a budget's
#: ``max_depth``: the reader keeps open lists on an explicit stack and
#: does not recurse, so any depth fits in memory.
MAX_NESTING_DEPTH = 250

# A token ends at atmosphere, a bracket, a quote or end of input.
_END = r'(?=[ \t\r\n()\[\]";]|\Z)'
# A string literal's body: anything but a quote, or an escape pair.
_BODY = r'[^"\\]*(?:\\.[^"\\]*)*'

# Atmosphere (whitespace and ``;`` line comments), then one token whose
# class is the match's ``lastindex``.  Only ASCII decimal numerals, and
# Racket's ``+inf.0``, ``-inf.0`` and ``+nan.0``, are numbers; every
# other atom is a symbol.  A ``"`` without its closing quote and a
# ``#`` other than ``#t``/``#f`` fall through to the one-character
# ``_BAD`` class, which :func:`_token_error` explains.  Every offset
# matches some class, so ``finditer`` yields contiguous tokens, ending
# with an empty ``_EOF`` match.  Each numeral class splits its digits
# one way only, so an atom that fails its ``_END`` costs linear
# backtracking, not quadratic.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|;[^\n]*)*"
    r"(?:(\()|(\[)|(\))|(\])"
    r'|"(' + _BODY + r')"'
    r"|([+-]?[0-9]+)" + _END +
    r"|([+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)" + _END +
    r"|([+-]inf\.0|\+nan\.0)" + _END +
    r"|#([tf])" + _END +
    r'|([^ \t\r\n()\[\]";#][^ \t\r\n()\[\]";]*)'
    r"|(.)"
    r"|(\Z))",
    re.DOTALL)
(_PAREN, _BRACKET, _CLOSE_PAREN, _CLOSE_BRACKET, _STRING, _INT, _DECIMAL,
 _NONFINITE, _BOOL, _SYMBOL, _BAD, _EOF) = range(1, 13)
_NONFINITE_VALUES = {"+inf.0": math.inf, "-inf.0": -math.inf,
                     "+nan.0": math.nan}

_STRING_BODY = re.compile(_BODY, re.DOTALL)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", '"': '"', "\\": "\\"}


def _token_start(m: re.Match) -> int:
    """The offset of token ``m``'s first character.

    A string's and a boolean's group starts after its ``"`` or ``#``.
    """
    kind = m.lastindex
    return m.start(kind) - (kind == _STRING or kind == _BOOL)


def _loc_at(text: str, pos: int, origin: str) -> Loc:
    """The location of offset ``pos``, counted from the start (errors)."""
    line_start = text.rfind("\n", 0, pos) + 1
    return (text.count("\n", 0, pos) + 1, pos - line_start + 1, origin)


def _unescape(body: str, loc: Loc) -> str:
    """Resolve the escapes of a string body; the first unknown one raises."""

    def resolve(match: re.Match) -> str:
        esc = match.group(1)
        if esc not in _ESCAPES:
            raise LexError(f"unknown string escape '\\{esc}'", loc)
        return _ESCAPES[esc]

    return _ESCAPE.sub(resolve, body)


def _token_error(text: str, pos: int, origin: str) -> LexError:
    """Explain why no token starts at ``pos`` (a ``"`` or a ``#``)."""
    loc = _loc_at(text, pos, origin)
    if text[pos] == '"':
        end = _STRING_BODY.match(text, pos + 1).end()
        _unescape(text[pos + 1:end], loc)
        if end < len(text):  # a backslash is the last character
            return LexError("unterminated escape in string literal", loc)
        return LexError("unterminated string literal", loc)
    if text.startswith(("#t", "#f"), pos):
        return LexError(f"bad token after {text[pos:pos + 2]}", loc)
    return LexError("unknown '#' syntax", loc)


class _Scanner:
    """Reads data one at a time from a stream of :data:`_TOKEN` matches.

    A location is computed from its offset only when a symbol or list
    needs one: ``line`` and ``line_start`` advance by the newlines
    passed since the previous location, so a location on the same line
    as the next newline's offset costs one comparison.  Open lists live
    on an explicit stack of ``(items, loc, closer)``, so reading never
    recurses.
    """

    __slots__ = ("text", "origin", "tokens", "line", "line_start",
                 "next_newline", "budget")

    def __init__(self, text: str, origin: str):
        self.text = text
        self.origin = origin
        self.tokens = _TOKEN.finditer(text)
        self.line = 1
        self.line_start = 0
        newline = text.find("\n")
        self.next_newline = newline if newline >= 0 else len(text)
        self.budget = _limits.current()

    def read(self, m: re.Match) -> Datum:
        """Read the datum that starts with token ``m``."""
        text, origin, budget, tokens = \
            self.text, self.origin, self.budget, self.tokens
        line, line_start, next_newline = \
            self.line, self.line_start, self.next_newline
        stack: list[tuple[list[Datum], Loc, int]] = []
        items: list[Datum] = []
        while True:
            kind = m.lastindex
            if kind == _SYMBOL or kind <= _BRACKET:
                start = m.start(kind)
                if start > next_newline:
                    line += text.count("\n", next_newline, start)
                    line_start = text.rindex("\n", next_newline, start) + 1
                    next_newline = text.find("\n", start)
                    if next_newline < 0:
                        next_newline = len(text)
                loc = (line, start - line_start + 1, origin)
                if kind == _SYMBOL:
                    datum: Datum = Symbol(m.group(kind), loc)
                else:
                    depth = len(stack) + 1
                    governed = (budget is not None
                                and budget.check_depth(depth, loc))
                    if not governed and depth > MAX_NESTING_DEPTH:
                        raise LexError(
                            f"nesting deeper than {MAX_NESTING_DEPTH} levels",
                            loc)
                    # An opener's class plus 2 is its closer's.
                    stack.append((items, loc, kind + 2))
                    items = []
                    m = next(tokens)
                    continue
            elif kind <= _CLOSE_BRACKET:
                if not stack:
                    start = m.start(kind)
                    raise LexError(f"unexpected '{text[start]}'",
                                   _loc_at(text, start, origin))
                parent, loc, closer = stack.pop()
                if kind != closer:
                    raise LexError(
                        "mismatched close paren: expected "
                        f"'{')' if closer == _CLOSE_PAREN else ']'}'",
                        _loc_at(text, m.start(kind), origin))
                datum = SList(tuple(items), loc)
                items = parent
            elif kind == _STRING:
                datum = m.group(kind)
                if "\\" in datum:
                    datum = _unescape(
                        datum, _loc_at(text, _token_start(m), origin))
            elif kind == _INT:
                try:
                    datum = int(m.group(kind))
                except ValueError:  # past sys.get_int_max_str_digits()
                    datum = float(m.group(kind))
            elif kind == _DECIMAL:
                datum = float(m.group(kind))
            elif kind == _BOOL:
                datum = m.group(kind) == "t"
            elif kind == _NONFINITE:
                datum = _NONFINITE_VALUES[m.group(kind)]
            elif kind == _BAD:
                raise _token_error(text, m.start(kind), origin)
            elif stack:
                raise LexError("unterminated list", stack[-1][1])
            else:
                raise LexError("unexpected end of input",
                               _loc_at(text, len(text), origin))
            if not stack:
                self.line, self.line_start, self.next_newline = \
                    line, line_start, next_newline
                return datum
            items.append(datum)
            m = next(tokens)


def read_sexpr(text: str, origin: str = "<string>") -> Datum:
    """Read a single datum from ``text``.

    Raises :class:`LexError` if the text is empty, malformed, or has
    trailing non-whitespace after the first datum.
    """
    scanner = _Scanner(text, origin)
    datum = scanner.read(next(scanner.tokens))
    m = next(scanner.tokens)
    if m.lastindex != _EOF:
        raise LexError("unexpected text after datum",
                       _loc_at(text, _token_start(m), origin))
    return datum


def read_all_sexprs(text: str, origin: str = "<string>") -> list[Datum]:
    """Read every datum in ``text`` and return them as a list."""
    scanner = _Scanner(text, origin)
    data: list[Datum] = []
    for m in scanner.tokens:
        if m.lastindex == _EOF:
            break
        data.append(scanner.read(m))
    return data


def _escape_string(value: str) -> str:
    out: list[str] = ['"']
    for ch in value:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\r":
            out.append("\\r")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def write_atom(value: bool | int | float | str) -> str:
    """Print a boolean, number or string in reader syntax."""
    if isinstance(value, bool):
        return "#t" if value else "#f"
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "+nan.0"
        return "+inf.0" if value > 0 else "-inf.0"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return _escape_string(value)
    raise TypeError(f"not a datum: {value!r}")


def write_sexpr(datum: Datum) -> str:
    """Print a datum in reader syntax (single line)."""
    if isinstance(datum, Symbol):
        return datum.name
    if isinstance(datum, SList):
        return "(" + " ".join(write_sexpr(item) for item in datum.items) + ")"
    return write_atom(datum)


def format_sexpr(datum: Datum, width: int = 78, indent: int = 0) -> str:
    """Pretty-print a datum, breaking lists that exceed ``width`` columns.

    The output reads back to an equal datum; it is used to render unit
    sources in the examples and the archive.
    """
    flat = write_sexpr(datum)
    if indent + len(flat) <= width or not isinstance(datum, SList):
        return flat
    if len(datum.items) == 0:
        return "()"
    head = format_sexpr(datum.items[0], width, indent + 1)
    lines = [f"({head}"]
    pad = " " * (indent + 2)
    for item in datum.items[1:]:
        lines.append(pad + format_sexpr(item, width, indent + 2))
    lines[-1] += ")"
    return "\n".join(lines)


def datum_to_python(datum: Datum):
    """Convert a datum to plain Python data (lists, strings, numbers).

    Symbols become strings tagged by a leading quote marker is *not*
    used; instead symbols map to their names.  This lossy view is only
    used by the archive's JSON fallback and by diagnostics.
    """
    if isinstance(datum, Symbol):
        return datum.name
    if isinstance(datum, SList):
        return [datum_to_python(item) for item in datum.items]
    return datum

"""Content addressing and memo control for term syntax.

The rewriting semantics re-walks whole terms constantly: ``invoke``
substitutes values for imports, ``compound`` alpha-renames two units
apart (Section 4.1.5), and the Figure 12 compiler recomputes free
variables at every nesting level.  Since every AST node is an
*immutable* frozen dataclass, the same structural facts never change
once computed — this module provides the shared machinery that lets
the rest of the pipeline exploit that:

* :func:`term_key` — a stable content digest of a term's *structure*
  (source locations excluded, exactly like dataclass equality), the
  key of every content-addressed cache in :mod:`repro.units.cache`;
* the **caching switch** — ``set_caching``/:func:`caching_enabled`
  and the ``REPRO_NO_TERM_CACHE`` environment variable, the
  ``--no-term-cache`` escape hatch that forces the unmemoized path for
  differential testing.

Memo fields are written with ``object.__setattr__`` onto the frozen
nodes themselves (``_fv`` for free variables, ``_tk`` for the digest).
They never appear in ``==``/``repr`` (dataclasses compare declared
fields only) and they are valid for the node's whole lifetime because
nodes are immutable — there is no invalidation problem to solve.
Memos are read with ``getattr(node, name, None)``, never through
``node.__dict__``: touching ``__dict__`` materialises a separate dict
object per node, one more object for the garbage collector to trace.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from typing import Iterator

from repro.lang.ast import (
    App,
    Expr,
    If,
    Lambda,
    Let,
    Letrec,
    Lit,
    Seq,
    SetBang,
    Var,
)
from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr

#: Version tag mixed into every digest.  Bump it whenever the
#: serialization below changes shape: old digests (including on-disk
#: cache entries, which live under a directory named after this tag)
#: become unreachable instead of wrong.
SCHEMA = "tk1"

#: The global term-caching switch.  On by default; ``--no-term-cache``
#: (or the environment variable) turns off memo reads *and* writes, so
#: the old recompute-everything path runs for differential testing.
_enabled = os.environ.get("REPRO_NO_TERM_CACHE", "") in ("", "0")


def caching_enabled() -> bool:
    """Is the term-performance layer (memo fields) active?"""
    return _enabled


def set_caching(on: bool) -> bool:
    """Set the caching switch; returns the previous value."""
    global _enabled
    prev = _enabled
    _enabled = bool(on)
    return prev


@contextmanager
def caching(on: bool) -> Iterator[None]:
    """Scope the caching switch (tests and the differential sweep)."""
    prev = set_caching(on)
    try:
        yield
    finally:
        set_caching(prev)


class Unkeyable(TypeError):
    """The term embeds run-time data and has no stable content digest.

    The machine carries primitive data (pairs, boxes, hash tables)
    inside :class:`~repro.lang.ast.Lit` nodes; such terms are program
    *states*, not program *syntax*, and content-addressed caches must
    not key on them.  Callers use :func:`try_term_key` to skip caching
    instead of crashing.
    """


_ATOM_TAGS = {int: b"i", float: b"f", str: b"s", bool: b"b"}


def _put(h, *parts: str) -> None:
    """Feed length-prefixed utf-8 strings (no concatenation ambiguity)."""
    for part in parts:
        data = part.encode("utf-8")
        h.update(str(len(data)).encode("ascii"))
        h.update(b":")
        h.update(data)


def term_key(expr: Expr) -> str:
    """A stable structural digest of ``expr`` (hex, 32 chars).

    Two terms have the same key iff they are structurally equal in the
    dataclass sense — source locations are excluded (``loc`` carries
    ``compare=False``), so a parsed copy of a printed term keys the
    same as the original.  Raises :class:`Unkeyable` for terms holding
    non-literal run-time data.
    """
    cached = getattr(expr, "_tk", None)
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=16)
    h.update(SCHEMA.encode("ascii"))
    _feed(expr, h)
    key = h.hexdigest()
    if _enabled:
        object.__setattr__(expr, "_tk", key)
    return key


def try_term_key(expr: Expr) -> str | None:
    """:func:`term_key`, or ``None`` when the term is unkeyable."""
    try:
        return term_key(expr)
    except Unkeyable:
        return None


def _feed_child(expr: Expr, h) -> None:
    # Child digests are memoized on the child, so digesting a large
    # term after digesting its parts costs O(1) per part.
    _put(h, term_key(expr))


def _feed(expr: Expr, h) -> None:
    if isinstance(expr, Lit):
        value = expr.value
        if value is None:
            h.update(b"Ln")
            return
        tag = _ATOM_TAGS.get(type(value))
        if tag is None:
            raise Unkeyable(
                f"term embeds run-time data and cannot be content-"
                f"addressed: {type(value).__name__}")
        h.update(b"L")
        h.update(tag)
        _put(h, repr(value))
        return
    if isinstance(expr, Var):
        h.update(b"V")
        _put(h, expr.name)
        return
    if isinstance(expr, Lambda):
        h.update(b"\\")
        _put(h, *expr.params)
        _feed_child(expr.body, h)
        return
    if isinstance(expr, App):
        h.update(b"A")
        _feed_child(expr.fn, h)
        for arg in expr.args:
            _feed_child(arg, h)
        return
    if isinstance(expr, If):
        h.update(b"I")
        for part in (expr.test, expr.then, expr.orelse):
            _feed_child(part, h)
        return
    if isinstance(expr, (Let, Letrec)):
        h.update(b"T" if isinstance(expr, Let) else b"R")
        for name, rhs in expr.bindings:
            _put(h, name)
            _feed_child(rhs, h)
        _feed_child(expr.body, h)
        return
    if isinstance(expr, SetBang):
        h.update(b"!")
        _put(h, expr.name)
        _feed_child(expr.expr, h)
        return
    if isinstance(expr, Seq):
        h.update(b"Q")
        for sub in expr.exprs:
            _feed_child(sub, h)
        return
    if isinstance(expr, UnitExpr):
        h.update(b"U")
        _put(h, *expr.imports)
        h.update(b"/")
        _put(h, *expr.exports)
        h.update(b"/")
        for name, rhs in expr.defns:
            _put(h, name)
            _feed_child(rhs, h)
        _feed_child(expr.init, h)
        return
    if isinstance(expr, CompoundExpr):
        h.update(b"C")
        _put(h, *expr.imports)
        h.update(b"/")
        _put(h, *expr.exports)
        for clause in (expr.first, expr.second):
            h.update(b"(")
            _feed_child(clause.expr, h)
            _put(h, *clause.withs)
            h.update(b"/")
            _put(h, *clause.provides)
            h.update(b")")
        return
    if isinstance(expr, InvokeExpr):
        h.update(b"K")
        _feed_child(expr.expr, h)
        for name, rhs in expr.links:
            _put(h, name)
            _feed_child(rhs, h)
        return
    raise TypeError(f"term_key: unknown expression {expr!r}")


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
  key of every content-addressed cache in :mod:`repro.units.cache`.
  Each unit, compound and invoke body is serialized into one hasher by
  an explicit stack, with nested ones entering as their own digests;
  only those nodes and the node asked memoize ``_tk``, not every
  ``Var`` and ``Lit`` a cached parse holds;
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
SCHEMA = "tk2"

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

#: The nodes that get a digest of their own: a unit, compound or
#: invoke body is fed to one hasher, and its enclosing body takes only
#: its digest.  Only these nodes (and the node asked) carry ``_tk``.
_BOUNDARY = (UnitExpr, CompoundExpr, InvokeExpr)


def _s(name: str) -> bytes:
    """One length-prefixed utf-8 string (no concatenation ambiguity)."""
    data = name.encode("utf-8")
    return b"%d:%s" % (len(data), data)


def _strs(names) -> bytes:
    """A counted list of length-prefixed strings."""
    return b"%d|" % len(names) + b"".join(_s(name) for name in names)


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
    key = _digest(expr)
    if _enabled:
        object.__setattr__(expr, "_tk", key)
    return key


def try_term_key(expr: Expr) -> str | None:
    """:func:`term_key`, or ``None`` when the term is unkeyable."""
    try:
        return term_key(expr)
    except Unkeyable:
        return None


def _hex(parts: list[bytes]) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(SCHEMA.encode("ascii"))
    h.update(b"".join(parts))
    return h.hexdigest()


def _digest(root: Expr) -> str:
    """Serialize ``root`` prefix-free with an explicit stack: no
    recursion, so nesting depth is bounded by memory alone.

    The stack holds nodes still to serialize, ready ``bytes``, and
    ``(boundary, enclosing parts)`` pairs that close a boundary body:
    its digest then goes into the enclosing body's parts.  A node's
    parts are pushed in reverse, so they pop in order.
    """
    parts: list[bytes] = []
    stack: list = [root]
    pop = stack.pop
    push = stack.append
    while stack:
        item = pop()
        kind = type(item)
        if kind is bytes:
            parts.append(item)
            continue
        if kind is tuple:
            node, parts_above = item
            key = _hex(parts)
            if _enabled:
                object.__setattr__(node, "_tk", key)
            parts = parts_above
            parts.append(b"#" + key.encode("ascii"))
            continue
        if kind is Var:
            parts.append(b"V" + _s(item.name))
            continue
        if kind is Lit:
            value = item.value
            if value is None:
                parts.append(b"Ln")
                continue
            tag = _ATOM_TAGS.get(type(value))
            if tag is None:
                raise Unkeyable(
                    f"term embeds run-time data and cannot be content-"
                    f"addressed: {type(value).__name__}")
            parts.append(b"L" + tag + _s(repr(value)))
            continue
        if item is not root and isinstance(item, _BOUNDARY):
            cached = getattr(item, "_tk", None)
            if cached is not None:
                parts.append(b"#" + cached.encode("ascii"))
                continue
            push((item, parts))
            parts = []
        _expand(item, parts, push)
    return _hex(parts)


def _expand(expr: Expr, parts: list[bytes], push) -> None:
    """Emit ``expr``'s header and push its children (reversed)."""
    if isinstance(expr, Lambda):
        parts.append(b"\\" + _strs(expr.params))
        push(expr.body)
    elif isinstance(expr, App):
        parts.append(b"A%d|" % len(expr.args))
        for arg in reversed(expr.args):
            push(arg)
        push(expr.fn)
    elif isinstance(expr, If):
        parts.append(b"I")
        push(expr.orelse)
        push(expr.then)
        push(expr.test)
    elif isinstance(expr, (Let, Letrec)):
        tag = b"T" if isinstance(expr, Let) else b"R"
        parts.append(tag + b"%d|" % len(expr.bindings))
        _push_bindings(expr.bindings, expr.body, push)
    elif isinstance(expr, SetBang):
        parts.append(b"!" + _s(expr.name))
        push(expr.expr)
    elif isinstance(expr, Seq):
        parts.append(b"Q%d|" % len(expr.exprs))
        for sub in reversed(expr.exprs):
            push(sub)
    elif isinstance(expr, UnitExpr):
        parts.append(b"U" + _strs(expr.imports) + _strs(expr.exports)
                     + b"%d|" % len(expr.defns))
        _push_bindings(expr.defns, expr.init, push)
    elif isinstance(expr, CompoundExpr):
        parts.append(b"C" + _strs(expr.imports) + _strs(expr.exports))
        for clause in (expr.second, expr.first):
            push(_strs(clause.withs) + _strs(clause.provides))
            push(clause.expr)
    elif isinstance(expr, InvokeExpr):
        parts.append(b"K")
        _push_bindings(expr.links, None, push)
        push(b"%d|" % len(expr.links))
        push(expr.expr)
    else:
        raise TypeError(f"term_key: unknown expression {expr!r}")


def _push_bindings(bindings, last: Expr | None, push) -> None:
    if last is not None:
        push(last)
    for name, rhs in reversed(bindings):
        push(rhs)
        push(_s(name))

"""Core abstract syntax for the Scheme-like host language.

These are the "other core forms" of Figure 9: variables, procedures,
application, conditionals, lexical blocks (``let`` / ``letrec``),
assignment, and expression sequencing.  The unit-specific forms
(``unit`` / ``compound`` / ``invoke``) are defined in
:mod:`repro.units.ast`; they subclass :class:`Expr` because the paper
makes them core expression forms.

All nodes are immutable dataclasses.  ``loc`` carries the source
location and never participates in equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.errors import Loc


@dataclass(frozen=True)
class Expr:
    """Base class of every core-language expression."""

    #: Memo attributes written onto finished nodes: the term digest
    #: (:mod:`repro.lang.terms`) and the free variables
    #: (:mod:`repro.lang.subst`).
    _memos = ("_tk", "_fv")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        reserve_memo_names(cls)


def reserve_memo_names(cls: type) -> None:
    """Give ``cls``'s memo attributes a slot in its shared instance keys.

    CPython 3.11 stores an instance's attributes inline, without a dict
    for the garbage collector to trace, only under names its class
    registered while it still had room to grow.  That room shrinks with
    every instance built, and a parse builds thousands of nodes before
    any memo is written, so a memo name first set after that spills
    every node that carries it into a dict.  Setting each name on a
    bare instance when the class is created registers it in time.
    """
    probe = object.__new__(cls)
    for name in cls._memos:
        object.__setattr__(probe, name, None)


@dataclass(frozen=True)
class Lit(Expr):
    """A self-evaluating literal: int, float, str, bool, or void (None)."""

    value: object
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Var(Expr):
    """A variable reference."""

    name: str
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Lambda(Expr):
    """A procedure: ``(lambda (x ...) body)``."""

    params: tuple[str, ...]
    body: Expr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class App(Expr):
    """Application: ``(fn arg ...)``."""

    fn: Expr
    args: tuple[Expr, ...]
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class If(Expr):
    """Conditional: ``(if test then else)``."""

    test: Expr
    then: Expr
    orelse: Expr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Let(Expr):
    """Parallel lexical binding: ``(let ((x e) ...) body)``."""

    bindings: tuple[tuple[str, Expr], ...]
    body: Expr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Letrec(Expr):
    """The mutually recursive block the core must provide (Section 4.1).

    ``(letrec ((x e) ...) body)`` — every ``x`` is in scope in every
    ``e`` and in the body.  The unit reduction rules (Figure 11) target
    this form: invoking a unit rewrites to a ``letrec`` of the unit's
    definitions around its initialization expression.
    """

    bindings: tuple[tuple[str, Expr], ...]
    body: Expr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class SetBang(Expr):
    """Assignment: ``(set! x e)``."""

    name: str
    expr: Expr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class Seq(Expr):
    """Expression sequencing, the ``;`` form of Figure 9: ``(begin e ...)``.

    The value of the sequence is the value of the last expression.
    """

    exprs: tuple[Expr, ...]
    loc: Loc | None = field(default=None, compare=False)


VOID = Lit(None)
"""The canonical void literal, the value of effect-only expressions."""


def seq_of(*exprs: Expr) -> Expr:
    """Build a :class:`Seq`, collapsing the one-expression case."""
    if len(exprs) == 1:
        return exprs[0]
    return Seq(tuple(exprs))


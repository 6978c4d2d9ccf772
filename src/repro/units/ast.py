"""Abstract syntax of UNITd's three unit-specific forms (Figure 9).

The forms are core expressions (units are first-class values), so each
node subclasses :class:`repro.lang.ast.Expr`:

* :class:`UnitExpr` — ``unit import xi ... export xe ... val x = e ... e``
* :class:`CompoundExpr` — the two-constituent linking form
* :class:`InvokeExpr` — invocation with explicit import links

``CompoundExpr`` is deliberately restricted to exactly two constituents
with name-matched linking, as in the paper's calculus.  The n-ary,
renaming MzScheme generalization lives in
:mod:`repro.linking.compound_n` and elaborates into this form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast import Expr
from repro.lang.errors import Loc


@dataclass(frozen=True)
class UnitExpr(Expr):
    """An atomic unit: unevaluated definitions behind an import/export
    interface.

    ``defns`` is a sequence of ``(name, expr)`` pairs — the ``val x = e``
    definitions — and ``init`` is the initialization expression evaluated
    when the unit is invoked.  Imports are bound in every definition and
    in ``init``; exports must be defined within the unit (checked by
    :func:`repro.units.check.check_unit`).
    """

    imports: tuple[str, ...]
    exports: tuple[str, ...]
    defns: tuple[tuple[str, Expr], ...]
    init: Expr
    loc: Loc | None = field(default=None, compare=False)

    #: Also the defined names, and every ``set!`` target inside the
    #: unit (:mod:`repro.units.optimize`).
    _memos = (*Expr._memos, "_defined", "_assigned")

    @property
    def defined(self) -> tuple[str, ...]:
        """The variables defined by this unit, in definition order."""
        # Memoized on the frozen instance: the optimizer and linker
        # consult this on every pass, and defns never mutates.
        cached = getattr(self, "_defined", None)
        if cached is None:
            cached = tuple(name for name, _ in self.defns)
            object.__setattr__(self, "_defined", cached)
        return cached


@dataclass(frozen=True)
class LinkClause:
    """One ``e with xw ... provides xp ...`` line of a compound form.

    ``withs`` lists the variables the constituent is expected to import;
    ``provides`` lists the variables it is expected to export.
    """

    expr: Expr
    withs: tuple[str, ...]
    provides: tuple[str, ...]
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class CompoundExpr(Expr):
    """The two-unit linking form of Section 4.1.2.

    Variables are linked *by name*: the ``withs`` of the first clause
    must be drawn from the compound's imports plus the second clause's
    ``provides``, and symmetrically for the second clause.  The
    compound's exports must be drawn from the union of the two
    ``provides`` sets.  These constraints are enforced statically by
    :func:`repro.units.check.check_compound`.
    """

    imports: tuple[str, ...]
    exports: tuple[str, ...]
    first: LinkClause
    second: LinkClause
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class InvokeExpr(Expr):
    """Invocation: ``invoke e with x = e ...`` (Section 4.1.3).

    ``links`` supplies a value expression for each import the unit
    requires; supplying too few is a *run-time* error (the invoked unit
    is not known statically in UNITd).
    """

    expr: Expr
    links: tuple[tuple[str, Expr], ...]
    loc: Loc | None = field(default=None, compare=False)


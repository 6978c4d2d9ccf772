"""Abstract syntax for the typed calculi UNITc and UNITe.

Figure 13 extends the unit language with types: interfaces declare
kinds for type variables and types for value variables, and unit
bodies contain datatype definitions (and, in UNITe per Figure 16, type
equations) alongside value definitions.

The typed expression language is a separate AST from the untyped core
(:mod:`repro.lang.ast`): lambdas and letrecs carry annotations, and
tuples/boxes are structural forms so the checker can type them without
polymorphism.  :mod:`repro.unitc.erase` maps every typed expression to
an untyped core expression for execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast import reserve_memo_names
from repro.lang.errors import Loc
from repro.types.kinds import Kind
from repro.types.types import Type


@dataclass(frozen=True)
class TExpr:
    """Base class of typed expressions."""

    #: The free value variables (:mod:`repro.lang.subst`), under the
    #: same memo name as :class:`repro.lang.ast.Expr`'s.
    _memos = ("_fv",)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        reserve_memo_names(cls)


@dataclass(frozen=True)
class TLit(TExpr):
    """A literal: int, str, bool, or void (None)."""

    value: object
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TVar(TExpr):
    """A variable reference."""

    name: str
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TLambda(TExpr):
    """An annotated procedure: ``(lambda ((x tau) ...) body)``."""

    params: tuple[tuple[str, Type], ...]
    body: TExpr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TApp(TExpr):
    """Application."""

    fn: TExpr
    args: tuple[TExpr, ...]
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TIf(TExpr):
    """Conditional; the test must have type bool."""

    test: TExpr
    then: TExpr
    orelse: TExpr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TLet(TExpr):
    """Parallel binding with inferred types: ``(let ((x e) ...) body)``."""

    bindings: tuple[tuple[str, TExpr], ...]
    body: TExpr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TLetrec(TExpr):
    """Annotated recursive block: ``(letrec ((x tau e) ...) body)``."""

    bindings: tuple[tuple[str, Type, TExpr], ...]
    body: TExpr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TSeq(TExpr):
    """Sequencing; the type is the last expression's type."""

    exprs: tuple[TExpr, ...]
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TSet(TExpr):
    """Assignment to a variable; result type void."""

    name: str
    expr: TExpr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TTuple(TExpr):
    """Tuple construction; type is the product of component types."""

    exprs: tuple[TExpr, ...]
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TProj(TExpr):
    """Tuple projection (0-based): ``(proj i e)``."""

    index: int
    expr: TExpr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TBox(TExpr):
    """Allocate a reference cell: ``(box e)``."""

    expr: TExpr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TUnbox(TExpr):
    """Read a reference cell: ``(unbox e)``."""

    expr: TExpr
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TSetBox(TExpr):
    """Write a reference cell: ``(set-box! e e)``; result type void."""

    box: TExpr
    expr: TExpr
    loc: Loc | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Unit-level definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatatypeDefn:
    """A two-variant constructed type (Section 4.2):

    ``type t = xc1, xd1 tau1 | xcr, xdr taur |> xt``

    ``ctor1 : tau1 -> t`` constructs the first variant and ``dtor1 :
    t -> tau1`` deconstructs it (signalling a run-time error on the
    wrong variant); likewise ``ctor2``/``dtor2`` for the second; the
    predicate ``pred : t -> bool`` returns true exactly for first-variant
    instances.  ``tau1``/``tau2`` may reference ``t`` or other unit type
    variables, giving (mutually) recursive datatypes.
    """

    name: str
    ctor1: str
    dtor1: str
    ty1: Type
    ctor2: str
    dtor2: str
    ty2: Type
    pred: str
    loc: Loc | None = field(default=None, compare=False)

    @property
    def value_names(self) -> tuple[str, ...]:
        """The five value variables the definition introduces."""
        return (self.ctor1, self.dtor1, self.ctor2, self.dtor2, self.pred)


@dataclass(frozen=True)
class TypeEqn:
    """A UNITe type equation ``type t :: kappa = tau`` (Figure 16)."""

    name: str
    kind: Kind
    rhs: Type
    loc: Loc | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# Typed unit forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypedUnitExpr(TExpr):
    """A typed unit (Figures 13 and 16).

    ``defns`` entries are ``(name, declared type, expression)`` —
    the ``val x : tau = e`` definitions.  ``datatypes`` and
    ``equations`` are the unit's type definitions; equations are empty
    in plain UNITc programs.
    """

    timports: tuple[tuple[str, Kind], ...]
    vimports: tuple[tuple[str, Type], ...]
    texports: tuple[tuple[str, Kind], ...]
    vexports: tuple[tuple[str, Type], ...]
    datatypes: tuple[DatatypeDefn, ...]
    equations: tuple[TypeEqn, ...]
    defns: tuple[tuple[str, Type, TExpr], ...]
    init: TExpr
    loc: Loc | None = field(default=None, compare=False)

    @property
    def defined_types(self) -> tuple[str, ...]:
        """Type names introduced by datatypes and equations."""
        return tuple(d.name for d in self.datatypes) + tuple(
            e.name for e in self.equations)

    @property
    def defined_values(self) -> tuple[str, ...]:
        """Value names introduced by datatypes and val definitions."""
        names: list[str] = []
        for d in self.datatypes:
            names.extend(d.value_names)
        names.extend(name for name, _, _ in self.defns)
        return tuple(names)


@dataclass(frozen=True)
class TypedLinkClause:
    """A typed with/provides clause: declarations, not just names."""

    expr: TExpr
    with_types: tuple[tuple[str, Kind], ...]
    with_values: tuple[tuple[str, Type], ...]
    prov_types: tuple[tuple[str, Kind], ...]
    prov_values: tuple[tuple[str, Type], ...]
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TypedCompoundExpr(TExpr):
    """The typed two-constituent compound (Figures 13 and 16)."""

    timports: tuple[tuple[str, Kind], ...]
    vimports: tuple[tuple[str, Type], ...]
    texports: tuple[tuple[str, Kind], ...]
    vexports: tuple[tuple[str, Type], ...]
    first: TypedLinkClause
    second: TypedLinkClause
    loc: Loc | None = field(default=None, compare=False)


@dataclass(frozen=True)
class TypedInvokeExpr(TExpr):
    """Typed invocation: imports satisfied by types and values.

    ``tlinks`` supply actual types for imported type variables;
    ``vlinks`` supply values for imported value variables
    (Section 3.4's dynamic linking uses exactly this form).
    """

    expr: TExpr
    tlinks: tuple[tuple[str, Type], ...]
    vlinks: tuple[tuple[str, TExpr], ...]
    loc: Loc | None = field(default=None, compare=False)

"""Link graphs: the paper's box-and-arrow language, programmatically.

Section 3 presents linking "using an informal, semi-graphical
programming language ... programmers will define modules and linking by
actually drawing boxes and arrows."  :class:`LinkGraph` (untyped) and
:class:`TypedLinkGraph` (typed) are the programmatic equivalent: boxes
hold unit expressions, arrows connect like-named exports to imports,
and :meth:`LinkGraph.to_compound_expr` compiles the whole graph to a
nest of the calculus's *binary* compounds — demonstrating that the
two-unit form of Figure 9 suffices to express arbitrary link graphs.

Both graphs compile through one lowering, :func:`lower_balanced`. It
splits the boxes, in insertion order, into balanced halves and links
the two halves with one compound:

* each compound imports what its halves need from outside them and
  exports only the names that its sibling or an enclosing level needs
  (Racket's ``define-compound-unit/infer`` likewise links only the
  names that cross), so the nest is ⌈log₂ n⌉ compounds deep and its
  text grows with the arrows, not with every name provided so far,
* the root compound takes the graph's declared imports and exports,
  hiding everything else — the Figure 2 ``delete`` hiding falls out of
  this step,
* initialization expressions run in box-insertion order: the split
  keeps the boxes in order, and the compound rule runs the first
  constituent's initialization before the second's.

Cyclic dependencies between boxes need no special treatment: the binary
compound links its two sides mutually recursively, so an arrow may
cross a split in either direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from repro.lang.ast import Expr, Lit
from repro.lang.errors import CheckError
from repro.lang.parser import parse_program
from repro.unitc.ast import (
    TLit,
    TypedCompoundExpr,
    TypedInvokeExpr,
    TypedLinkClause,
    TypedUnitExpr,
)
from repro.unitc.parser import parse_typed_program
from repro.units.ast import CompoundExpr, InvokeExpr, LinkClause, UnitExpr


@dataclass
class Box:
    """A node in an untyped link graph."""

    name: str
    expr: Expr
    withs: tuple[str, ...]
    provides: tuple[str, ...]


_EMPTY_UNIT = UnitExpr((), (), (), Lit(None))


def _name(decl) -> str:
    """A bare name (untyped), or the name of a ``(name, kind or type)``
    declaration (typed)."""
    return decl if isinstance(decl, str) else decl[0]


def lower_balanced(leaves, imports, exports, empty, compound, clause):
    """Lower boxes to a balanced nest of binary compounds.

    ``leaves`` are ``(expr, withs, provides)`` triples in box order.
    They, ``imports`` and ``exports`` hold one tuple of declarations
    per namespace: names, or types then values.  ``compound`` and
    ``clause`` build the syntax from those tuples, spread.  The root
    takes ``imports`` and ``exports``; ``empty`` pads a graph of fewer
    than two boxes, first, so the last box's initialization still gives
    the program's result.
    """
    def keys(spaces):
        return {(i, _name(d)) for i, decls in enumerate(spaces) for d in decls}

    def keep(spaces, wanted):
        # The declarations in ``wanted``, one per name, sorted by name.
        return tuple(tuple({_name(d): d for d in sorted(decls, key=_name)
                            if (i, _name(d)) in wanted}.values())
                     for i, decls in enumerate(spaces))

    def join(part, side):
        # Every leaf's withs (side 1) or provides (side 2).
        return tuple(tuple(chain.from_iterable(decls))
                     for decls in zip(*(leaf[side] for leaf in part)))

    def lower(part, needed, interface=None):
        # One clause for ``part``, providing only the names in ``needed``.
        if len(part) == 1:
            expr, withs, provides = part[0]
            return expr, withs, keep(provides, needed)
        used, offered = join(part, 1), join(part, 2)
        needed = needed & keys(offered)  # keeps ``needed`` O(len(part))
        left, right = part[:len(part) // 2], part[len(part) // 2:]
        first = lower(left, needed | keys(join(right, 1)))
        second = lower(right, needed | keys(join(left, 1)))
        withs, provides = interface or (
            keep(used, keys(used) - keys(offered)), keep(offered, needed))
        clauses = (clause(e, *ws, *ps) for e, ws, ps in (first, second))
        return compound(*withs, *provides, *clauses), withs, provides

    pad = (empty, ((),) * len(imports), ((),) * len(imports))
    leaves = [pad] * (2 - len(leaves)) + list(leaves)
    return lower(leaves, keys(exports), (imports, exports))[0]


class LinkGraph:
    """An untyped link graph over UNITd units."""

    def __init__(self, imports: tuple[str, ...] = (),
                 exports: tuple[str, ...] = ()):
        self.imports = tuple(imports)
        self.exports = tuple(exports)
        self.boxes: list[Box] = []

    # -- construction -----------------------------------------------------

    def add_box(self, name: str, unit, withs=None, provides=None) -> Box:
        """Add a unit box.

        ``unit`` may be a :class:`UnitExpr`, any expression evaluating
        to a unit, or source text.  For a literal ``UnitExpr`` the
        ``withs``/``provides`` clauses default to the unit's own
        interface.
        """
        if isinstance(unit, str):
            unit = parse_program(unit)
        if withs is None or provides is None:
            if not isinstance(unit, UnitExpr):
                raise CheckError(
                    f"box '{name}': withs/provides are required unless "
                    f"the box holds a literal unit expression")
            withs = unit.imports if withs is None else withs
            provides = unit.exports if provides is None else provides
        box = Box(name, unit, tuple(withs), tuple(provides))
        self.boxes.append(box)
        return box

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Check the graph's wiring before compilation."""
        provided: dict[str, str] = {}
        imported = set(self.imports)
        for box in self.boxes:
            for name in box.provides:
                if name in provided:
                    raise CheckError(
                        f"graph: '{name}' provided by both "
                        f"'{provided[name]}' and '{box.name}'")
                if name in imported:
                    raise CheckError(
                        f"graph: '{name}' is both an import and provided "
                        f"by '{box.name}'")
                provided[name] = box.name
        available = set(self.imports) | set(provided)
        for box in self.boxes:
            for name in box.withs:
                if name not in available:
                    raise CheckError(
                        f"graph: box '{box.name}' needs '{name}', which "
                        f"no box provides and the graph does not import")
        for name in self.exports:
            if name not in provided:
                raise CheckError(
                    f"graph: export '{name}' is not provided by any box")

    def arrows(self) -> list[tuple[str, str, str]]:
        """The graph's arrows as ``(source box, name, target box)``.

        An arrow from the pseudo-box ``<imports>`` represents an outer
        import flowing in.
        """
        provider: dict[str, str] = {}
        for box in self.boxes:
            for name in box.provides:
                provider[name] = box.name
        out: list[tuple[str, str, str]] = []
        for box in self.boxes:
            for name in box.withs:
                out.append((provider.get(name, "<imports>"), name, box.name))
        return out

    # -- compilation -------------------------------------------------------

    def to_compound_expr(self) -> Expr:
        """Compile the graph to nested binary ``compound`` expressions."""
        self.validate()
        return lower_balanced(
            [(box.expr, (box.withs,), (box.provides,))
             for box in self.boxes],
            (self.imports,), (self.exports,), _EMPTY_UNIT,
            CompoundExpr, LinkClause)

    def to_invoke_expr(self, links: dict[str, Expr] | None = None) -> Expr:
        """Compile to an ``invoke`` of the compiled compound."""
        links = links or {}
        return InvokeExpr(self.to_compound_expr(),
                          tuple(links.items()))

    # -- rendering ------------------------------------------------------------

    def render(self) -> str:
        """ASCII rendering: one box per unit, then the arrow list."""
        lines: list[str] = []
        for box in self.boxes:
            header = f"+--{box.name}" + "-" * max(1, 30 - len(box.name)) + "+"
            lines.append(header)
            lines.append(_row("imports: " + ", ".join(box.withs)))
            lines.append(_row("exports: " + ", ".join(box.provides)))
            lines.append("+" + "-" * (len(header) - 2) + "+")
        if self.imports:
            lines.append("graph imports: " + ", ".join(self.imports))
        lines.append("graph exports: " + ", ".join(self.exports))
        for src, name, dst in self.arrows():
            lines.append(f"  {src} --{name}--> {dst}")
        return "\n".join(lines)


    def to_dot(self, name: str = "linkgraph") -> str:
        """Render the graph in Graphviz DOT syntax.

        Boxes become record nodes listing their ports; arrows are
        labelled with the linked variable.  Useful for actually
        *drawing* the paper's figures.
        """
        lines = [f"digraph {name} {{", "  rankdir=LR;",
                 "  node [shape=record];"]
        for box in self.boxes:
            imports = ", ".join(box.withs) or "-"
            exports = ", ".join(box.provides) or "-"
            lines.append(
                f'  "{box.name}" [label="{{{box.name}|imports: {imports}'
                f'|exports: {exports}}}"];')
        if self.imports:
            lines.append('  "<imports>" [shape=plaintext];')
        for src, label, dst in self.arrows():
            lines.append(f'  "{src}" -> "{dst}" [label="{label}"];')
        lines.append("}")
        return "\n".join(lines)


def _row(text: str, width: int = 31) -> str:
    return "| " + text.ljust(width) + "|"


# ---------------------------------------------------------------------------
# Typed link graphs
# ---------------------------------------------------------------------------


@dataclass
class TypedBox:
    """A node in a typed link graph: ``withs`` and ``provides`` are each
    a pair of declaration tuples, types then values."""

    name: str
    expr: object  # a TExpr
    withs: tuple[tuple[tuple[str, object], ...], ...]
    provides: tuple[tuple[tuple[str, object], ...], ...]


class TypedLinkGraph:
    """A typed link graph over UNITc/UNITe units.

    Declarations carry kinds and types; compilation produces nested
    ``compound/t`` expressions that the Figure 15/19 checker verifies.
    """

    def __init__(self,
                 timports=(), vimports=(), texports=(), vexports=()):
        self.timports = tuple(timports)
        self.vimports = tuple(vimports)
        self.texports = tuple(texports)
        self.vexports = tuple(vexports)
        self.boxes: list[TypedBox] = []

    def add_box(self, name: str, unit, with_types=None, with_values=None,
                prov_types=None, prov_values=None) -> TypedBox:
        """Add a typed unit box; clauses default to a literal unit's
        interface."""
        if isinstance(unit, str):
            unit = parse_typed_program(unit)
        if any(clause is None for clause in
               (with_types, with_values, prov_types, prov_values)):
            if not isinstance(unit, TypedUnitExpr):
                raise CheckError(
                    f"box '{name}': full clauses are required unless the "
                    f"box holds a literal unit/t expression")
            with_types = unit.timports if with_types is None else with_types
            with_values = unit.vimports if with_values is None else with_values
            prov_types = unit.texports if prov_types is None else prov_types
            prov_values = unit.vexports if prov_values is None else prov_values
        box = TypedBox(name, unit, (tuple(with_types), tuple(with_values)),
                       (tuple(prov_types), tuple(prov_values)))
        self.boxes.append(box)
        return box

    def to_compound_expr(self):
        """Compile to nested ``compound/t`` expressions."""
        return lower_balanced(
            [(box.expr, box.withs, box.provides) for box in self.boxes],
            (self.timports, self.vimports), (self.texports, self.vexports),
            TypedUnitExpr((), (), (), (), (), (), (), TLit(None)),
            TypedCompoundExpr, TypedLinkClause)

    def to_invoke_expr(self, tlinks=(), vlinks=()):
        """Compile to an ``invoke/t`` of the compiled compound."""
        return TypedInvokeExpr(self.to_compound_expr(),
                               tuple(tlinks), tuple(vlinks))

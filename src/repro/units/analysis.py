"""Static analysis of unit programs: linkage diagnostics.

The paper's workflow (DrScheme assembling many components) invites
tooling: which imports does a unit actually use?  Which provided
variables does nothing consume?  This module answers those questions
over UNITd programs:

* :func:`used_imports` / :func:`unused_imports` — per-unit import use,
* :func:`dead_provides` — compound-level: provided names that neither
  the sibling clause consumes nor the compound exports,
* :func:`lint` — walk a whole program and collect diagnostics,
* :func:`linkage_summary` — a human-readable report of a compound
  tree's wiring (the textual cousin of the link-graph rendering).

Diagnostics are advisory: all of these programs are *legal* (Figure 10
deliberately permits unused withs — "need no more than the expected
imports"), which is exactly why a linter is useful.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.ast import Expr, Letrec
from repro.lang.subst import children, free_vars
from repro.units.ast import CompoundExpr, InvokeExpr, UnitExpr


@dataclass(frozen=True)
class Diagnostic:
    """One advisory finding."""

    severity: str  # "warning" | "info"
    where: str     # a path like "program/compound[1]/unit"
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.where}: {self.message}"


def used_imports(unit: UnitExpr) -> frozenset[str]:
    """The subset of a unit's imports referenced by its body."""
    body = Letrec(unit.defns, unit.init)
    return free_vars(body) & frozenset(unit.imports)


def unused_imports(unit: UnitExpr) -> tuple[str, ...]:
    """Imports the unit declares but never references, in order."""
    used = used_imports(unit)
    return tuple(name for name in unit.imports if name not in used)


def unexported_definitions(unit: UnitExpr) -> tuple[str, ...]:
    """Defined names that are neither exported nor referenced.

    A definition referenced by another definition (or the init) is
    considered used even if not exported.
    """
    exported = set(unit.exports)
    referenced: set[str] = set()
    for index, (_, rhs) in enumerate(unit.defns):
        referenced |= free_vars(rhs)
    referenced |= free_vars(unit.init)
    return tuple(name for name in unit.defined
                 if name not in exported and name not in referenced)


def dead_provides(compound: CompoundExpr) -> tuple[str, ...]:
    """Provided names with no consumer.

    A provide is live when the other clause lists it in its ``with``
    set or the compound exports it.
    """
    exported = set(compound.exports)
    dead: list[str] = []
    for clause, other in ((compound.first, compound.second),
                          (compound.second, compound.first)):
        consumers = set(other.withs) | exported
        dead.extend(name for name in clause.provides
                    if name not in consumers)
    return tuple(dead)


def lint(expr: Expr, where: str = "program") -> list[Diagnostic]:
    """Collect advisory diagnostics over a whole program."""
    out: list[Diagnostic] = []
    if isinstance(expr, UnitExpr):
        for name in unused_imports(expr):
            out.append(Diagnostic(
                "warning", where, f"import '{name}' is never referenced"))
        for name in unexported_definitions(expr):
            out.append(Diagnostic(
                "warning", where,
                f"definition '{name}' is neither exported nor used"))
        for index, (_, rhs) in enumerate(expr.defns):
            out.extend(lint(rhs, f"{where}/defn[{index}]"))
        out.extend(lint(expr.init, f"{where}/init"))
        return out
    if isinstance(expr, CompoundExpr):
        for name in dead_provides(expr):
            out.append(Diagnostic(
                "warning", where,
                f"provided variable '{name}' has no consumer"))
        for label, clause in (("first", expr.first), ("second", expr.second)):
            inner = clause.expr
            if isinstance(inner, UnitExpr):
                declared = set(clause.withs)
                actual = set(inner.imports)
                for name in sorted(declared - actual):
                    out.append(Diagnostic(
                        "info", f"{where}/{label}",
                        f"with-variable '{name}' is not imported by the "
                        f"constituent"))
            out.extend(lint(inner, f"{where}/{label}"))
        return out
    if isinstance(expr, InvokeExpr):
        target = expr.expr
        if isinstance(target, UnitExpr):
            supplied = {name for name, _ in expr.links}
            for name in sorted(supplied - set(target.imports)):
                out.append(Diagnostic(
                    "info", where,
                    f"invoke supplies '{name}', which the unit does not "
                    f"import"))
        out.extend(lint(expr.expr, f"{where}/target"))
        for name, rhs in expr.links:
            out.extend(lint(rhs, f"{where}/link[{name}]"))
        return out
    try:
        kids = children(expr)
    except TypeError:
        return out
    for index, child in enumerate(kids):
        out.extend(lint(child, f"{where}/{index}"))
    return out


def linkage_summary(expr: Expr, indent: int = 0) -> str:
    """Render a compound tree's wiring as indented text."""
    pad = "  " * indent
    if isinstance(expr, UnitExpr):
        return (f"{pad}unit imports({', '.join(expr.imports)}) "
                f"exports({', '.join(expr.exports)})")
    if isinstance(expr, CompoundExpr):
        lines = [f"{pad}compound imports({', '.join(expr.imports)}) "
                 f"exports({', '.join(expr.exports)})"]
        for label, clause in (("first", expr.first), ("second", expr.second)):
            lines.append(
                f"{pad}  {label}: with({', '.join(clause.withs)}) "
                f"provides({', '.join(clause.provides)})")
            lines.append(linkage_summary(clause.expr, indent + 2))
        return "\n".join(lines)
    if isinstance(expr, InvokeExpr):
        names = ", ".join(name for name, _ in expr.links)
        return (f"{pad}invoke with({names})\n"
                + linkage_summary(expr.expr, indent + 1))
    return f"{pad}<expression>"

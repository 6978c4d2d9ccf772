"""N-ary compounds and internal/external renaming (MzScheme-style).

The calculus restricts ``compound`` to two constituents linked strictly
by name; MzScheme generalizes both restrictions (Sections 4.1.1–4.1.2).
This module implements the generalizations at the unit-*value* level,
as :class:`~repro.lang.values.UnitValue` subclasses that instantiate
their constituents through the same
:meth:`~repro.lang.values.UnitValue.instantiate` protocol:

* :class:`RenamedUnitValue` — a unit with separate internal (binding)
  and external (linking) names: the wrapper maps external names to the
  wrapped unit's internal ones, cell for cell.
* :class:`NCompoundUnitValue` — any number of constituents at once,
  wired by explicit (constituent port → namespace name) pairs.

Both are ordinary unit values: they can be linked into further
compounds, passed to procedures, and invoked.  The test suite checks
that an :class:`NCompoundUnitValue` behaves exactly like the
corresponding nest of binary compounds when the names happen to align.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.errors import UnitLinkError
from repro.lang.values import Cell, UnitValue


class RenamedUnitValue(UnitValue):
    """A unit value whose interface names have been renamed.

    ``import_map`` / ``export_map`` map *external* names to the wrapped
    unit's *internal* names.  Unmapped internal names keep their names.
    """

    __slots__ = ("inner", "import_map", "export_map", "imports", "exports")

    def __init__(self, inner: UnitValue,
                 import_map: dict[str, str],
                 export_map: dict[str, str]):
        self.inner = inner
        self.import_map = dict(import_map)
        self.export_map = dict(export_map)
        self.imports = tuple(self._externals(inner.imports, self.import_map))
        self.exports = tuple(self._externals(inner.exports, self.export_map))

    @staticmethod
    def _externals(internals, mapping: dict[str, str]):
        reverse = {internal: external
                   for external, internal in mapping.items()}
        return [reverse.get(name, name) for name in internals]

    def instantiate(self, host, cells: dict[str, Cell]) -> list:
        """Translate external cells to internal names and delegate."""
        inner_cells: dict[str, Cell] = {}
        for external, internal in zip(self.imports, self.inner.imports):
            if external not in cells:
                raise UnitLinkError(
                    f"renamed unit: no cell for import '{external}'")
            inner_cells[internal] = cells[external]
        for external, internal in zip(self.exports, self.inner.exports):
            inner_cells[internal] = cells.get(external, Cell())
        return self.inner.instantiate(host, inner_cells)


def rename_unit(unit: UnitValue,
                imports: dict[str, str] | None = None,
                exports: dict[str, str] | None = None) -> UnitValue:
    """Rename a unit's interface.

    ``imports`` / ``exports`` map **internal → external** names (the
    direction a programmer writes: "export my ``insert`` as
    ``db-insert``").  Names not mentioned keep themselves.
    """
    imports = imports or {}
    exports = exports or {}
    for internal in imports:
        if internal not in unit.imports:
            raise UnitLinkError(
                f"rename_unit: '{internal}' is not an import of the unit")
    for internal in exports:
        if internal not in unit.exports:
            raise UnitLinkError(
                f"rename_unit: '{internal}' is not an export of the unit")
    import_map = {ext: internal for internal, ext in imports.items()}
    export_map = {ext: internal for internal, ext in exports.items()}
    if len(import_map) != len(imports) or len(export_map) != len(exports):
        raise UnitLinkError("rename_unit: renaming collides two names")
    renamed = RenamedUnitValue(unit, import_map, export_map)
    if len(set(renamed.imports)) != len(renamed.imports) \
            or len(set(renamed.exports)) != len(renamed.exports):
        raise UnitLinkError("rename_unit: renaming collides two names")
    return renamed


@dataclass(frozen=True)
class NClause:
    """One constituent of an n-ary compound.

    ``import_sources`` maps each of the constituent's import names to a
    *namespace* name (a compound import or another constituent's
    published export).  ``export_names`` maps the constituent's export
    names to the namespace names under which they are published;
    exports absent from the map are hidden (they get private cells).
    """

    unit: UnitValue
    import_sources: dict[str, str]
    export_names: dict[str, str]


class NCompoundUnitValue(UnitValue):
    """An n-ary compound unit value with explicit wiring.

    ``imports`` are the compound's own imports; ``exports`` maps the
    compound's export names to namespace names.  Constituents are
    instantiated in order; their initialization expressions run in the
    same order on invocation, generalizing the two-unit sequencing rule
    of Section 4.1.2.
    """

    __slots__ = ("imports", "exports", "export_sources", "clauses")

    def __init__(self, imports: tuple[str, ...],
                 exports: dict[str, str],
                 clauses: list[NClause]):
        self.imports = tuple(imports)
        self.exports = tuple(exports.keys())
        self.export_sources = dict(exports)
        self.clauses = list(clauses)
        self._validate()

    def _validate(self) -> None:
        namespace: set[str] = set(self.imports)
        if len(namespace) != len(self.imports):
            raise UnitLinkError("n-ary compound: duplicate import name")
        published: set[str] = set()
        for clause in self.clauses:
            clause_exports = set(clause.unit.exports)
            for internal, ns_name in clause.export_names.items():
                if internal not in clause_exports:
                    raise UnitLinkError(
                        f"n-ary compound: constituent does not export "
                        f"'{internal}'")
                if ns_name in namespace or ns_name in published:
                    raise UnitLinkError(
                        f"n-ary compound: name '{ns_name}' published "
                        f"twice")
                published.add(ns_name)
        namespace |= published
        for index, clause in enumerate(self.clauses):
            for import_name in clause.unit.imports:
                source = clause.import_sources.get(import_name)
                if source is None:
                    raise UnitLinkError(
                        f"n-ary compound: constituent {index} import "
                        f"'{import_name}' is not wired")
                if source not in namespace:
                    raise UnitLinkError(
                        f"n-ary compound: wiring source '{source}' is "
                        f"neither an import nor a published export")
        seen_sources: set[str] = set()
        for export, source in self.export_sources.items():
            if source not in published:
                # As in the calculus, a compound's exports must come
                # from its constituents (xe ⊆ xp1 ∪ xp2) — imports
                # cannot be re-exported directly.
                raise UnitLinkError(
                    f"n-ary compound: export '{export}' has no published "
                    f"source '{source}'")
            if source in seen_sources:
                raise UnitLinkError(
                    f"n-ary compound: published name '{source}' backs "
                    f"two exports")
            seen_sources.add(source)

    def instantiate(self, host, cells: dict[str, Cell]) -> list:
        """Wire namespace cells and instantiate every constituent."""
        namespace: dict[str, Cell] = {}
        for name in self.imports:
            if name not in cells:
                raise UnitLinkError(
                    f"n-ary compound: no cell for import '{name}'")
            namespace[name] = cells[name]
        # Pre-create cells for every published name; adopt the caller's
        # cell when the published name backs one of our exports.
        published_backing: dict[str, str] = {
            source: export for export, source in self.export_sources.items()}
        for clause in self.clauses:
            for ns_name in clause.export_names.values():
                export = published_backing.get(ns_name)
                if export is not None and export in cells:
                    namespace[ns_name] = cells[export]
                else:
                    namespace[ns_name] = Cell()
        runs = []
        for clause in self.clauses:
            sub_cells: dict[str, Cell] = {}
            for import_name in clause.unit.imports:
                sub_cells[import_name] = namespace[
                    clause.import_sources[import_name]]
            for export_name in clause.unit.exports:
                ns_name = clause.export_names.get(export_name)
                sub_cells[export_name] = (namespace[ns_name]
                                          if ns_name is not None else Cell())
            runs.extend(clause.unit.instantiate(host, sub_cells))
        return runs

"""Runtime values for the core language and for units.

Bindings are uniformly *boxed*: an environment maps names to
:class:`Cell` objects.  This single mechanism implements ``set!``, the
mutable state of the phone-book example, and — crucially — the
import/export cells of the unit implementation model (Section 4.1.6):
"imported and exported variables are implemented as first-class
reference cells that are externally created and passed to the function
when the unit is invoked."
"""

from __future__ import annotations

import types
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.lang.errors import RunTimeError, UnitLinkError
from repro.obs import current as _obs_current


class _Undefined:
    """Sentinel stored in a cell before its definition is evaluated."""

    def __repr__(self) -> str:
        return "#<undefined>"


UNDEFINED = _Undefined()
"""The value of a letrec/unit-defined variable before initialization."""


class Cell:
    """A first-class mutable reference cell.

    Cells serve three roles: environment bindings, the ``box`` datatype
    exposed to programs, and the import/export cells threaded between
    compiled units.
    """

    __slots__ = ("value",)

    def __init__(self, value: object = UNDEFINED):
        self.value = value

    def get(self) -> object:
        """Read the cell, signalling a run-time error if it is still
        undefined (the stricter of the two behaviours MzScheme allows)."""
        if self.value is UNDEFINED:
            raise RunTimeError("reference to undefined variable")
        return self.value

    def set(self, value: object) -> None:
        """Overwrite the cell's contents."""
        self.value = value

    def __repr__(self) -> str:
        return f"#<cell {self.value!r}>"


class Env:
    """A lexical environment: a frame of name→cell bindings plus parent."""

    __slots__ = ("frame", "parent")

    def __init__(self, frame: dict[str, Cell] | None = None,
                 parent: "Env | None" = None):
        self.frame = frame if frame is not None else {}
        self.parent = parent

    def lookup_cell(self, name: str) -> Cell:
        """Find the cell bound to ``name``, walking outward."""
        env: Env | None = self
        while env is not None:
            cell = env.frame.get(name)
            if cell is not None:
                return cell
            env = env.parent
        raise RunTimeError(f"unbound variable: {name}")

    def lookup(self, name: str) -> object:
        """Dereference the binding for ``name``."""
        return self.lookup_cell(name).get()

    def define(self, name: str, value: object) -> Cell:
        """Bind ``name`` to a fresh cell holding ``value`` in this frame."""
        cell = Cell(value)
        self.frame[name] = cell
        return cell

    def bind_cell(self, name: str, cell: Cell) -> None:
        """Bind ``name`` directly to an existing cell (used for unit
        import/export wiring)."""
        self.frame[name] = cell

    def child(self) -> "Env":
        """Create an empty environment extending this one."""
        return Env({}, self)


@dataclass
class Closure:
    """A procedure value closing over its defining environment."""

    params: tuple[str, ...]
    body: object  # Expr; typed loosely to avoid an import cycle
    env: Env
    name: str = "<anonymous>"

    def __repr__(self) -> str:
        return f"#<procedure:{self.name}>"


@dataclass
class Primitive:
    """A built-in procedure implemented in Python.

    ``arity`` is the exact argument count, or ``None`` for variadic
    primitives.
    """

    name: str
    fn: Callable[..., object]
    arity: int | None = None

    def __repr__(self) -> str:
        return f"#<primitive:{self.name}>"


class Pair:
    """A mutable cons cell."""

    __slots__ = ("car", "cdr")

    def __init__(self, car: object, cdr: object):
        self.car = car
        self.cdr = cdr

    def __repr__(self) -> str:
        return to_write_string(self)


class _EmptyList:
    """The empty list singleton."""

    def __repr__(self) -> str:
        return "()"


EMPTY = _EmptyList()
"""The empty list value."""


def list_to_pairs(items: list[object]) -> object:
    """Build a proper list value from a Python list."""
    result: object = EMPTY
    for item in reversed(items):
        result = Pair(item, result)
    return result


def pairs_to_list(value: object) -> list[object]:
    """Flatten a proper list value to a Python list.

    Raises :class:`RunTimeError` on improper lists.
    """
    items: list[object] = []
    while isinstance(value, Pair):
        items.append(value.car)
        value = value.cdr
    if value is not EMPTY:
        raise RunTimeError("expected a proper list")
    return items


class HashTable:
    """A string-keyed hash table, as made by ``makeStringHashTable``.

    The phone-book example's ``Database`` unit initializes one of these
    in its initialization expression (Figure 1).
    """

    __slots__ = ("table",)

    def __init__(self) -> None:
        self.table: dict[str, object] = {}

    def put(self, key: str, value: object) -> None:
        """Insert or overwrite the entry for ``key``."""
        self.table[key] = value

    def get(self, key: str, default: object = None) -> object:
        """Look up ``key``, returning ``default`` when absent."""
        return self.table.get(key, default)

    def remove(self, key: str) -> None:
        """Delete the entry for ``key`` if present."""
        self.table.pop(key, None)

    def has(self, key: str) -> bool:
        """Test whether ``key`` is present."""
        return key in self.table

    def keys(self) -> Iterator[str]:
        """Iterate over the keys in insertion order."""
        return iter(self.table.keys())

    def __len__(self) -> int:
        return len(self.table)

    def __repr__(self) -> str:
        return f"#<hash-table ({len(self.table)} entries)>"


@dataclass
class VariantValue:
    """An instance of a two-variant constructed type (Section 4.2).

    ``type_name`` is the datatype's defining name, ``variant`` is 0 for
    the first variant and 1 for the second, and ``payload`` is the value
    the constructor was applied to.
    """

    type_name: str
    variant: int
    payload: object

    def __repr__(self) -> str:
        return f"#<{self.type_name}:variant{self.variant} {self.payload!r}>"


class UnitValue:
    """Base class of unit values.

    There are exactly two operations on units — linking and invoking —
    and "no operation can look inside a unit value" (Section 4.1.1).
    The attributes here describe only the interface (imports/exports),
    which linking legitimately consults.

    Every evaluator invokes units through :meth:`instantiate`, the
    implementation model of Section 4.1.6: the caller creates the
    import and export cells and passes them in.
    """

    imports: tuple[str, ...]
    exports: tuple[str, ...]

    def instantiate(self, host, cells: dict[str, Cell]) -> list:
        """Fill the export cells and return the initializations to run.

        ``host`` is the evaluator (an interpreter or a compiled-code
        runtime); ``cells`` holds a cell for each import and export.
        The result lists one host-specific initialization per atomic
        constituent, in the sequencing order of Section 4.1.2.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        ins = " ".join(self.imports)
        outs = " ".join(self.exports)
        return f"#<unit import ({ins}) export ({outs})>"


class AtomicUnitValue(UnitValue):
    """A unit value created by evaluating a ``unit`` expression.

    It packages the unevaluated syntax with the lexical environment the
    ``unit`` expression was evaluated in (definitions may reference
    enclosing bindings, which the rewriting semantics models by
    substitution).
    """

    __slots__ = ("syntax", "env", "imports", "exports")

    def __init__(self, syntax: object, env: Env):
        self.syntax = syntax  # a repro.units.ast.UnitExpr
        self.env = env
        self.imports = syntax.imports
        self.exports = syntax.exports

    def instantiate(self, host, cells: dict[str, Cell]) -> list:
        """Evaluate the definitions into cells; the run is
        ``(environment, initialization expression)``."""
        syntax = self.syntax
        env = self.env.child()
        for name in syntax.imports:
            env.bind_cell(name, cells[name])
        exports = set(syntax.exports)
        defined_cells: list[Cell] = []
        for name, _ in syntax.defns:
            cell = cells[name] if name in exports else Cell()
            env.bind_cell(name, cell)
            defined_cells.append(cell)
        for (_, rhs), cell in zip(syntax.defns, defined_cells):
            cell.set(host.eval(rhs, env))
        return [(env, syntax.init)]


class CompoundUnitValue(UnitValue):
    """A unit value created by evaluating a ``compound`` expression.

    It records the two constituent unit values and, for each, its
    ``(withs, provides)`` clause.  Observationally it behaves exactly
    like the merged atomic unit of Figure 8, which the property tests
    verify against :func:`repro.units.reduce.merge_compound`.
    """

    __slots__ = ("imports", "exports", "first", "second",
                 "first_clause", "second_clause")

    def __init__(self, imports, exports, first, second,
                 first_clause, second_clause):
        self.imports = tuple(imports)
        self.exports = tuple(exports)
        self.first = first      # UnitValue
        self.second = second    # UnitValue
        self.first_clause = first_clause    # (withs, provides)
        self.second_clause = second_clause

    def instantiate(self, host, cells: dict[str, Cell]) -> list:
        """Propagate cells to the constituents, with fresh cells for
        the names the compound hides, and instantiate both in order."""
        # Port resolution is batched per sibling against one shared
        # namespace, with the membership tests on sets — wide fan-in
        # compounds resolve each import in O(1) rather than rescanning
        # the interface tuples.
        namespace: dict[str, Cell] = {}
        imported = set(self.imports)
        exported = set(self.exports)
        for name in self.imports:
            namespace[name] = cells[name]
        for name in set(self.first_clause[1]) | set(self.second_clause[1]):
            namespace[name] = cells[name] if name in cells \
                and name in exported else Cell()
        runs: list = []
        col = _obs_current()
        for constituent, (_, provides) in ((self.first, self.first_clause),
                                           (self.second, self.second_clause)):
            sub_cells: dict[str, Cell] = {}
            for name in constituent.imports:
                if name not in namespace:
                    raise UnitLinkError(
                        f"compound: constituent import '{name}' has no "
                        f"source among the compound's imports and the "
                        f"other constituent's provides")
                sub_cells[name] = namespace[name]
                if col is not None:
                    col.emit("link.edge", {
                        "name": name,
                        "source": ("import" if name in imported
                                   else "provides")})
            provided = set(provides)
            for name in constituent.exports:
                sub_cells[name] = namespace[name] if name in provided \
                    else Cell()
            runs.extend(constituent.instantiate(host, sub_cells))
        return runs


def _require_unit(value: object, who: str) -> None:
    if not isinstance(value, UnitValue):
        raise RunTimeError(
            f"{who}: expected a unit, got {to_write_string(value)}")


def invoke_cells(unit: object, supplied: dict[str, Cell]) -> dict[str, Cell]:
    """The cells an ``invoke`` instantiates ``unit`` with.

    ``supplied`` maps the invoke's link names to cells; every import
    must be among them (Figure 11's invoke side condition, a run-time
    error otherwise), and each export gets a fresh cell.
    """
    _require_unit(unit, "invoke")
    missing = [name for name in unit.imports if name not in supplied]
    if missing:
        raise UnitLinkError(
            "invoke: unit imports not satisfied: " + ", ".join(missing))
    cells = {name: supplied[name] for name in unit.imports}
    for name in unit.exports:
        cells[name] = Cell()
    return cells


def check_clause(unit, withs, provides, which: str) -> None:
    """Figure 11's side conditions on one constituent of a compound.

    The ``which`` (``"first"`` or ``"second"``) constituent must need
    no more than its ``with`` names and provide at least its
    ``provides`` names.  ``unit`` is a unit value or unit syntax: only
    its ``imports`` and ``exports`` are read.
    """
    with_set = set(withs)
    extra = [name for name in unit.imports if name not in with_set]
    if extra:
        raise UnitLinkError(
            f"compound: {which} constituent imports exceed its with "
            f"clause: " + ", ".join(extra))
    export_set = set(unit.exports)
    missing = [name for name in provides if name not in export_set]
    if missing:
        raise UnitLinkError(
            f"compound: {which} constituent does not provide: "
            + ", ".join(missing))


def link_compound(imports, exports, first: object, second: object,
                  first_clause, second_clause) -> CompoundUnitValue:
    """Link two evaluated constituents into a compound unit value.

    Both unit checks come before both clause checks; each clause is a
    ``(withs, provides)`` pair.
    """
    _require_unit(first, "compound")
    _require_unit(second, "compound")
    col = _obs_current()
    for unit, (withs, provides), which in (
            (first, first_clause, "first"),
            (second, second_clause, "second")):
        check_clause(unit, withs, provides, which)
        if col is not None:
            col.emit("check.clause", {
                "withs": len(withs), "provides": len(provides)})
    return CompoundUnitValue(imports, exports, first, second,
                             first_clause, second_clause)


def is_true(value: object) -> bool:
    """Scheme truth: everything except ``#f`` is true."""
    return value is not False


def to_display_string(value: object) -> str:
    """Render a value the way ``display`` would (strings unquoted)."""
    if isinstance(value, str):
        return value
    return to_write_string(value)


def to_write_string(value: object) -> str:
    """Render a value the way ``write`` would (strings quoted)."""
    if value is None:
        return "#<void>"
    if value is True:
        return "#t"
    if value is False:
        return "#f"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, Pair):
        parts: list[str] = []
        cursor: object = value
        while isinstance(cursor, Pair):
            parts.append(to_write_string(cursor.car))
            cursor = cursor.cdr
        if cursor is EMPTY:
            return "(" + " ".join(parts) + ")"
        return "(" + " ".join(parts) + " . " + to_write_string(cursor) + ")"
    if value is EMPTY:
        return "()"
    if isinstance(value, types.FunctionType):
        # A closure from the codegen backend; interpreter closures are
        # anonymous too (Closure.name defaults to "<anonymous>"), so
        # the two backends print procedures identically.
        return "#<procedure:<anonymous>>"
    return repr(value)

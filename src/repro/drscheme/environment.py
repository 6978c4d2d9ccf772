"""The DrScheme-style environment shell.

Clients and tools are ordinary units.  The environment supplies their
imports as *capabilities* — host-implemented primitives scoped to the
client — so the unit interface is also the security boundary:

* ``print!`` writes to the client's own console buffer,
* ``kv-get`` / ``kv-put!`` access a store namespaced by client name,
* ``shared-get`` / ``shared-put!`` access one shared board (the
  sanctioned channel between clients),
* ``check-syntax`` runs the Figure 10 checker over source text (the
  syntax-checker tool of Section 7 as a capability).

Launching evaluates the client unit's definitions and initialization
expression; a run-time error in a client is caught, recorded on its
:class:`ClientRecord`, and does not disturb the environment or other
clients — the "boundaries between clients" of Section 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.errors import LangError, UnitLinkError
from repro.lang.interp import Interpreter
from repro.lang.parser import parse_program
from repro.lang.values import Cell, Primitive, UnitValue, invoke_cells
from repro.units.check import check_expr


@dataclass
class ClientRecord:
    """The environment's bookkeeping for one launched client."""

    name: str
    status: str = "launched"      # "launched" | "finished" | "crashed"
    result: object = None
    error: str | None = None
    console: list[str] = field(default_factory=list)

    def output(self) -> str:
        """Everything the client printed, concatenated."""
        return "".join(self.console)


class DrScheme:
    """An operating system for unit programs."""

    def __init__(self) -> None:
        self.interp = Interpreter()
        self.clients: dict[str, ClientRecord] = {}
        self.tools: dict[str, UnitValue] = {}
        self._kv: dict[str, object] = {}
        self._shared: dict[str, object] = {}

    # ------------------------------------------------------------------
    # Capabilities
    # ------------------------------------------------------------------

    def _capabilities(self, record: ClientRecord) -> dict[str, object]:
        """Build the capability imports for one client."""
        prefix = record.name + "/"

        def print_(text: object) -> None:
            record.console.append(str(text))

        def kv_put(key: str, value: object) -> None:
            self._kv[prefix + key] = value

        def kv_get(key: str, default: object) -> object:
            return self._kv.get(prefix + key, default)

        def shared_put(key: str, value: object) -> None:
            self._shared[key] = value

        def shared_get(key: str, default: object) -> object:
            return self._shared.get(key, default)

        def check_syntax(source: str) -> bool:
            try:
                check_expr(parse_program(source), strict_valuable=False)
            except LangError:
                return False
            return True

        return {
            "print!": Primitive("print!", print_, 1),
            "kv-put!": Primitive("kv-put!", kv_put, 2),
            "kv-get": Primitive("kv-get", kv_get, 2),
            "shared-put!": Primitive("shared-put!", shared_put, 2),
            "shared-get": Primitive("shared-get", shared_get, 2),
            "check-syntax": Primitive("check-syntax", check_syntax, 1),
        }

    #: The capability names the environment can satisfy.
    CAPABILITIES = ("print!", "kv-put!", "kv-get", "shared-put!",
                    "shared-get", "check-syntax")

    # ------------------------------------------------------------------
    # Tools
    # ------------------------------------------------------------------

    def install_tool(self, name: str, unit) -> None:
        """Install a tool unit into the environment.

        A tool may import only environment capabilities; its exports
        become available to clients that import them by name.
        """
        if isinstance(unit, str):
            unit = self.interp.run(unit, origin=f"<tool:{name}>")
        if not isinstance(unit, UnitValue):
            raise UnitLinkError(f"tool '{name}' is not a unit")
        foreign = [imp for imp in unit.imports
                   if imp not in self.CAPABILITIES]
        if foreign:
            raise UnitLinkError(
                f"tool '{name}' imports more than the environment "
                f"provides: " + ", ".join(foreign))
        self.tools[name] = unit

    def install_tool_from_archive(self, archive, name: str,
                                  expected_exports: tuple[str, ...]) -> None:
        """Dynamically link a tool retrieved from an archive.

        Retrieval verifies the name-level interface before the tool's
        code ever runs (Section 3.4's contract, untyped flavour).
        """
        unit_expr = archive.retrieve_untyped(
            name, expected_imports=self.CAPABILITIES,
            expected_exports=expected_exports)
        self.install_tool(name, self.interp.eval(unit_expr))

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------

    def launch(self, name: str, program,
               tools: tuple[str, ...] = ()) -> ClientRecord:
        """Launch a client program with fresh capability imports.

        ``tools`` names installed tools whose exports the client may
        import; each launch instantiates those tools *freshly for this
        client* so tool state is also per-client.
        """
        if name in self.clients:
            raise UnitLinkError(f"client '{name}' is already running")
        if isinstance(program, str):
            program = self.interp.run(program, origin=f"<client:{name}>")
        if not isinstance(program, UnitValue):
            raise UnitLinkError(f"client '{name}' is not a unit")
        record = ClientRecord(name)
        capabilities = self._capabilities(record)

        imports: dict[str, object] = {}
        available: dict[str, object] = dict(capabilities)
        for tool_name in tools:
            tool = self.tools.get(tool_name)
            if tool is None:
                raise UnitLinkError(f"no tool named '{tool_name}'")
            available.update(self._instantiate_tool(tool, capabilities))
        for import_name in program.imports:
            if import_name not in available:
                raise UnitLinkError(
                    f"client '{name}' imports '{import_name}', which "
                    f"neither the environment nor its tools provide")
            imports[import_name] = available[import_name]

        self.clients[name] = record
        try:
            record.result = self.interp.invoke(program, imports)
            record.status = "finished"
        except LangError as err:
            record.status = "crashed"
            record.error = str(err)
        return record

    def _instantiate_tool(self, tool: UnitValue,
                          capabilities: dict[str, object]) -> dict[str, object]:
        """Invoke a tool unit and collect its exported values."""
        cells = invoke_cells(tool, {name: Cell(value) for name, value
                                    in capabilities.items()})
        for init_env, init in tool.instantiate(self.interp, cells):
            self.interp.eval(init, init_env)
        return {name: cells[name].get() for name in tool.exports}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def client(self, name: str) -> ClientRecord:
        """Look up a client's record."""
        record = self.clients.get(name)
        if record is None:
            raise KeyError(f"no client named '{name}'")
        return record

    def shared_board(self) -> dict[str, object]:
        """A snapshot of the shared board."""
        return dict(self._shared)

    def store_snapshot(self) -> dict[str, object]:
        """A snapshot of the namespaced store (keys are client/key)."""
        return dict(self._kv)

    def status_report(self) -> str:
        """A human-readable summary of the environment."""
        lines = [f"tools: {', '.join(self.tools) or '(none)'}"]
        for record in self.clients.values():
            lines.append(
                f"client {record.name}: {record.status}"
                + (f" ({record.error})" if record.error else ""))
        return "\n".join(lines)

"""The unit archive: retrieval with signature verification.

An archive maps names to *serialized unit syntax* — units ship as
source, the form in which they are first-class and recompilable.  The
transport medium (here an in-memory table with JSON persistence,
standing in for "the Internet") is irrelevant to the semantics; what
matters is the retrieval contract:

1. the retrieved text is parsed and **type-checked from scratch in the
   receiver's environment** — never trusted from the sender, and never
   checked against a different context (the Java class-loading bug the
   paper cites [Saraswat 1997]),
2. the resulting signature must be a *subtype* of the signature the
   receiver expects, so specialized plug-ins satisfy general
   interfaces (Figure 14's subsumption),
3. only then is the unit released to the program for linking or
   invocation.

Untyped (UNITd) entries support a weaker contract: the Figure 10
context-sensitive checks plus an import/export name check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.lang.errors import ArchiveError, format_loc
from repro.lang.parser import parse_program
from repro.limits import BudgetExceeded
from repro.lang.pretty import show
from repro.obs import current as _obs_current
from repro.obs import span as _obs_span
from repro.serve import chaos as _chaos
from repro.types.subtype import sig_subtype
from repro.types.tyenv import TyEnv
from repro.types.types import Sig
from repro.unitc.ast import TypedUnitExpr
from repro.unitc.check import base_tyenv, check_typed_unit
from repro.unitc.parser import parse_typed_program
from repro.units import cache as _cache
from repro.units.ast import UnitExpr
from repro.units.check import check_unit


def _fail(name: str | None, stage: str, message: str,
          loc=None) -> "ArchiveError":
    """Build the typed retrieval error, tracing it as ``dynlink.error``.

    Every failure in the dynamic-linking layer goes through here so the
    trace records *where* retrieval broke (lookup, parse, check,
    subtype, persistence) alongside the raised :class:`ArchiveError`.
    When the failing AST or nested error carries a reader source
    location, it rides along as ``loc`` so ``repro trace report`` can
    print ``origin:line:col`` for the failure.
    """
    col = _obs_current()
    if col is not None:
        fields: dict[str, object] = {
            "name": name, "stage": stage, "reason": message}
        if loc is not None:
            fields["loc"] = format_loc(loc)
        col.emit("dynlink.error", fields)
    return ArchiveError(message)


@dataclass(frozen=True)
class ArchiveEntry:
    """One archived unit: source text plus a typed/untyped marker.

    ``declared_sig`` is the *publisher's claim* about the unit's
    signature — useful for browsing an archive, but never trusted:
    retrieval always re-checks the source in the receiver's context.
    """

    name: str
    source: str
    typed: bool
    declared_sig: str | None = None


class UnitArchive:
    """A store of serialized units, retrieved under signature checks."""

    def __init__(self) -> None:
        self._entries: dict[str, ArchiveEntry] = {}

    # -- publishing -------------------------------------------------------

    def put(self, name: str, source: str, typed: bool = True,
            declared_sig: str | None = None) -> None:
        """Publish a unit's source under ``name``.

        Publication validates nothing: the archive is an untrusted
        medium, and all checking happens at retrieval.  A publisher may
        attach a ``declared_sig`` claim for browsing; it carries no
        authority.
        """
        self._entries[name] = ArchiveEntry(name, source, typed,
                                           declared_sig)

    def put_unit(self, name: str, unit: UnitExpr) -> None:
        """Publish an untyped unit AST (serialized through the printer)."""
        self._entries[name] = ArchiveEntry(name, show(unit), typed=False)

    def put_typed_unit(self, name: str, unit: TypedUnitExpr) -> None:
        """Publish a typed unit AST (serialized through the printer)."""
        from repro.unitc.pretty import pretty_texpr

        self._entries[name] = ArchiveEntry(name, pretty_texpr(unit),
                                           typed=True)

    def names(self) -> tuple[str, ...]:
        """All published names."""
        return tuple(self._entries)

    def declared_signature(self, name: str) -> Sig | None:
        """The publisher's (unverified!) signature claim, if any.

        Only suitable for browsing.  Tests demonstrate that a lying
        claim changes nothing: :meth:`retrieve_typed` judges the
        source itself.
        """
        from repro.types.parser import parse_sig_text

        entry = self._lookup(name)
        if entry.declared_sig is None:
            return None
        try:
            return parse_sig_text(entry.declared_sig,
                                  origin=f"<archive:{name}:claim>")
        except Exception as err:
            raise _fail(name, "claim",
                        f"archive entry '{name}' carries an unparseable "
                        f"signature claim: {err}")

    # -- retrieval ------------------------------------------------------------

    def retrieve_typed(self, name: str, expected: Sig,
                       env: TyEnv | None = None,
                       strict_valuable: bool = True
                       ) -> tuple[TypedUnitExpr, Sig]:
        """Retrieve a typed unit, verifying it against ``expected``.

        The unit is parsed and checked in ``env`` — the *receiver's*
        type environment — and its actual signature must be a subtype
        of ``expected``.  Returns the unit syntax and its actual
        signature.

        The whole retrieval is one ``dynlink.load`` span: the receiving
        context's ``check.*`` judgments nest inside it, and a failed
        retrieval shows as the span's ``err`` next to the staged
        ``dynlink.error`` event.
        """
        with _obs_span("dynlink.load", {"name": name, "typed": True}):
            return self._retrieve_typed(name, expected, env,
                                        strict_valuable)

    def _retrieve_typed(self, name: str, expected: Sig,
                        env: TyEnv | None,
                        strict_valuable: bool) -> tuple[TypedUnitExpr, Sig]:
        entry = self._lookup(name)
        if not entry.typed:
            raise _fail(name, "kind",
                        f"archive entry '{name}' is untyped; use "
                        f"retrieve_untyped")
        try:
            expr = parse_typed_program(entry.source,
                                       origin=f"<archive:{name}>")
        except BudgetExceeded:
            # Exhaustion mid-retrieval keeps its taxonomy (exit 3):
            # wrapping it as an ArchiveError would make a resource
            # failure retryable and mislabel it for callers.
            raise
        except Exception as err:
            raise _fail(name, "parse",
                        f"archive entry '{name}' failed to parse: {err}",
                        loc=getattr(err, "loc", None))
        if not isinstance(expr, TypedUnitExpr):
            raise _fail(name, "parse",
                        f"archive entry '{name}' is not a unit expression",
                        loc=getattr(expr, "loc", None))
        check_env = env if env is not None else base_tyenv()
        try:
            actual = check_typed_unit(expr, check_env, strict_valuable)
        except BudgetExceeded:
            raise
        except Exception as err:
            raise _fail(name, "check",
                        f"archive entry '{name}' failed to type-check in "
                        f"the receiving context: {err}",
                        loc=getattr(err, "loc", None) or expr.loc)
        if not sig_subtype(actual, expected):
            raise _fail(name, "subtype",
                        f"archive entry '{name}' does not satisfy the "
                        f"expected signature: {actual} is not a subtype "
                        f"of {expected}", loc=expr.loc)
        return expr, actual

    def retrieve_untyped(self, name: str,
                         expected_imports: tuple[str, ...],
                         expected_exports: tuple[str, ...],
                         strict_valuable: bool = False) -> UnitExpr:
        """Retrieve an untyped unit under a name-level interface check.

        The unit may import *fewer* names and export *more* than
        expected (the name-level shadow of signature subtyping).
        """
        with _obs_span("dynlink.load", {"name": name, "typed": False}):
            return self._retrieve_untyped(name, expected_imports,
                                          expected_exports, strict_valuable)

    def _retrieve_untyped(self, name: str,
                          expected_imports: tuple[str, ...],
                          expected_exports: tuple[str, ...],
                          strict_valuable: bool) -> UnitExpr:
        entry = self._lookup(name)
        origin = f"<archive:{name}>"
        try:
            # Repeated loads of the same entry parse once; the key
            # includes the origin so cached locations stay truthful.
            # Figure 7's checks below always run: the parse entry's
            # check verdict is the served pipeline's, not retrieval's.
            expr = _cache.cached_parse(
                "parse_program", origin, entry.source,
                lambda: parse_program(entry.source, origin=origin)).expr
        except BudgetExceeded:
            raise
        except Exception as err:
            raise _fail(name, "parse",
                        f"archive entry '{name}' failed to parse: {err}",
                        loc=getattr(err, "loc", None))
        if not isinstance(expr, UnitExpr):
            raise _fail(name, "parse",
                        f"archive entry '{name}' is not a unit expression",
                        loc=getattr(expr, "loc", None))
        try:
            check_unit(expr, strict_valuable)
        except BudgetExceeded:
            raise
        except Exception as err:
            raise _fail(name, "check",
                        f"archive entry '{name}' failed checking: {err}",
                        loc=getattr(err, "loc", None) or expr.loc)
        extra = set(expr.imports) - set(expected_imports)
        if extra:
            raise _fail(name, "interface",
                        f"archive entry '{name}' requires unexpected "
                        f"imports: " + ", ".join(sorted(extra)),
                        loc=expr.loc)
        missing = set(expected_exports) - set(expr.exports)
        if missing:
            raise _fail(name, "interface",
                        f"archive entry '{name}' lacks expected exports: "
                        + ", ".join(sorted(missing)), loc=expr.loc)
        return expr

    def _lookup(self, name: str) -> ArchiveEntry:
        if _chaos._armed:
            _chaos.slow_load(f"archive:{name}")
        entry = self._entries.get(name)
        if entry is None:
            raise _fail(name, "lookup",
                        f"no archive entry named '{name}'")
        if _chaos._armed:
            source = _chaos.poison(f"archive:{name}", entry.source)
            if source is not entry.source:
                entry = ArchiveEntry(name=entry.name, source=source,
                                     typed=entry.typed,
                                     declared_sig=entry.declared_sig)
        return entry

    # -- persistence ----------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the archive as JSON."""
        payload = {
            entry.name: {"source": entry.source, "typed": entry.typed,
                         "declared_sig": entry.declared_sig}
            for entry in self._entries.values()}
        Path(path).write_text(json.dumps(payload, indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "UnitArchive":
        """Read an archive written by :meth:`save`.

        Malformed persistence — non-object payloads, entries missing
        the ``source``/``typed`` fields, wrongly typed fields — raises
        :class:`ArchiveError` (never a bare ``KeyError``/
        ``AttributeError``): the archive file is as untrusted as the
        units inside it.
        """
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise _fail(None, "persistence",
                        f"cannot load archive: {err}")
        if not isinstance(payload, dict):
            raise _fail(None, "persistence",
                        f"cannot load archive: top level must be an "
                        f"object, got {type(payload).__name__}")
        archive = cls()
        for name, fields in payload.items():
            if not isinstance(fields, dict):
                raise _fail(name, "persistence",
                            f"archive entry '{name}' is malformed: "
                            f"expected an object, got "
                            f"{type(fields).__name__}")
            missing = [key for key in ("source", "typed")
                       if key not in fields]
            if missing:
                raise _fail(name, "persistence",
                            f"archive entry '{name}' is malformed: "
                            f"missing field(s) " + ", ".join(missing))
            if not isinstance(fields["source"], str):
                raise _fail(name, "persistence",
                            f"archive entry '{name}' is malformed: "
                            f"'source' must be a string")
            archive.put(name, fields["source"], bool(fields["typed"]),
                        fields.get("declared_sig"))
        return archive

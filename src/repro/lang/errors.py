"""Error hierarchy for the core language and the unit calculi.

Every error carries an optional source location so that tooling built on
the library (the examples, the archive loader, the figure registry) can
report positions in unit sources.
"""

from __future__ import annotations

from typing import NamedTuple


#: A source location as data and AST nodes carry it: a plain
#: ``(line, col, origin)`` tuple of atoms.  CPython stops tracking such a
#: tuple in the cyclic garbage collector at its first collection, which
#: it never does for a tuple *subclass* like :class:`SrcLoc`; a parsed
#: program holds one location per symbol, list and AST node.
Loc = tuple[int, int, str]


def format_loc(loc: Loc) -> str:
    """``origin:line:col``, the form errors and trace fields print."""
    line, col, origin = loc
    return f"{origin}:{line}:{col}"


class SrcLoc(NamedTuple):
    """A source location: 1-based line and column, plus an origin label.

    The origin is typically a file name, an archive entry name, or a
    description such as ``"<string>"`` for programmatic sources.
    :class:`LangError` normalises the plain :data:`Loc` it is given to
    this named view, so ``err.loc.line`` reads by name.
    """

    line: int
    col: int
    origin: str = "<string>"

    def __str__(self) -> str:
        return format_loc(self)


class LangError(Exception):
    """Base class for every error raised by the reproduction library."""

    def __init__(self, message: str, loc: Loc | None = None):
        self.message = message
        self.loc = None if loc is None else SrcLoc._make(loc)
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.loc is not None:
            return f"{self.loc}: {self.message}"
        return self.message


class LexError(LangError):
    """Raised by the s-expression reader on malformed input text."""


class ParseError(LangError):
    """Raised when an s-expression does not match the language grammar."""


class CheckError(LangError):
    """Raised by context-sensitive checking (Figure 10) and type checking
    (Figures 15 and 19) when a program is rejected statically."""


class TypeCheckError(CheckError):
    """Raised specifically for type errors in UNITc / UNITe programs."""


class KindError(TypeCheckError):
    """Raised when a type expression is applied at the wrong kind."""


class RunTimeError(LangError):
    """Raised by the interpreter or the rewriting machine at run time.

    The paper specifies two primitive run-time errors for units: invoking
    a unit with missing imports, and applying a datatype deconstructor to
    the wrong variant.  Both are signalled with this class (or a
    subclass)."""


class UnitLinkError(RunTimeError):
    """Raised when invoke's ``with`` clause fails to cover a unit's
    imports, or when a compound's constituents violate their
    with/provides contracts at link time (Section 4.1.5)."""


class VariantError(RunTimeError):
    """Raised when a datatype deconstructor is applied to the wrong
    variant (Section 4.2)."""


class ArchiveError(LangError):
    """Raised by the dynamic-linking archive on retrieval failures,
    including signature mismatches (Section 3.4)."""


class ResourceError(LangError):
    """Raised when execution exceeds a governed resource limit.

    The concrete taxonomy lives in :mod:`repro.limits`
    (:class:`~repro.limits.BudgetExceeded` carries which resource
    tripped, the cap, and the consumption); this base class exists so
    handlers can distinguish "the program is wrong" (:class:`CheckError`,
    :class:`RunTimeError`) from "the program was cut off"."""

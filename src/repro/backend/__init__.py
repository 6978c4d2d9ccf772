"""The Python-closure codegen backend (Section 4.1.6, Figure 12).

Where :mod:`repro.units.compile` implements Figure 12 *inside* the
calculus (units become lambdas over cells, still interpreted), this
package lowers a checked program all the way to the host: generated
Python source, ``compile()``'d once, executed as real closures over
:class:`~repro.lang.values.Cell` objects.  Budget charges, trace
spans, and the interpreter's error messages are preserved — the
backend is observationally equivalent and only faster.

    from repro import backend
    program = backend.compile_program(linked_expr)
    value, output = program.run()

A served program's code object rides on its parse entry, so a repeat
of the same text reuses it; generated source also persists in the
``--cache-dir`` disk tier, keyed on the program's ``tk2`` digest
(:func:`repro.units.cache.cached_pycode`).
"""

from __future__ import annotations

from types import CodeType

from repro import limits as _limits
from repro import obs
from repro.backend.codegen import generate_source
from repro.backend.runtime import Runtime, load_main
from repro.lang.ast import Expr
from repro.lang.prims import OutputPort
from repro.units.cache import cached_pycode

__all__ = ["PyProgram", "compile_program", "generate_source", "Runtime"]


class PyProgram:
    """A compiled program: one code object, exec'd once, run many."""

    __slots__ = ("code", "_main")

    def __init__(self, code):
        self.code = code
        self._main = load_main(code)

    def run(self, port: OutputPort | None = None) -> tuple[object, str]:
        """Evaluate against a fresh :class:`Runtime`; returns
        ``(value, captured output)``."""
        rt = Runtime(port)
        with obs.span("pycode.exec", {}):
            value = self._main(rt)
        return value, rt.port.getvalue()


def compile_program(expr: Expr, code: CodeType | None = None) -> PyProgram:
    """Lower a checked (and preferably linked) program to Python.

    ``code`` is a code object already compiled from ``expr`` (its
    parse entry's), reused instead of generating.  The
    ``pycode.codegen`` span fires whether or not a cache supplied the
    code object, keeping event counts cache-invariant like every other
    store in :mod:`repro.units.cache`.
    """
    budget = _limits.current()
    if budget is not None:
        budget.check_deadline(getattr(expr, "loc", None))
    with obs.span("pycode.codegen", {}):
        code = cached_pycode(expr, lambda: generate_source(expr), code)
    return PyProgram(code)

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

Generated source and code objects are cached content-addressed on the
program's ``tk2`` digest (memory LRU + the ``--cache-dir`` disk tier
at ``v1-tk2/pycode/<digest>.py``), via
:func:`repro.units.cache.cached_pycode`.
"""

from __future__ import annotations

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
        col = obs.current()
        if col is None:
            value = self._main(rt)
        else:
            with col.span("pycode.exec", {}):
                value = self._main(rt)
        return value, rt.port.getvalue()


def compile_program(expr: Expr) -> PyProgram:
    """Lower a checked (and preferably linked) program to Python.

    The ``pycode.codegen`` span fires whether or not the codegen cache
    supplied the code object, keeping event counts cache-invariant
    like every other store in :mod:`repro.units.cache`.
    """
    budget = _limits.current()
    if budget is not None:
        budget.check_deadline(getattr(expr, "loc", None))
    col = obs.current()
    if col is None:
        code = cached_pycode(expr, lambda: generate_source(expr))
    else:
        with col.span("pycode.codegen", {}):
            code = cached_pycode(expr, lambda: generate_source(expr))
    return PyProgram(code)

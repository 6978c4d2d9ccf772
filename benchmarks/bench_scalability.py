"""Linking scalability.

The paper positions units for "large and dynamic" programs (DrScheme).
The bench sweeps chains of N linked units and measures check, link
(compound construction), and invoke cost — the shape should be close
to linear in N for invocation, and graph compilation grows as
N log N: the balanced lowering links only the names that cross each
split, ⌈log₂ N⌉ compounds deep.
"""

import pytest

from repro.bench import chain_program
from repro.lang.interp import Interpreter
from repro.units.check import check_program


@pytest.mark.parametrize("n", [4, 16, 64])
def test_invoke_chain(benchmark, n):
    program = chain_program(n)
    check_program(program, strict_valuable=False)
    interp = Interpreter()
    result = benchmark(interp.eval, program)
    assert result == n


@pytest.mark.parametrize("n", [4, 16, 64])
def test_build_chain_graph(benchmark, n):
    from benchmarks.helpers import chain_graph

    def build():
        return chain_graph(n).to_compound_expr()

    expr = benchmark(build)
    assert expr is not None

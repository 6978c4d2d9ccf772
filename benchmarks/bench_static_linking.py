"""Ablation: dynamic linking vs whole-program static linking.

Section 4.2.4's closing observation, measured: running a deeply nested
compound directly (link at invoke time) vs flattening it first
(compounds merged at compile time) vs flatten + optimize.
"""

from repro.bench import chain_program
from repro.lang.interp import Interpreter
from repro.units.linker import flatten, link_and_optimize

N = 24


def test_dynamic_linking(benchmark):
    program = chain_program(N)
    interp = Interpreter()
    assert benchmark(interp.eval, program) == N


def test_statically_linked(benchmark):
    program = flatten(chain_program(N))
    interp = Interpreter()
    assert benchmark(interp.eval, program) == N


def test_statically_linked_and_optimized(benchmark):
    program, stats = link_and_optimize(chain_program(N))
    assert stats.merged > 0
    interp = Interpreter()
    assert benchmark(interp.eval, program) == N


def test_flattening_cost(benchmark):
    program = chain_program(N)
    flat = benchmark(flatten, program)
    assert flat is not None

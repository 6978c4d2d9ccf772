"""Seeded program generator for the served-pipeline benchmark.

Programs are written directly as unit-language source text from string
templates.  This module deliberately imports nothing from ``repro``: a
change to the system under test can never change the workload.  Every
generated program carries the value the server must answer with,
computed here in closed form (plain Python arithmetic over the same
constants the template wrote), which is the benchmark's only
correctness reference.

A program is a list of :class:`Unit` records whose last element is the
main unit.  :func:`program_text` links them with binary ``compound`` forms
split in balanced halves (nesting depth ~log2 N), computing every
``with``/``provides``/``export`` list from the units' interfaces, and
invokes the result; the value of the invoke is the main unit's init.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

SHAPES = ("chain", "dag", "library", "evenodd")

_PHONEBOOK = Path(__file__).resolve().parent / "programs" / "phonebook.scm"
#: What the frozen phonebook example answers (its header documents it).
PHONEBOOK_VALUE = "#t"
PHONEBOOK_OUTPUT = "phone book with 2 entries\nrobby -> 5550100\n"


@dataclass
class Unit:
    imports: tuple[str, ...]
    exports: tuple[str, ...]
    body: str  # definitions followed by the init expression

    def text(self) -> str:
        return (f"(unit (import {' '.join(self.imports)}) "
                f"(export {' '.join(self.exports)})\n  {self.body})")


@dataclass
class Program:
    name: str
    units: list[Unit]
    value: str  # expected ``to_write_string`` of the result
    output: str = ""  # expected captured output
    consts: dict[int, int] = field(default_factory=dict)  # edit-relink state
    deps: dict[int, tuple[int, ...]] = field(default_factory=dict)
    text: str = ""

    def __post_init__(self) -> None:
        if not self.text:
            self.text = program_text(self.units)


def _names(names) -> str:
    return " ".join(names)


def _link(units: list[Unit], needed: frozenset[str]) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """Link ``units`` into one unit expression.

    Returns ``(text, imports, provides)``: the expression, the names it
    needs from outside, and the names in ``needed`` it exports.
    """
    defined = {x for u in units for x in u.exports}
    required = {x for u in units for x in u.imports}
    imports = tuple(sorted(required - defined))
    if len(units) == 1:
        unit = units[0]
        return unit.text(), unit.imports, tuple(
            x for x in unit.exports if x in needed)
    mid = len(units) // 2
    left, right = units[:mid], units[mid:]
    req_l = frozenset(x for u in left for x in u.imports)
    req_r = frozenset(x for u in right for x in u.imports)
    text_l, with_l, prov_l = _link(left, needed | req_r)
    text_r, with_r, prov_r = _link(right, needed | req_l)
    exports = tuple(x for x in prov_l + prov_r if x in needed)
    text = (f"(compound (import {_names(imports)}) (export {_names(exports)})\n"
            f" (link ({text_l}\n  (with {_names(with_l)}) (provides {_names(prov_l)}))\n"
            f"  ({text_r}\n  (with {_names(with_r)}) (provides {_names(prov_r)}))))")
    return text, imports, exports


def program_text(units: list[Unit]) -> str:
    text, imports, _ = _link(units, frozenset())
    if imports:
        raise ValueError(f"unresolved imports {imports}")
    return f"(invoke {text})\n"


# ---------------------------------------------------------------------------
# Unit templates
# ---------------------------------------------------------------------------

def _helpers(k: int) -> str:
    """Per-unit helper definitions: real parse/check/codegen work that
    every shape carries, so unit text weighs ~0.5 KB."""
    return (f"(define clamp_{k} (lambda (x lo hi) "
            f"(if (< x lo) lo (if (> x hi) hi x))))\n  "
            f"(define twice_{k} (lambda (f x) (f (f x))))\n  "
            f"(define absval_{k} (lambda (x) (if (< x 0) (- 0 x) x)))\n  "
            f"(define weigh_{k} (lambda (a b) "
            f"(clamp_{k} (+ (absval_{k} a) (absval_{k} b)) 0 1000000000)))\n  ")


def _chain(rng: random.Random, n: int, tag: str) -> Program:
    """v_k = v_{k-1} + c_k: a dependency chain through every unit."""
    consts = [rng.randrange(1, 1000) for _ in range(n - 1)]
    units = []
    for k, c in enumerate(consts):
        prev = (f"(value_{k - 1})" if k else "0")
        units.append(Unit(
            (f"value_{k - 1}",) if k else (), (f"value_{k}",),
            _helpers(k) +
            f"(define const_{k} {c})\n  "
            f"(define value_{k} (lambda () (weigh_{k} {prev} "
            f"(twice_{k} (lambda (x) x) const_{k}))))\n  (void)"))
    last = n - 2
    units.append(Unit((f"value_{last}",), (), f"(value_{last})"))
    return Program(f"chain-{n}-{tag}", units, str(sum(consts)))


def _dag_units(consts: dict[int, int],
               deps: dict[int, tuple[int, ...]]) -> list[Unit]:
    units = []
    n = len(consts)
    for k in range(n):
        ds = deps[k]
        imports = tuple(f"value_{d}" for d in ds[:1]) + tuple(
            f"own_{d}" for d in ds[1:])
        spine = f"(value_{ds[0]})" if ds else "0"
        side = "".join(f" (own_{d})" for d in ds[1:])
        units.append(Unit(
            imports, (f"value_{k}", f"own_{k}"),
            _helpers(k) +
            f"(define const_{k} {consts[k]})\n  "
            f"(define own_{k} (lambda () const_{k}))\n  "
            f"(define value_{k} (lambda () (weigh_{k} {spine} "
            f"(+ (own_{k}){side}))))\n  (void)"))
    sinks = tuple(k for k in range(n)
                  if not any(k in deps[j][:1] for j in range(n)))
    total = " ".join(f"(value_{k})" for k in sinks)
    units.append(Unit(tuple(f"value_{k}" for k in sinks), (),
                      f"(+ 0 {total})"))
    return units


def dag_value(consts: dict[int, int], deps: dict[int, tuple[int, ...]]) -> int:
    """Closed form for :func:`_dag_units`: value_k = value_{spine} +
    own_k + sum of side owns; the main unit sums every spine sink."""
    memo: dict[int, int] = {}
    n = len(consts)
    for k in range(n):
        ds = deps[k]
        memo[k] = (memo[ds[0]] if ds else 0) + consts[k] + sum(
            consts[d] for d in ds[1:])
    sinks = [k for k in range(n)
             if not any(k in deps[j][:1] for j in range(n))]
    return sum(memo[k] for k in sinks)


def make_dag(rng: random.Random, n: int, tag: str, *,
             topology: random.Random | None = None) -> Program:
    """A random DAG: each unit calls one earlier unit's value (its
    spine parent) and reads up to two more earlier units' constants.

    Edges come from ``topology`` when given (a fixed graph whose
    constants still come from ``rng``), else from ``rng``.
    """
    m = n - 1
    consts = {k: rng.randrange(1, 1000) for k in range(m)}
    edges = topology or rng
    deps: dict[int, tuple[int, ...]] = {}
    for k in range(m):
        fan = min(k, edges.choice((1, 1, 2, 3)))
        deps[k] = tuple(edges.sample(range(k), fan)) if fan else ()
    return Program(f"dag-{n}-{tag}", _dag_units(consts, deps),
                   str(dag_value(consts, deps)), consts=consts, deps=deps)


def relink(prog: Program, k: int, const: int) -> Program:
    """``prog`` with unit ``k``'s constant replaced (one edit step)."""
    consts = dict(prog.consts)
    consts[k] = const
    return Program(prog.name, _dag_units(consts, prog.deps),
                   str(dag_value(consts, prog.deps)), consts=consts,
                   deps=prog.deps)


def _library(rng: random.Random, n: int, tag: str) -> Program:
    """n-1 identical copies of one library unit (constant salt per
    request) plus a main unit that runs its own copy of the library."""
    defns = 6
    salt = rng.randrange(1, 100000)
    arg = rng.randrange(1, 1000)
    defs = [f"(define lib_0 (lambda (x) (+ x {salt})))"]
    for i in range(1, defns):
        defs.append(f"(define lib_{i} (lambda (x) (lib_{i - 1} (+ x 1))))")
    body = "\n  ".join(defs) + "\n  " + _helpers(0)
    copy = Unit((), (), body + f"(weigh_0 (lib_{defns - 1} 0) 0)")
    main = Unit((), (), body + f"(weigh_0 (lib_{defns - 1} {arg}) 0)")
    value = arg + defns - 1 + salt
    return Program(f"library-{n}-{tag}",
                   [copy] * (n - 1) + [main], str(value))


def _evenodd(rng: random.Random, n: int, tag: str) -> Program:
    """(n-1)//2 cyclic even/odd unit pairs, each pair offset by its own
    seeded base; the main unit counts how many of its arguments are even."""
    pairs = max(1, (n - 1) // 2)
    args = [rng.randrange(0, 40) for _ in range(pairs)]
    bases = [rng.randrange(0, 100000) for _ in range(pairs)]
    units = []
    for k, base in enumerate(bases):
        for j, (mine, other, stop) in enumerate(
                (("even", "odd", "#t"), ("odd", "even", "#f"))):
            h = 2 * k + j
            units.append(Unit(
                (f"{other}_{k}",), (f"{mine}_{k}",),
                _helpers(h) +
                f"(define base_{h} {base})\n  "
                f"(define {mine}_{k} (lambda (n) (if (= (absval_{h} "
                f"(- n base_{h})) 0) {stop} ({other}_{k} (- n 1)))))\n  "
                f"(void)"))
    total = " ".join(f"(if (even_{k} {a + b}) 1 0)"
                     for k, (a, b) in enumerate(zip(args, bases)))
    units.append(Unit(tuple(f"even_{k}" for k in range(pairs)), (),
                      f"(+ 0 {total})"))
    return Program(f"evenodd-{n}-{tag}", units,
                   str(sum(1 for a in args if a % 2 == 0)))


_MAKERS = {"chain": _chain, "dag": make_dag, "library": _library,
           "evenodd": _evenodd}


def make_program(rng: random.Random, shape: str, n: int, tag: str) -> Program:
    """One program of ``shape`` with ``n`` units (main unit included)."""
    return _MAKERS[shape](rng, max(3, n), tag)


def phonebook() -> Program:
    """The paper's running example (a frozen copy of
    ``examples/phonebook.scm``, so edits there never move the
    workload)."""
    return Program("phonebook", [], PHONEBOOK_VALUE,
                   PHONEBOOK_OUTPUT, text=_PHONEBOOK.read_text())


def size_ladder(count: int, low: int = 8, high: int = 160) -> list[int]:
    """``count`` unit counts at evenly spaced quantiles (both ends
    included) of a bounded Pareto (alpha 1) on [low, high].

    Fixed quantiles rather than random draws keep the size mix, and so
    the share of programs past any size, identical in every block and
    seed.
    """
    span = 1.0 - low / high
    return [round(low / (1.0 - span * i / (count - 1)))
            for i in range(count)]

"""The three served workloads and what one measured pass records.

Every workload drives one ``repro serve`` process from this single
client process over at most two connections:

* ``cold-compile`` — closed loop, 1 connection, every request a
  distinct ``run`` (pycode backend) whose unit count walks a fixed
  heavy-tailed ladder from 8 to 160; parse, check and codegen do the
  work and the caches only miss.  Programs on the ladder's top rung
  send a request line longer than the server's 64 KiB stream limit;
  the server drops the connection without answering, which counts as
  a failure, and the client reconnects and goes on.
* ``warm-serve`` — open loop, Poisson arrivals on 2 pipelined
  connections, Zipf picks over a primed working set of 32 programs
  (phonebook among them), 80% ``run`` / 20% ``check``; every stage is
  a cache hit.  A fixed nominal rate gives the latency figures; a rate
  ladder above it finds the highest rate whose p99 stays under the
  limit.
* ``edit-relink`` — closed loop, 1 connection: one mid-size DAG
  program, one seeded unit's constant edited per step; each step sends
  ``link`` and then ``run`` of the returned linked text.  The only
  workload that reaches ``units.linker``.

Latency is measured at the client.  A request that fails, is refused
(``overloaded``), is dropped, or answers a wrong value counts as a miss
at the workload's latency limit.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

import gen
from client import Conn, Dropped, call, request_body, request_line, with_id

#: Per-workload latency limit (seconds) for the SLO.
LIMITS = {"cold-compile": 2.0, "warm-serve": 0.1, "edit-relink": 1.5}

#: Warm-serve: the nominal Poisson rate and the ladder above it.
NOMINAL_RPS = 50.0
LADDER_FACTOR = 2.0
LADDER_RUNGS = 4
#: Requests per ladder rung: p99 then has 10 samples beyond it.
RUNG_REQUESTS = 1000
#: The open loop's own schedule slip (p99), as a share of the latency
#: limit, beyond which a phase does not measure the server.
MAX_LATENESS = 0.25

EDIT_UNITS = 32
#: Sizes 8, 9, 10, 10, 12, 13, 15, 18, 22, 28, 38, 62, 160.  Only the
#: 160-unit programs pass the server's 64 KiB line limit (1 in 13), and
#: with 4 shapes a size p90 lands 70% into the 62-unit group: inside
#: the costlier pair of shapes, not on the edge between two.
COLD_SIZES = 13
#: The server's peak RSS is read after this many requests (or at the
#: end of a shorter pass), so it reflects a fixed amount of work, not
#: how much work a fast or slow host fits into the run.
RSS_AFTER = 128
#: Seven sizes against four shapes, so rank r cycles through 28
#: distinct (shape, size) pairs and no one pair owns the tail.
WARM_SIZES = (16, 20, 24, 32, 40, 48, 64)


#: Reads server-side telemetry (the traced run's cache figures) over
#: the workload's own, then idle, connection.
Probe = Callable[[Conn], Awaitable[dict]]


class InvalidRun(Exception):
    """The benchmark itself cannot vouch for this run (generator
    self-check mismatch, or an open loop that could not keep time)."""


@dataclass
class Request:
    rid: int
    latency: float  # seconds at the client (failures: at least the limit)
    status: str  # ok | error | overloaded | dropped | wrong


@dataclass
class Pass:
    """Everything one measured pass of a workload produced."""

    workload: str
    limit: float
    requests: list[Request] = field(default_factory=list)
    #: SLO samples (seconds): one per request, or per edit step.
    latencies: list[float] = field(default_factory=list)
    slo_met: int = 0
    wall: float = 0.0
    lateness: list[float] = field(default_factory=list)
    rungs: list[dict[str, float]] = field(default_factory=list)
    max_rps: float = 0.0
    #: Server telemetry read just before and just after the pass.
    marks: list[dict[str, object]] = field(default_factory=list)
    #: Reads the server's peak RSS (MB); its reading lands in ``rss_mb``.
    rss: Callable[[], float] | None = None
    rss_mb: float = 0.0

    def checkpoint_rss(self) -> None:
        if self.rss is not None and not self.rss_mb:
            self.rss_mb = self.rss()

    async def mark(self, probe: "Probe | None", conn: Conn) -> None:
        if probe is not None:
            self.marks.append(await probe(conn))

    def request(self, rid: int, latency: float, status: str) -> Request:
        """A request outcome; failures count at least the limit."""
        if status != "ok":
            latency = max(latency, self.limit)
        return Request(rid, latency, status)

    def record(self, rid: int, latency: float, status: str) -> Request:
        req = self.request(rid, latency, status)
        self.requests.append(req)
        if len(self.requests) == RSS_AFTER:
            self.checkpoint_rss()
        return req

    def slo(self, latency: float, ok: bool) -> None:
        """One SLO sample: ``ok`` and within the limit, or a miss."""
        met = ok and latency <= self.limit
        self.latencies.append(latency if ok else max(latency, self.limit))
        self.slo_met += met

    @property
    def attempted(self) -> int:
        return len(self.requests)

    def count(self, *statuses: str) -> int:
        return sum(1 for r in self.requests if r.status in statuses)

    @property
    def failed(self) -> int:
        return self.attempted - self.count("ok")


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (the rank-``ceil(q n)`` smallest value)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def _status(response: dict[str, object], value: str | None,
            output: str | None = None) -> str:
    status = response.get("status")
    if status != "ok":
        return "overloaded" if status == "overloaded" else "error"
    if value is not None and response.get("value") != value:
        return "wrong"
    if output is not None and response.get("output") != output:
        return "wrong"
    return "ok"


async def _live(conn: Conn, port: int) -> Conn:
    """``conn``, or a fresh connection if the server dropped it."""
    if conn.alive:
        return conn
    await conn.close()
    return await Conn.open(port)


class _Ids:
    def __init__(self, start: int = 0) -> None:
        self.next = start

    def __call__(self) -> int:
        self.next += 1
        return self.next


# ---------------------------------------------------------------------------
# Generator self-check
# ---------------------------------------------------------------------------

async def self_check(port: int, seed: int) -> None:
    """The closed-form values must equal what the server answers on a
    small seeded sample (one program per shape, cold and then warm,
    plus one link-then-run); a mismatch invalidates the run."""
    rng = random.Random(f"self-check/{seed}")
    conn = await Conn.open(port)
    ids = _Ids(10 ** 9)  # never reused by a measured request
    try:
        progs = [gen.make_program(rng, shape, rng.randrange(8, 17), "check")
                 for shape in gen.SHAPES] + [gen.phonebook()]
        for prog in progs:
            for attempt in ("cold", "warm"):
                response = await call(conn, ids(), "run", source=prog.text,
                                      backend="pycode")
                got = response.get("value", response.get("error"))
                if _status(response, prog.value, prog.output or None) != "ok":
                    raise InvalidRun(
                        f"self-check: {prog.name} ({attempt}) answered "
                        f"{got!r}, closed form says {prog.value!r}")
        dag = gen.make_dag(rng, 12, "check")
        linked = await call(conn, ids(), "link", source=dag.text)
        response = await call(conn, ids(), "run",
                              source=str(linked.get("value")),
                              backend="pycode")
        if _status(response, dag.value) != "ok":
            raise InvalidRun(f"self-check: linked {dag.name} answered "
                             f"{response.get('value')!r}, closed form "
                             f"says {dag.value!r}")
    finally:
        await conn.close()


# ---------------------------------------------------------------------------
# cold-compile
# ---------------------------------------------------------------------------

async def cold_compile(port: int, seed: int, seconds: float, *,
                       probe: Probe | None = None,
                       rss: Callable[[], float] | None = None,
                       **_: object) -> Pass:
    rng = random.Random(f"cold-compile/{seed}")
    out = Pass("cold-compile", LIMITS["cold-compile"], rss=rss)
    ids = _Ids()
    conn = await Conn.open(port)
    await out.mark(probe, conn)
    t_start = time.perf_counter()
    block = 0
    # Whole blocks only: a block is every shape at every size once, in
    # seeded order, so every pass sees the same mix whatever its length.
    cells = [(shape, n) for shape in gen.SHAPES
             for n in gen.size_ladder(COLD_SIZES)]
    while time.perf_counter() - t_start < seconds:
        for i, (shape, n) in enumerate(rng.sample(cells, len(cells))):
            prog = gen.make_program(rng, shape, n, f"{block}.{i}")
            rid = ids()
            line = request_line(rid, "run", source=prog.text,
                                backend="pycode")
            conn = await _live(conn, port)
            t0 = time.perf_counter()
            try:
                t1, response = await conn.send(rid, line)
                status = _status(response, prog.value)
            except Dropped:
                t1, status = time.perf_counter(), "dropped"
            req = out.record(rid, t1 - t0, status)
            out.slo(req.latency, status == "ok")
        block += 1
    out.wall = time.perf_counter() - t_start
    out.checkpoint_rss()
    conn = await _live(conn, port)
    await out.mark(probe, conn)
    await conn.close()
    return out


# ---------------------------------------------------------------------------
# edit-relink
# ---------------------------------------------------------------------------

async def edit_relink(port: int, seed: int, seconds: float, *,
                      probe: Probe | None = None,
                      rss: Callable[[], float] | None = None,
                      **_: object) -> Pass:
    rng = random.Random(f"edit-relink/{seed}")
    out = Pass("edit-relink", LIMITS["edit-relink"], rss=rss)
    ids = _Ids()
    # A fixed link graph for every seed; the seed picks its constants
    # and the edit sequence.
    prog = gen.make_dag(rng, EDIT_UNITS, "edit",
                        topology=random.Random(f"topology/{EDIT_UNITS}"))
    conn = await Conn.open(port)
    # One unmeasured step, so the pass starts from a linked program
    # whose subtrees are in the caches.
    await call(conn, ids(), "link", source=prog.text)
    await out.mark(probe, conn)
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds:
        k = rng.randrange(len(prog.consts))
        prog = gen.relink(prog, k, rng.randrange(1, 10 ** 6))
        conn = await _live(conn, port)
        rid = ids()
        t0 = time.perf_counter()
        try:
            t1, response = await conn.send(
                rid, request_line(rid, "link", source=prog.text))
            status = _status(response, None)
        except Dropped:
            t1, status = time.perf_counter(), "dropped"
        out.record(rid, t1 - t0, status)
        if status != "ok":
            out.slo(t1 - t0, False)
            continue
        rid = ids()
        try:
            t2, response = await conn.send(rid, request_line(
                rid, "run", source=response["value"], backend="pycode"))
            status = _status(response, prog.value)
        except Dropped:
            t2, status = time.perf_counter(), "dropped"
        out.record(rid, t2 - t1, status)
        out.slo(t2 - t0, status == "ok")
    out.wall = time.perf_counter() - t_start
    out.checkpoint_rss()
    conn = await _live(conn, port)
    await out.mark(probe, conn)
    await conn.close()
    return out


# ---------------------------------------------------------------------------
# warm-serve
# ---------------------------------------------------------------------------

def warm_set(seed: int) -> list[gen.Program]:
    """32 programs by Zipf rank.  Rank 0 is the phonebook; rank r > 0
    has a fixed shape, size and (for DAGs) link graph, so seeds change
    constants, never the cost profile of the mix."""
    rng = random.Random(f"warm-set/{seed}")
    progs = [gen.phonebook()]
    for r in range(1, 32):
        shape = gen.SHAPES[r % len(gen.SHAPES)]
        n = WARM_SIZES[r % len(WARM_SIZES)]
        if shape == "dag":
            progs.append(gen.make_dag(rng, n, f"warm{r}",
                                      topology=random.Random(f"topology/{r}")))
        else:
            progs.append(gen.make_program(rng, shape, n, f"warm{r}"))
    return progs


class _OpenLoop:
    """Poisson arrivals over two pipelined connections."""

    def __init__(self, port: int, seed: int, progs: list[gen.Program],
                 out: Pass):
        self.port = port
        self.rng = random.Random(f"warm-serve/{seed}")
        self.progs = progs
        self.out = out
        self.ids = _Ids()
        self.conns: list[Conn] = []
        weights = [1.0 / (r + 1) for r in range(len(progs))]
        total = sum(weights)
        self.cdf = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self.cdf.append(acc)
        self.bodies = {(op, rank): request_body(op, source=prog.text,
                                                backend="pycode")
                       for rank, prog in enumerate(progs)
                       for op in ("run", "check")}

    async def open(self) -> None:
        self.conns = [await Conn.open(self.port) for _ in range(2)]

    async def close(self) -> None:
        for conn in self.conns:
            await conn.close()

    def _pick(self) -> tuple[str, int]:
        u = self.rng.random()
        rank = next((i for i, c in enumerate(self.cdf) if u <= c),
                    len(self.cdf) - 1)
        return "run" if self.rng.random() < 0.8 else "check", rank

    async def _one(self, conn: Conn, rid: int, op: str, prog: gen.Program,
                   line: bytes, due: float,
                   sink: list[Request]) -> None:
        try:
            t_recv, response = await conn.send(rid, line)
            if op == "run":
                status = _status(response, prog.value, prog.output)
            else:
                status = _status(response, "ok")
        except Dropped:
            t_recv, status = time.perf_counter(), "dropped"
        sink.append(self.out.request(rid, t_recv - due, status))

    async def phase(self, rate: float, count: int) -> dict[str, float]:
        """Offer ``count`` Poisson arrivals at ``rate`` requests/s;
        latency runs from each request's scheduled send."""
        sink: list[Request] = []
        lateness: list[float] = []
        tasks = []
        t0 = time.perf_counter() + 0.005
        due = t0
        for i in range(count):
            due += self.rng.expovariate(rate)
            op, rank = self._pick()
            prog = self.progs[rank]
            rid = self.ids()
            line = with_id(rid, self.bodies[op, rank])
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(max(0.0, time.perf_counter() - due))
            conn = self.conns[i % 2] = await _live(self.conns[i % 2],
                                                   self.port)
            tasks.append(asyncio.create_task(
                self._one(conn, rid, op, prog, line, due, sink)))
        await asyncio.gather(*tasks)
        lats = [r.latency for r in sink]
        misses = sum(1 for r in sink
                     if r.status != "ok" or r.latency >= self.out.limit)
        tail = sorted(sink, key=lambda r: r.rid)[-max(1, len(sink) // 10):]
        return {
            "rate": rate, "requests": len(sink),
            "p50": quantile(lats, 0.5), "p99": quantile(lats, 0.99),
            "failed": sum(1 for r in sink if r.status != "ok"),
            "miss": misses / len(sink),
            "late_p99": quantile(lateness, 0.99),
            "tail_p50": quantile([r.latency for r in tail], 0.5),
            "_sink": sink, "_lateness": lateness,
        }


async def warm_serve(port: int, seed: int, seconds: float, *,
                     probe: Probe | None = None,
                     rss: Callable[[], float] | None = None,
                     ladder: bool = True) -> Pass:
    out = Pass("warm-serve", LIMITS["warm-serve"], rss=rss)
    progs = warm_set(seed)
    loop = _OpenLoop(port, seed, progs, out)
    await loop.open()
    try:
        # Prime: every program, both ops, answered correctly.
        for prog in progs:
            for op in ("run", "check"):
                response = await call(loop.conns[0], loop.ids(), op,
                                      source=prog.text, backend="pycode")
                want = prog.value if op == "run" else "ok"
                if _status(response, want) != "ok":
                    raise InvalidRun(f"priming {prog.name}/{op} answered "
                                     f"{response.get('value')!r}, expected "
                                     f"{want!r}")
        await out.mark(probe, loop.conns[0])
        t_start = time.perf_counter()
        # With the ladder, the nominal phase takes two thirds of the
        # run, but never fewer arrivals than a ladder rung.
        share = 2 / 3 if ladder else 1.0
        nominal = await loop.phase(NOMINAL_RPS, max(
            RUNG_REQUESTS, round(NOMINAL_RPS * seconds * share)))
        out.wall = time.perf_counter() - t_start
        out.checkpoint_rss()
        await out.mark(probe, loop.conns[0])
        # Attempts and failures count the nominal phase only: the
        # ladder is meant to overload the server.
        out.requests.extend(nominal.pop("_sink"))
        for req in out.requests:
            out.slo(req.latency, req.status == "ok")
        out.lateness = nominal.pop("_lateness")
        if nominal["late_p99"] > MAX_LATENESS * out.limit:
            raise InvalidRun(
                f"open-loop generator ran {nominal['late_p99'] * 1e3:.1f} ms "
                f"late at p99 (> {MAX_LATENESS * out.limit * 1e3:.0f} ms)")
        out.rungs.append(nominal)
        if ladder:
            for k in range(1, LADDER_RUNGS + 1):
                rung = await loop.phase(NOMINAL_RPS * LADDER_FACTOR ** k,
                                        RUNG_REQUESTS)
                del rung["_sink"], rung["_lateness"]
                out.rungs.append(rung)
                if not _rung_ok(rung, out.limit):
                    break
            out.max_rps = max_rps_slo(out.rungs, out.limit)
    finally:
        await loop.close()
    return out


def _rung_ok(rung: dict[str, float], limit: float) -> bool:
    """p99 under the limit (at most 1% misses, failures included), the
    generator kept time, and the rung's last tenth saw no grown
    backlog."""
    return (rung["miss"] <= 0.01
            and rung["late_p99"] <= MAX_LATENESS * limit
            and rung["tail_p50"] < limit)


def max_rps_slo(rungs: list[dict[str, float]], limit: float) -> float:
    """The highest rate meeting the SLO, interpolated on the log miss
    share between the last passing rung and the first failing one (so
    the figure moves smoothly instead of jumping a whole rung)."""
    passing = [r for r in rungs if _rung_ok(r, limit)]
    if not passing:
        return rungs[0]["rate"] * 0.01 / max(rungs[0]["miss"], 0.01)
    best = passing[-1]
    failing = [r for r in rungs if r["rate"] > best["rate"]]
    if not failing:
        return best["rate"]
    nxt = failing[0]
    lo = math.log(max(best["miss"], 1.0 / best["requests"]))
    hi = math.log(max(nxt["miss"], 0.01))
    frac = 1.0 if hi <= lo else (math.log(0.01) - lo) / (hi - lo)
    return best["rate"] + (nxt["rate"] - best["rate"]) * min(1.0, frac)


WORKLOADS = {
    "cold-compile": cold_compile,
    "warm-serve": warm_serve,
    "edit-relink": edit_relink,
}

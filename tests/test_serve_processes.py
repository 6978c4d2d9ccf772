"""Cross-process differential sweep for the multi-process server.

The worker pool re-architects *where* requests execute (spawned
processes with private stores instead of threads over one shared
store), so the claim that must survive is observational: **execution
mode is invisible in every response**.  Three live servers — the
thread-mode server, a 1-process pool, and a 2-process pool — receive
the entire conformance corpus plus a set of typed failures, and every
value, output, error type/message, and exit-code mapping must be
byte-identical across the three (and, for the corpus, equal to the
golden expectation).

Also covered here:

* warm sharing across sibling workers: after ``flush`` empties every
  worker's memory tiers, a request served by a *different* pid than
  the one that did the original work must still produce a cache hit —
  which can only come from the disk tier its sibling wrote;
* the pool's crash taxonomy: a ``worker-kill`` request fails with
  ``WorkerCrashed`` on process servers and is inert by design on the
  thread server (there is no process to lose);
* control-op parity: ``stats``/``flush`` answer with
  the same shapes in both modes (plus the ``workers`` descriptor);
* collector telemetry: ``stats`` carries a ``gc`` block, and a
  spawned ``repro serve`` and every worker process run with the
  serving collector thresholds.
"""

from __future__ import annotations

import gc
import os
import signal
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.lang.sexpr import read_sexpr, write_sexpr
from repro.obs import MetricsRegistry
from repro.serve.client import ServeClient, exit_code_for, read_port_file
from repro.serve.server import LinkServer, ServeConfig, ServerThread
from repro.units.cache import CacheStore
from tests.test_corpus import CASES

GREET = """
(invoke (unit (import) (export greet)
  (define greet (lambda (n) (* n 7)))
  (greet 6)))
"""

LOOP = "(letrec ((spin (lambda (n) (spin (+ n 1))))) (spin 0))"

#: Requests that must fail identically in every mode: each is a
#: (fields, expected-error-type) pair covering one arm of the batch1
#: taxonomy (static check, parse, runtime, budget, chaos-at-archive).
FAILING = {
    "check-error": ({"op": "check",
                     "source": "(invoke (unit (import) (export missing)"
                               " 1))"},
                    "CheckError"),
    "parse-error": ({"op": "run", "source": "(invoke (unit (import)"},
                    "LexError"),
    "runtime-error": ({"op": "run", "source": "(car 1)"},
                      None),  # whatever it is, it must agree
    "over-budget": ({"op": "run", "source": LOOP, "eval_steps": 500},
                    "BudgetExceeded"),
    "poison": ({"op": "run", "source": GREET, "archive": True,
                "chaos": ["poison"]},
               "ArchiveError"),
}

MODES = ("threads", "p1", "p2")


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    """One live server per execution mode, shared by the sweep."""
    started = {}
    specs = {"threads": 0, "p1": 1, "p2": 2}
    try:
        for name, processes in specs.items():
            cache_dir = tmp_path_factory.mktemp(f"serve-{name}")
            config = ServeConfig(workers=2, processes=processes,
                                 cache_dir=str(cache_dir),
                                 allow_chaos=True,
                                 default_deadline_s=60.0)
            started[name] = ServerThread(
                config, registry=MetricsRegistry()).start()
        yield started
    finally:
        for st in started.values():
            st.stop()


def _send(st: ServerThread, fields: dict) -> dict:
    fields = dict(fields)
    op = fields.pop("op")
    with ServeClient(st.host, st.port, timeout_s=120.0) as client:
        return client.request(op, **fields)


def _essence(response: dict) -> tuple:
    """Everything a client can observe, minus mode-revealing extras
    (the ``worker`` pid annotation and timing jitter)."""
    code = exit_code_for(response)
    if response["status"] == "ok":
        return ("ok", code, response.get("value"),
                response.get("output", ""))
    err = response["error"]
    return ("error", code, err["type"], err["message"],
            err.get("resource"), err.get("limit"))


class TestCrossProcessDifferential:
    @pytest.mark.parametrize(
        "case", CASES, ids=lambda c: c.name)
    def test_corpus_identical_across_modes(self, servers, case):
        fields = {"op": "run", "source": case.source,
                  "backend": "pycode", "lenient": case.lenient,
                  "origin": case.name}
        got = {mode: _essence(_send(servers[mode], fields))
               for mode in MODES}
        assert got["p1"] == got["threads"], case.name
        assert got["p2"] == got["threads"], case.name
        status, _code, value, output = got["threads"][:4]
        assert status == "ok", got["threads"]
        assert value == write_sexpr(read_sexpr(case.expect_value))
        if case.expect_output is not None:
            assert output == case.expect_output

    @pytest.mark.parametrize(
        "name", sorted(FAILING), ids=lambda n: n)
    def test_failures_identical_across_modes(self, servers, name):
        fields, expected_type = FAILING[name]
        got = {mode: _essence(_send(servers[mode], fields))
               for mode in MODES}
        assert got["p1"] == got["threads"], name
        assert got["p2"] == got["threads"], name
        status, code, err_type = got["threads"][:3]
        assert status == "error"
        if expected_type is not None:
            assert err_type == expected_type
        assert code == (3 if expected_type == "BudgetExceeded" else 1)

    def test_link_status_agrees(self, servers):
        # Link *output* is gensym-sensitive (fresh-name counters differ
        # with history), so only the status/taxonomy is differential.
        fields = {"op": "link", "source": GREET}
        got = {mode: _send(servers[mode], fields) for mode in MODES}
        assert all(got[mode]["status"] == "ok" for mode in MODES)

    def test_worker_kill_crashes_processes_only(self, servers):
        fields = {"op": "run", "source": GREET,
                  "chaos": ["worker-kill"]}
        # Thread mode: no process to lose — inert by design.
        inert = _send(servers["threads"], fields)
        assert inert["status"] == "ok"
        assert inert["value"] == "42"
        # Process modes: typed WorkerCrashed (pids differ, so compare
        # type and code rather than the message).
        for mode in ("p1", "p2"):
            crashed = _send(servers[mode], fields)
            assert crashed["status"] == "error", (mode, crashed)
            assert crashed["error"]["type"] == "WorkerCrashed"
            assert exit_code_for(crashed) == 1
            # The replacement worker serves the clean re-send.
            clean = _send(servers[mode],
                          {"op": "run", "source": GREET})
            assert clean["status"] == "ok"
            assert clean["value"] == "42"


class TestDiskTierSharing:
    def test_sibling_worker_serves_from_disk(self, tmp_path):
        """The cross-process warm substrate: worker A's disk write is
        worker B's cache hit.

        ``flush`` broadcasts to every worker and empties all memory
        tiers, so when the repeated request lands on a *different*
        pid and still counts a ``cache.hit``, that hit can only have
        come from the disk tier the first worker populated.
        """
        registry = MetricsRegistry()
        config = ServeConfig(processes=2, cache_dir=str(tmp_path),
                             default_deadline_s=60.0)
        with ServerThread(config, registry=registry) as st:
            with ServeClient(st.host, st.port,
                             timeout_s=120.0) as client:
                first = client.request("run", source=GREET)
                assert first["status"] == "ok"
                before = registry.snapshot()["counters"]
                # Round-robin makes the very next request land on the
                # sibling; retry a few times so the test depends on
                # the response's pid annotation, not queue order.
                for _ in range(4):
                    assert client.request("flush")["value"] == "flushed"
                    second = client.request("run", source=GREET)
                    assert second["status"] == "ok"
                    if second["worker"] != first["worker"]:
                        break
                after = registry.snapshot()["counters"]
        assert second["worker"] != first["worker"]
        assert second["value"] == first["value"] == "42"
        assert after.get("cache.hit", 0) > before.get("cache.hit", 0)
        assert list(Path(tmp_path).rglob("*.py")), \
            "expected pycode disk-tier entries to exist"


class TestProcessModeControlOps:
    def test_stats_reports_pool_and_summed_occupancy(self, tmp_path):
        config = ServeConfig(processes=2, cache_dir=str(tmp_path),
                             default_deadline_s=60.0)
        with ServerThread(config) as st:
            with ServeClient(st.host, st.port,
                             timeout_s=120.0) as client:
                client.request("run", source=GREET)
                stats = client.request("stats")
                workers = stats["workers"]
                assert workers["mode"] == "processes"
                assert workers["processes"] == 2
                assert len(workers["pids"]) == 2
                assert workers["deaths"] == 0
                assert workers["respawns"] == 0
                assert len(workers["per_worker"]) == 2
                # The request warmed exactly one worker's memory: its
                # parse entry, which carries the compiled code.
                assert sorted(stats["occupancy"]) == ["dynlink", "flatten"]
                assert stats["occupancy"]["dynlink"] >= 1
                assert client.request("flush")["value"] == "flushed"
                drained = client.request("stats")["occupancy"]
                assert all(n == 0 for n in drained.values())

    def test_thread_mode_stats_names_its_mode(self):
        with ServerThread(ServeConfig(workers=3)) as st:
            with ServeClient(st.host, st.port) as client:
                workers = client.request("stats")["workers"]
        assert workers == {"mode": "threads", "workers": 3}

    def test_only_thread_mode_builds_a_parent_store(self):
        # Process-mode workers each build their own store, and the
        # parent broadcasts control ops to them.
        assert LinkServer(ServeConfig(processes=2)).store is None
        assert isinstance(LinkServer(ServeConfig()).store, CacheStore)
        assert "ttl_s" not in {f.name for f in fields(ServeConfig)}


SERVING_THRESHOLD = [20_000, 10, 10]


def _assert_gc_block(block: dict, threshold: list[int]) -> None:
    assert block["threshold"] == threshold
    assert len(block["collections"]) == 3
    assert all(isinstance(n, int) and n >= 0
               for n in block["collections"])
    assert block["gen2_pause_total_s"] >= block["gen2_pause_max_s"] >= 0
    # Every generation is timed; gen-2 is the last of each list.
    assert len(block["pause_total_s"]) == len(block["pause_max_s"]) == 3
    for total, longest in zip(block["pause_total_s"], block["pause_max_s"]):
        assert total >= longest >= 0
    assert block["pause_total_s"][2] == pytest.approx(
        block["gen2_pause_total_s"])
    assert block["pause_max_s"][2] == block["gen2_pause_max_s"]


class TestGcTelemetry:
    def test_spawned_server_runs_serving_thresholds(self, tmp_path):
        port_file = tmp_path / "port"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port-file",
             str(port_file), "--workers", "2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        try:
            port = read_port_file(port_file, timeout_s=60)
            with ServeClient("127.0.0.1", port, timeout_s=60) as client:
                assert client.request("run", source=GREET)["value"] == "42"
                block = client.request("stats")["gc"]
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                out, _ = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                out, _ = proc.communicate()
        assert proc.returncode == 0, out
        _assert_gc_block(block, SERVING_THRESHOLD)

    def test_workers_run_serving_thresholds_and_sum_counts(self, tmp_path):
        config = ServeConfig(processes=2, cache_dir=str(tmp_path),
                             default_deadline_s=60.0)
        with ServerThread(config) as st:
            with ServeClient(st.host, st.port,
                             timeout_s=120.0) as client:
                client.request("run", source=GREET)
                stats = client.request("stats")
        block = stats["gc"]
        per_worker = [entry["gc"] for entry in stats["workers"]["per_worker"]]
        assert len(per_worker) == 2
        for worker in per_worker:
            _assert_gc_block(worker, SERVING_THRESHOLD)
        assert block["worker_thresholds"] == [SERVING_THRESHOLD] * 2
        # The in-process acceptor keeps the host's settings.
        _assert_gc_block(block, list(gc.get_threshold()))
        assert block["collections"] == [
            sum(counts) for counts in
            zip(*(worker["collections"] for worker in per_worker))]
        assert block["gen2_pause_total_s"] == pytest.approx(
            sum(worker["gen2_pause_total_s"] for worker in per_worker))
        assert block["gen2_pause_max_s"] == max(
            worker["gen2_pause_max_s"] for worker in per_worker)
        for gen in range(3):
            assert block["pause_total_s"][gen] == pytest.approx(
                sum(worker["pause_total_s"][gen] for worker in per_worker))
            assert block["pause_max_s"][gen] == max(
                worker["pause_max_s"][gen] for worker in per_worker)

    def test_in_process_thread_server_keeps_host_gc(self):
        with ServerThread(ServeConfig(workers=2)) as st:
            with ServeClient(st.host, st.port) as client:
                block = client.request("stats")["gc"]
        assert block["threshold"] == list(gc.get_threshold())
        assert block["gen2_pause_total_s"] is None
        assert block["gen2_pause_max_s"] is None
        assert block["pause_total_s"] is None
        assert block["pause_max_s"] is None

    def test_probe_times_young_collections(self, monkeypatch):
        from repro.serve import server

        timer = server._CollectionTimer()
        monkeypatch.setattr(server, "_collections", timer)
        gc.callbacks.append(timer)
        try:
            gc.collect(0)
            gc.collect(1)
            block = server.gc_stats()
        finally:
            gc.callbacks.remove(timer)
        assert all(pause > 0 for pause in block["pause_max_s"][:2])
        assert block["pause_total_s"][2] == block["gen2_pause_total_s"] == 0

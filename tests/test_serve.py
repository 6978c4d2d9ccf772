"""The link server: protocol, per-request isolation, admission, drain.

Three layers, tested bottom-up:

* :func:`repro.serve.protocol.validate_request` — the wire contract
  (strict typing, defaults, rejection messages);
* :func:`repro.serve.handlers.execute_request` — one request in one
  worker thread: scopes re-entered, the batch error taxonomy mapped to
  structured responses with the CLI exit codes, deadlines clamped;
* the daemon end-to-end over real sockets (``ServerThread`` +
  ``ServeClient``): warm runs share the store, the ``metrics`` op's
  envelope feeds ``load_snapshot`` unchanged, admission control sheds
  instead of queueing, a draining server answers
  ``shutting-down`` while in-flight work still finishes, and a request
  line longer than the stream buffer is served while one past the
  request limit is refused without losing the connection.
"""

import json
import socket

import pytest

from repro.obs import MetricsRegistry
from repro.obs.metrics import load_snapshot
from repro.serve import protocol
from repro.serve.chaos import run_chaos_sweep
from repro.serve.client import ServeClient, exit_code_for
from repro.serve.handlers import execute_request, request_budget
from repro.serve.server import ServeConfig, ServerThread
from repro.units.cache import CacheStore


GREET = """
(invoke (unit (import) (export greet)
  (define greet (lambda (n) (* n 7)))
  (greet 6)))
"""

LOOP = "(letrec ((spin (lambda (n) (spin (+ n 1))))) (spin 0))"


def _request(op="run", **fields):
    base = {"id": 1, "op": op}
    if op in protocol.PIPELINE_OPS:
        base["source"] = GREET
    base.update(fields)
    return protocol.validate_request(base)


def _execute(req, *, store=None, registry=None, config=None):
    return execute_request(req,
                           store if store is not None else CacheStore(),
                           registry if registry is not None
                           else MetricsRegistry(),
                           config if config is not None else ServeConfig())


class TestValidateRequest:
    def test_pipeline_defaults_filled(self):
        req = _request("run")
        assert req["backend"] == "pycode"
        assert req["lenient"] is False
        assert req["archive"] is False
        assert req["retries"] == 0
        assert req["deadline_s"] is None
        assert req["chaos"] == ()
        assert req["origin"] == "<request>"

    def test_control_ops_need_no_source(self):
        for op in ("ping", "metrics", "stats", "flush"):
            assert protocol.validate_request({"op": op})["op"] == op

    @pytest.mark.parametrize("bad", [
        "not a dict",
        {"op": "compile"},
        {"op": "run"},                                # no source
        {"op": "run", "source": "   "},               # blank source
        {"op": "run", "source": "(x)", "backend": "jit"},
        {"op": "run", "source": "(x)", "retries": -1},
        {"op": "run", "source": "(x)", "retries": True},
        {"op": "run", "source": "(x)", "deadline_s": 0},
        {"op": "run", "source": "(x)", "deadline_s": "fast"},
        {"op": "run", "source": "(x)", "chaos": "cache-io"},
        {"op": "run", "source": "(x)", "chaos": ["meteor"]},
        {"op": "run", "source": "(x)", "chaos_slow_s": -1},
        {"op": "run", "source": "(x)", "deadline_s": float("nan")},
        {"op": "run", "source": "(x)", "deadline_s": float("inf")},
        {"op": "run", "source": "(x)", "deadline_s": float("-inf")},
        {"op": "run", "source": "(x)", "chaos_slow_s": float("nan")},
        {"op": "run", "source": "(x)", "chaos_slow_s": float("inf")},
        {"op": "invalidate"},
        {"op": "invalidate", "digest": ""},
        {"op": "invalidate", "digest": "/tmp/victim/keep"},
        {"op": "invalidate", "digest": "../../../victim/keep"},
        {"op": "invalidate", "digest": "0123456789ABCDEF" * 2},
        {"op": "invalidate", "digest": 12345},
    ])
    def test_rejections(self, bad):
        with pytest.raises(protocol.ProtocolError):
            protocol.validate_request(bad)

    def test_deadline_clamped_by_config(self):
        config = ServeConfig(default_deadline_s=5.0, max_deadline_s=30.0)
        generous = _request("run", deadline_s=10_000)
        assert request_budget(generous, config).deadline_s == 30.0
        absent = _request("run")
        assert request_budget(absent, config).deadline_s == 5.0


class TestExecuteRequest:
    def test_run_ok(self):
        response = _execute(_request("run"))
        assert response["status"] == "ok"
        assert response["value"] == "42"
        assert response["op"] == "run"
        assert set(response["timings"]) >= {"parse", "check", "eval",
                                            "total"}
        assert exit_code_for(response) == 0

    def test_check_and_link(self):
        assert _execute(_request("check"))["value"] == "ok"
        linked = _execute(_request("link"))
        assert linked["status"] == "ok"
        assert linked["value"].startswith("(")

    def test_typed_failure_code_1(self):
        bad = "(invoke (unit (import) (export missing) 1))"
        response = _execute(_request("check", source=bad))
        assert response["status"] == "error"
        assert response["error"]["type"] == "CheckError"
        assert response["error"]["code"] == 1
        assert exit_code_for(response) == 1

    def test_budget_exhaustion_code_3(self):
        response = _execute(_request("run", source=LOOP,
                                     eval_steps=500))
        assert response["status"] == "error"
        assert response["error"]["type"] == "BudgetExceeded"
        assert response["error"]["code"] == 3
        assert response["error"]["resource"] == "eval_steps"
        assert exit_code_for(response) == 3

    def test_deadline_exhaustion_is_typed_not_a_crash(self):
        config = ServeConfig(max_deadline_s=None)
        response = _execute(_request("run", deadline_s=1e-9),
                            config=config)
        assert response["status"] == "error"
        assert response["error"]["resource"] == "deadline"

    def test_chaos_ignored_unless_allowed(self):
        # The default config forbids fault injection, so a chaotic
        # request degrades to a plain healthy one.
        req = _request("run", archive=True, chaos=["poison"])
        response = _execute(req)  # allow_chaos=False
        assert response["status"] == "ok"
        assert response["value"] == "42"

    def test_requests_share_the_store(self):
        store = CacheStore()
        cold = _execute(_request("run"), store=store)
        warm = _execute(_request("run"), store=store)
        assert cold["value"] == warm["value"] == "42"
        assert len(store.parse) >= 1  # the shared parse tier was fed

    def test_registry_accumulates_across_requests(self):
        registry = MetricsRegistry()
        for _ in range(3):
            _execute(_request("run"), registry=registry)
        snap = registry.snapshot()
        assert snap["counters"]["serve.request"] == 3
        assert snap["spans"] >= 3
        assert snap["dropped"] == 0


class TestOneRecordPerText:
    """A repeated pycode ``run`` on one thread-mode store reuses its
    parse entry whole: the syntax, the check verdict and the code."""

    LIBRARY = ("(define six (invoke (unit (import) (export) 6)))", "<lib>")

    def _second_of_two(self, monkeypatch, **fields):
        from repro import backend
        from repro import obs

        store = CacheStore()
        req = {**_request("run"), **fields}
        assert _execute(req, store=store)["value"] == "42"
        generated = []
        real = backend.generate_source
        monkeypatch.setattr(backend, "generate_source",
                            lambda expr: generated.append(expr) or real(expr))
        with obs.collecting() as col:
            response = _execute(req, store=store,
                                registry=MetricsRegistry(parent=col))
        assert response["value"] == "42"
        assert generated == []
        pycode = [(e.kind, e.fields.get("tier")) for e in col.events
                  if e.kind.startswith("cache.")
                  and e.fields.get("cache") == "pycode"]
        assert pycode == [("cache.hit", "memory")]
        assert col.counters["pycode.codegen"] == 1
        assert not [e for e in col.events if e.kind.startswith("check.")]

    def test_repeat_reuses_verdict_and_code(self, monkeypatch):
        self._second_of_two(monkeypatch)

    def test_repeat_with_libraries_reuses_verdict_and_code(self,
                                                           monkeypatch):
        self._second_of_two(monkeypatch, libraries=[self.LIBRARY])


class TestServerEndToEnd:
    def test_pipeline_and_control_ops_over_a_socket(self, tmp_path):
        config = ServeConfig(workers=2, cache_dir=str(tmp_path))
        with ServerThread(config) as st:
            with ServeClient(st.host, st.port) as client:
                assert client.request("ping")["value"] == "pong"
                cold = client.request("run", source=GREET)
                warm = client.request("run", source=GREET)
                assert cold["value"] == warm["value"] == "42"
                stats = client.request("stats")
                assert stats["occupancy"]["dynlink"] >= 1
                metrics = client.request("metrics")
                counters = metrics["metrics"]["counters"]
                assert counters["serve.requests"] == 2
                assert metrics["metrics"]["dropped"] == 0
                assert client.request("flush")["value"] == "flushed"
                after = client.request("stats")["occupancy"]
                assert all(n == 0 for n in after.values())

    def test_bad_lines_answered_not_fatal(self):
        with ServerThread(ServeConfig(workers=1)) as st:
            with socket.create_connection((st.host, st.port),
                                          timeout=30) as sock:
                f = sock.makefile("rwb")
                f.write(b"this is not json\n")
                f.write(b'{"op": "nope"}\n')
                f.write(b'{"id": 9, "op": "ping"}\n')
                f.flush()
                frames = [json.loads(f.readline()) for _ in range(3)]
        by_status = sorted(frame["status"] for frame in frames)
        assert by_status == ["error", "error", "ok"]
        ok = next(frame for frame in frames if frame["status"] == "ok")
        assert ok["id"] == 9

    def test_long_line_answered_with_the_next_one(self):
        # Far past the stream's 64 KiB buffer limit: the line is read
        # in chunks, and the request pipelined behind it is answered.
        source = '(string-length "' + "x" * (1 << 20) + '")'
        with ServerThread(ServeConfig(workers=2)) as st:
            with socket.create_connection((st.host, st.port),
                                          timeout=30) as sock:
                f = sock.makefile("rwb")
                f.write(json.dumps({"id": 1, "op": "run",
                                    "source": source}).encode() + b"\n")
                f.write(b'{"id": 2, "op": "run", "source": "(+ 1 2)"}\n')
                f.flush()
                frames = {frame["id"]: frame for frame in
                          (json.loads(f.readline()) for _ in range(2))}
        assert frames[1]["status"] == "ok", frames[1]
        assert frames[1]["value"] == str(1 << 20)
        assert frames[2]["value"] == "3"

    def test_line_past_the_limit_refused_connection_kept(self,
                                                         monkeypatch):
        from repro.serve import server

        monkeypatch.setattr(server, "MAX_REQUEST_BYTES", 100_000)
        oversized = json.dumps({"id": 1, "op": "run",
                                "source": " " * 300_000 + "1"})
        with ServerThread(ServeConfig(workers=1)) as st:
            with socket.create_connection((st.host, st.port),
                                          timeout=30) as sock:
                f = sock.makefile("rwb")
                f.write(oversized.encode() + b"\n")
                f.flush()
                refused = json.loads(f.readline())
                f.write(b'{"id": 2, "op": "ping"}\n')
                f.flush()
                after = json.loads(f.readline())
        assert refused["status"] == "error"
        assert refused["error"]["type"] == "request_too_large"
        assert exit_code_for(refused) == 1
        assert after["id"] == 2 and after["value"] == "pong"

    @pytest.mark.parametrize("deadline",
                             [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_deadline_rejected_on_the_wire(self, deadline):
        # json.dumps writes NaN/Infinity/-Infinity and json.loads parses
        # them; a NaN deadline would never fire and would escape
        # --max-deadline, so the looping request must be refused before
        # it reaches a worker.
        config = ServeConfig(workers=1, max_deadline_s=5.0)
        looping = json.dumps({"id": 1, "op": "run", "source": LOOP,
                              "deadline_s": deadline})
        with ServerThread(config) as st:
            with socket.create_connection((st.host, st.port),
                                          timeout=30) as sock:
                f = sock.makefile("rwb")
                f.write(looping.encode() + b"\n")
                f.write(json.dumps({"id": 2, "op": "run",
                                    "source": GREET}).encode() + b"\n")
                f.flush()
                frames = {frame["id"]: frame for frame in
                          (json.loads(f.readline()) for _ in range(2))}
        assert frames[1]["status"] == "error"
        assert frames[1]["error"]["type"] == "ProtocolError"
        assert "deadline_s" in frames[1]["error"]["message"]
        assert frames[2]["status"] == "ok"
        assert frames[2]["value"] == "42"

    def test_metrics_envelope_feeds_load_snapshot(self, tmp_path):
        # Satellite: a `repro client metrics` capture is a report/diff
        # input, identical to a snapshot written by `--metrics-out`.
        with ServerThread(ServeConfig(workers=1)) as st:
            with ServeClient(st.host, st.port) as client:
                client.request("run", source=GREET)
                envelope = client.request("metrics")
        capture = tmp_path / "live.json"
        capture.write_text(json.dumps(envelope))
        snap = load_snapshot(capture)
        assert snap["counters"]["serve.requests"] == 1
        assert snap["dropped"] == 0

    def test_admission_control_sheds_overload(self):
        # One worker, no queue: while a slow chaotic request holds the
        # only slot, concurrent pipelined requests are shed with
        # `overloaded` (never queued into unbounded latency).
        config = ServeConfig(workers=1, queue_limit=0, allow_chaos=True,
                             default_deadline_s=30.0)
        slow = {"id": 1, "op": "run", "source": GREET, "archive": True,
                "chaos": ["slow-load"], "chaos_slow_s": 0.8}
        with ServerThread(config) as st:
            with socket.create_connection((st.host, st.port),
                                          timeout=30) as sock:
                f = sock.makefile("rwb")
                f.write((json.dumps(slow) + "\n").encode())
                f.flush()
                import time
                time.sleep(0.2)  # let the slow request take the slot
                for i in range(2, 5):
                    f.write((json.dumps({
                        "id": i, "op": "run",
                        "source": GREET}) + "\n").encode())
                f.flush()
                frames = {}
                for _ in range(4):
                    frame = json.loads(f.readline())
                    frames[frame["id"]] = frame
        assert frames[1]["status"] == "ok"  # survived its own fault
        shed = [frames[i]["status"] for i in range(2, 5)]
        assert shed == ["overloaded"] * 3
        assert all(exit_code_for(frames[i]) == 2 for i in range(2, 5))

    def test_draining_server_rejects_new_requests(self):
        with ServerThread(ServeConfig(workers=1)) as st:
            with ServeClient(st.host, st.port) as client:
                assert client.request("ping")["status"] == "ok"
                st.request_shutdown()
                # The loop hasn't torn the connection down yet; a
                # request racing the drain gets the typed rejection
                # (or, once the listener is gone, a closed socket).
                try:
                    late = client.request("ping")
                except Exception:
                    pass
                else:
                    assert late["status"] == "shutting-down"
                    assert exit_code_for(late) == 2


class TestChaosSweep:
    def test_sweep_is_green(self):
        # The full differential sweep: every fault injected into a
        # request racing healthy neighbours; asserts internally.
        run_chaos_sweep(verbose=False)

"""Run ``repro serve`` (default flags) with layer spans recorded.

Usage: ``python3 perfbench/launcher.py SPANS.json`` from the root of a
checkout.  Before the server starts, this wraps the public entry point
of each layer the request path crosses:

    serve.handlers.execute_request   -> the request's root span
    units.cache.cached_parse         -> parse (hit or miss)
    lang.parser.parse_script         -> parse (the miss path's real work)
    units.check.check_program        -> check
    units.linker.link_and_optimize   -> link (+ flatten / optimize children,
                                        from the linker's own ``timings``)
    backend.compile_program          -> codegen
    backend.PyProgram.run            -> runtime

Spans live in memory, grouped by request id (every span of a request
has that id as its root), and are written as JSON when the server
drains after SIGTERM: ``{request id: [[name, parent, t0, t1, bytes],
...]}``, where ``parent`` indexes the same list (-1 for the root).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_local = threading.local()
#: request id -> its spans; filled by worker threads, read at exit.
REQUESTS: dict[object, list[list[object]]] = {}


def _open(name: str, nbytes: int = 0) -> list[object] | None:
    stack = getattr(_local, "stack", None)
    if not stack:
        return None
    spans = _local.spans
    span = [name, stack[-1], time.perf_counter(), 0.0, nbytes]
    stack.append(len(spans))
    spans.append(span)
    return span


def _close(span: list[object]) -> None:
    span[3] = time.perf_counter()
    _local.stack.pop()


def _layer(name: str, fn, size=None):
    def wrapper(*args, **kwargs):
        span = _open(name, size(args) if size else 0)
        if span is None:
            return fn(*args, **kwargs)
        try:
            return fn(*args, **kwargs)
        finally:
            _close(span)
    return wrapper


def _root(fn):
    def execute_request(req, *args, **kwargs):
        spans: list[list[object]] = []
        _local.spans, _local.stack = spans, [0]
        spans.append(["execute_request", -1, time.perf_counter(), 0.0, 0])
        try:
            return fn(req, *args, **kwargs)
        finally:
            spans[0][3] = time.perf_counter()
            _local.stack = None
            REQUESTS[req.get("id")] = spans
    return execute_request


def _linker(fn):
    def link_and_optimize(expr, timings=None):
        index = len(getattr(_local, "spans", ()))
        span = _open("link_and_optimize")
        if span is None:
            return fn(expr, timings)
        own: dict[str, float] = {}
        try:
            return fn(expr, own)
        finally:
            _close(span)
            if timings is not None:
                timings.update(own)
            # Children from the linker's own stage clock, laid end to
            # end from the span's start.
            t = span[2]
            for stage in ("flatten", "optimize"):
                if stage in own:
                    _local.spans.append([f"link.{stage}", index, t,
                                         t + own[stage], 0])
                    t += own[stage]
    return link_and_optimize


def install() -> None:
    import repro.backend as backend
    import repro.serve.handlers as handlers
    import repro.serve.server as server
    import repro.units.cache as ucache
    import repro.units.linker as linker

    server.execute_request = _root(server.execute_request)
    ucache.cached_parse = _layer("cached_parse", ucache.cached_parse)
    handlers.parse_script = _layer("parse_script", handlers.parse_script,
                                   size=lambda a: len(a[0].encode()))
    handlers.check_program = _layer("check_program", handlers.check_program)
    linker.link_and_optimize = _linker(linker.link_and_optimize)
    backend.compile_program = _layer("compile_program",
                                     backend.compile_program)
    backend.PyProgram.run = _layer("PyProgram.run", backend.PyProgram.run)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: launcher.py SPANS.json", file=sys.stderr)
        return 2
    install()
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve"])
    finally:
        Path(argv[0]).write_text(json.dumps(
            {str(rid): spans for rid, spans in REQUESTS.items()}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

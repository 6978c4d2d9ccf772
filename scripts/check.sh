#!/bin/sh
# CI entry point: the tier-1 test suite plus an observability smoke run.
#
#   scripts/check.sh            # from the repository root
#
# Exits non-zero if the tests fail, if the end-to-end server suite
# fails on any of 20 reruns, if a Hypothesis property module fails
# under freshly drawn (randomized-profile) examples, if the traced
# phone-book demo fails, if the resulting trace does not cover all
# event families or lacks a real span tree, if the demo's event
# counters or histogram observation counts drift past the committed
# metrics1 snapshot
# (benchmarks/.metrics/metrics_baseline.json — regenerate with
# scripts/update_metrics_baseline.sh after intentional changes), if
# concurrent traced scopes cross-contaminate
# span trees or drop events, if the same scopes drained per worker and
# merged into a parent registry count differently, if the demo's second archive retrieval
# misses the parse (dynlink) store, if the quick bench
# smoke finds the caches inert, if a warm sharing-064 pass fails to
# serve its whole flattened subtree from the flatten memo
# (docs/PERFORMANCE.md, "Link caching"), if the reader's time grows
# faster than its input (log-log slope above 1.25 from the 86 KB
# deep-128 to the 1.3 MB deep-512 program; docs/PERFORMANCE.md,
# "Reader"), if printing the 0.8 MB chain-4096 program takes more than
# a quarter of the time reading its text does (best of 5 each;
# docs/PERFORMANCE.md, "Printer"), if a parsed and digested deep-128
# AST holds more than 1.5
# GC-tracked objects per node (docs/PERFORMANCE.md, "Garbage
# collection"), if 64 one-shot served texts leave more than 1,000
# GC-tracked objects reachable from the parse store (docs/PERFORMANCE.md,
# "Garbage collection"), if a second pycode
# demo run against the same cache dir misses the codegen store, if
# codegen's emitted shape drifts (a strict chain-128 with any undefined
# check, a library-64 without exactly 2 makers, a lenient forward
# reference without its check; docs/PERFORMANCE.md, "Codegen
# emission"), or if the
# batch-isolation smoke (one good, one looping, one ill-typed
# program) does not yield exactly the expected records and
# limit.exceeded trace event (docs/ROBUSTNESS.md), if the link-server
# smoke (a real daemon, 8 concurrent mixed requests including one
# chaos-injected failure and one over-budget item) degrades any
# healthy request or drops events, if the server fails to drain
# cleanly on SIGTERM, if `metrics report` rejects a live-server
# metrics envelope, if the multi-process smoke (a 2-process daemon,
# mixed healthy/poison batch, one worker SIGKILLed mid-run) loses a
# request, fails to respawn the killed worker, or fails to drain, or
# if the chaos sweep's differential assertions fail (docs/SERVING.md).
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

echo "==> tier-1: pytest"
python -m pytest -x -q

# Server start/drain races show up one run in a few, so one pass of
# the suite proves little: rerun the end-to-end server tests 20 times.
echo "==> repeat: serve end-to-end suite x20 (drain races)"
run=1
while [ "$run" -le 20 ]; do
    echo "rerun $run/20"
    python -m pytest -x -q tests/test_serve.py::TestServerEndToEnd
    run=$((run + 1))
done
echo "serve end-to-end suite: 20/20 reruns passed"

# Tier-1 draws the same Hypothesis examples on every run
# (tests/conftest.py), so it cannot find a new counterexample: run the
# property modules once more on fresh random draws.  Pin a failure
# found here as an @example on the failing test.
echo "==> randomized: Hypothesis property modules, fresh examples"
python -m pytest -x -q --hypothesis-profile=randomized \
    tests/test_limits_properties.py tests/test_link_properties.py \
    tests/test_merge_properties.py tests/test_metrics.py \
    tests/test_obs.py tests/test_properties.py tests/test_robustness.py \
    tests/test_roundtrip_properties.py \
    tests/test_serve_envelope_properties.py tests/test_sexpr.py \
    tests/test_soundness_properties.py tests/test_trace_tools.py

echo "==> smoke: traced phone-book demo"
trace_file="$(mktemp)"
metrics_file="$(mktemp)"
trap 'rm -f "$trace_file" "$metrics_file"' EXIT
python -m repro --trace "$trace_file" --metrics-out "$metrics_file" \
    demo examples/phonebook.scm

python - "$trace_file" "$metrics_file" <<'EOF'
import json
import sys
from repro.obs import read_jsonl

events = read_jsonl(sys.argv[1])
families = {e.family for e in events}
missing = {"check", "link", "reduce", "unit", "dynlink", "cache"} - families
assert events, "trace is empty"
assert not missing, f"trace missing families: {sorted(missing)}"
histograms = json.load(open(sys.argv[2]))["histograms"]
dynlink_hits = histograms.get("cache.hit.dynlink", {}).get("count", 0)
assert dynlink_hits >= 1, \
    f"demo's second archive retrieval missed the dynlink store: " \
    f"{sorted(histograms)}"
print(f"trace ok: {len(events)} events, families {sorted(families)}, "
      f"{dynlink_hits} dynlink cache hit(s)")
EOF

echo "==> smoke: trace report (span tree over the demo trace)"
python -m repro trace report "$trace_file" --min-spans 5

echo "==> gate: event and histogram counts vs committed metrics baseline"
python -m repro metrics diff benchmarks/.metrics/metrics_baseline.json \
    "$metrics_file" --threshold 0.10

echo "==> smoke: concurrent traced scopes (8 workers, one registry;"
echo "    the same scopes drained per worker and merged into a parent)"
python - <<'EOF'
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.obs.analyze import validate_spans

WORKERS, ITERS = 8, 20
registry = obs.MetricsRegistry()
# The process-mode route: each worker's own registry absorbs the
# scope, is drained, and the fragment is merged into one parent.
parent = obs.MetricsRegistry()

def work(worker: int) -> int:
    with registry.scope() as col:
        for _ in range(ITERS):
            with col.span("check.unit", {"worker": worker}):
                with col.span("unit.compile"):
                    col.emit("reduce.step")
        problems = validate_spans(col.events)
        assert not problems, f"worker {worker} span tree: {problems}"
        assert col.dropped == 0, f"worker {worker} dropped events"
    own = obs.MetricsRegistry()
    own.absorb(col)
    parent.merge_snapshot(own.drain())
    return col.counters["reduce.step"]

with ThreadPoolExecutor(max_workers=WORKERS) as pool:
    per_worker = list(pool.map(work, range(WORKERS)))

snap = registry.snapshot()
total = WORKERS * ITERS
assert sum(per_worker) == total, per_worker
assert snap["counters"]["reduce.step"] == total, snap["counters"]
assert snap["counters"].get("trace.dropped", 0) == 0
assert snap["histograms"]["check.unit"]["count"] == total
assert snap["flushes"] == WORKERS
merged = parent.snapshot()
assert merged["counters"] == snap["counters"], \
    (merged["counters"], snap["counters"])
counts = {name: h["count"] for name, h in snap["histograms"].items()}
merged_counts = {name: h["count"]
                 for name, h in merged["histograms"].items()}
assert merged_counts == counts, (merged_counts, counts)
print(f"concurrency ok: {WORKERS} workers x {ITERS} spans, "
      f"{total} steps, one coherent snapshot, 0 dropped; "
      f"drained fragments merge to the same counts")
EOF

echo "==> smoke: bench --quick (cached vs --no-term-cache)"
bench_out="$(mktemp)"
bench_snap="$(mktemp)"
trap 'rm -f "$trace_file" "$metrics_file" "$bench_out" "$bench_snap"' EXIT
python -m repro bench --quick --out "$bench_out" --snapshot "$bench_snap"

echo "==> smoke: incremental linking (sharing-064 warm link)"
python - <<'EOF'
from repro import obs
from repro.bench import sharing_program, _pipeline
from repro.units.cache import unit_cache_scope

# One scope, two passes: the first primes the stores, the second must
# flatten the 64-copy sharing program without re-walking it — one
# flatten-memo hit at the root (the whole flattened subtree) and zero
# flatten misses.  The optimizer is not memoized: it reruns warm.
with unit_cache_scope():
    cold = _pipeline(sharing_program(64))
    with obs.collecting() as col:
        warm = _pipeline(sharing_program(64))

def count(kind, cache):
    return sum(1 for e in col.events if e.kind == kind
               and e.fields.get("cache") == cache)

flatten_hits = count("cache.hit", "flatten")
assert flatten_hits >= 1, \
    "warm sharing-064 pass never hit the flatten memo"
misses = count("cache.miss", "flatten")
assert misses == 0, \
    f"warm sharing-064 pass missed the flatten store {misses}x"
assert warm["link"] < cold["link"], \
    f"warm link ({warm['link']:.3f}s) not faster than cold " \
    f"({cold['link']:.3f}s)"
print(f"link cache ok: {flatten_hits} flatten hit(s), 0 misses; "
      f"link {cold['link']:.3f}s cold -> {warm['link']:.3f}s warm")
EOF

echo "==> gate: reader scaling (deep-128 vs deep-512 text)"
python - <<'EOF'
import math
import time

from repro import bench
from repro.lang.sexpr import read_all_sexprs
from repro.limits import Budget, budget_scope
from repro.serve.handlers import MAX_DEPTH

# The left-deep texts are quadratic in their unit count, so two sizes
# 15x apart; only the read is timed, under the served budget.  A ratio
# of two sizes holds on a noisy host.
small, large = (bench.deep_program(n) for n in (128, 512))


def best_read(text):
    best = math.inf
    for _ in range(3):
        with budget_scope(Budget(max_depth=MAX_DEPTH)):
            t0 = time.perf_counter()
            read_all_sexprs(text)
            best = min(best, time.perf_counter() - t0)
    return best


t_small, t_large = best_read(small), best_read(large)
slope = math.log(t_large / t_small) / math.log(len(large) / len(small))
print(f"reader scaling ok: {len(small)} chars {t_small * 1e3:.1f} ms, "
      f"{len(large)} chars {t_large * 1e3:.1f} ms, slope {slope:.2f}")
assert slope <= 1.25, f"reader time superlinear: slope {slope:.2f} > 1.25"
EOF

echo "==> gate: printer speed (show vs read of the chain-4096 text)"
python - <<'EOF'
import math
import time

from repro import bench
from repro.lang.parser import parse_script
from repro.lang.pretty import show
from repro.lang.sexpr import read_all_sexprs
from repro.limits import Budget, budget_scope
from repro.serve.handlers import MAX_DEPTH

# Printing and reading are single passes over the same bytes, so their
# ratio holds on a noisy host where a slope over sizes does not.
with budget_scope(Budget(max_depth=MAX_DEPTH)):
    text = show(bench.chain_program(4096))
    expr = parse_script(text)


def best(fn):
    out = math.inf
    for _ in range(5):
        with budget_scope(Budget(max_depth=MAX_DEPTH)):
            t0 = time.perf_counter()
            fn()
            out = min(out, time.perf_counter() - t0)
    return out


t_show, t_read = best(lambda: show(expr)), best(lambda: read_all_sexprs(text))
ratio = t_show / t_read
print(f"printer ok: chain-4096 ({len(text)} chars) show {t_show * 1e3:.1f} ms, "
      f"read {t_read * 1e3:.1f} ms, ratio {ratio:.2f}")
assert ratio <= 0.25, f"show takes {ratio:.2f}x the read of its text (> 0.25)"
EOF

echo "==> gate: AST heap shape (GC-tracked objects per node)"
python - <<'EOF'
import gc

from repro import bench
from repro.lang.parser import parse_script
from repro.lang.terms import term_key
from repro.limits import Budget, budget_scope
from repro.serve.handlers import MAX_DEPTH
from tests.test_heap_shape import node_count, tracked_census

# Every full collection in a server traces its cached ASTs.  A node,
# its child tuples and nothing else is about 1.25 tracked objects per
# node; a tracked location or a materialised instance dict per node
# puts it near 3.  The count is deterministic.
with budget_scope(Budget(max_depth=MAX_DEPTH)):
    expr = parse_script(bench.deep_program(128))
term_key(expr)
gc.collect()
census = tracked_census(expr)
nodes = node_count(census)
per_node = sum(census.values()) / nodes
print(f"AST heap shape ok: {nodes} nodes, "
      f"{sum(census.values())} tracked, {per_node:.3f} per node")
assert per_node <= 1.5, \
    f"AST holds {per_node:.2f} GC-tracked objects per node (> 1.5)"
EOF

echo "==> gate: one-shot retention (objects the parse store keeps)"
python - <<'EOF'
import gc
import types

from repro import bench
from repro.lang.pretty import show
from repro.obs import MetricsRegistry
from repro.serve.handlers import execute_request
from repro.serve.protocol import validate_request
from repro.serve.server import ServeConfig
from repro.units.cache import CacheStore

# 64 distinct texts, each sent once, as on cold-compile and edit-relink.
# The parse store admits a text on its second sighting, so it keeps the
# window's two texts (about 490 objects), not all 64 (about 15,400).
# The count is deterministic.
OPAQUE = (type, types.ModuleType, types.FunctionType)


def reachable(root):
    seen = {id(root)}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if (gc.is_tracked(ref) and not isinstance(ref, OPAQUE)
                    and id(ref) not in seen):
                seen.add(id(ref))
                stack.append(ref)
    return len(seen)


template = show(bench.chain_program(16))
store, registry, config = CacheStore(), MetricsRegistry(), ServeConfig()
for i in range(64):
    source = template.replace("(lambda () 1)", f"(lambda () {i + 2})")
    response = execute_request(
        validate_request({"id": i, "op": "run", "source": source}),
        store, registry, config)
    assert response["value"] == str(i + 17), response
gc.collect()
held = reachable(store.parse)
print(f"one-shot retention ok: 64 chain-16 texts, {len(store.parse)} "
      f"entries, {held} tracked objects reachable from the parse store")
assert held <= 1000, \
    f"the parse store keeps {held} objects of one-shot texts (> 1,000)"
EOF

echo "==> smoke: pycode backend (codegen cache across invocations)"
pycode_cache_dir="$(mktemp -d)"
pycode_trace="$(mktemp)"
trap 'rm -f "$trace_file" "$metrics_file" "$bench_out" "$bench_snap" \
    "$pycode_trace"; rm -rf "$pycode_cache_dir"' EXIT
# Two demo runs against one cache dir: the first populates
# <fingerprint>/pycode/, the second must serve the code object from it.
python -m repro --cache-dir "$pycode_cache_dir" \
    demo --backend pycode examples/phonebook.scm
python -m repro --cache-dir "$pycode_cache_dir" --trace "$pycode_trace" \
    demo --backend pycode examples/phonebook.scm

python - "$pycode_trace" "$pycode_cache_dir" <<'EOF'
import pathlib
import sys
from repro.obs import read_jsonl
from repro.units.cache import pycode_fingerprint

events = read_jsonl(sys.argv[1])
hits = [e for e in events if e.kind == "cache.hit"
        and e.fields.get("cache") == "pycode"]
misses = [e for e in events if e.kind == "cache.miss"
          and e.fields.get("cache") == "pycode"]
assert hits, "second pycode demo run never hit the codegen cache"
assert not misses, \
    f"second pycode demo run missed the codegen cache {len(misses)}x"
entries = list(pathlib.Path(sys.argv[2]).rglob("pycode/*.py"))
assert entries, "codegen disk tier wrote no entries"
layout = pathlib.Path(sys.argv[2]) / pycode_fingerprint() / "pycode"
assert all(entry.parent == layout for entry in entries), \
    f"disk entries outside the fingerprinted directory {layout}"
print(f"pycode cache ok: {len(hits)} hit(s), 0 misses, "
      f"{len(entries)} disk entr{'y' if len(entries) == 1 else 'ies'}")
EOF

echo "==> gate: pycode emission shape"
python - <<'EOF'
import random
import re
import sys

sys.path.insert(0, "perfbench")
import gen

from repro import bench
from repro.backend import generate_source
from repro.lang.parser import parse_program
from repro.units.check import check_program

# Emitted source is deterministic in the program, so these counts are
# exact.  A strict program reads no unit cell unfilled: no undefined
# checks.  Identical unit copies share one hoisted maker.  A lenient
# forward reference keeps its check.
chain = bench.chain_program(128)
check_program(chain)
chain_raises = generate_source(chain).count("raise _undef_error()")
library = parse_program(gen.make_program(
    random.Random(1), "library", 64, "ci").text)
check_program(library)
makers = re.findall(r"def _u\d+\(_cells\):", generate_source(library))
lenient = parse_program(
    "(invoke (unit (import) (export) (define a b) (define b 1) a))")
check_program(lenient, strict_valuable=False)
lenient_raises = generate_source(lenient).count("raise _undef_error()")
print(f"pycode emission ok: chain-128 {chain_raises} undefined checks, "
      f"library-64 {len(makers)} makers, lenient {lenient_raises} checks")
assert chain_raises == 0, f"strict chain-128 emits {chain_raises} checks"
assert len(makers) == 2, f"library-64 emits {len(makers)} makers (not 2)"
assert lenient_raises >= 1, "lenient forward reference lost its check"
EOF

echo "==> smoke: batch isolation (good + looping + ill-typed)"
batch_dir="$(mktemp -d)"
batch_records="$(mktemp)"
batch_trace="$(mktemp)"
trap 'rm -f "$trace_file" "$metrics_file" "$bench_out" "$bench_snap" \
    "$pycode_trace" "$batch_records" "$batch_trace"; \
    rm -rf "$pycode_cache_dir" "$batch_dir"' EXIT
cat > "$batch_dir/a_good.scm" <<'EOF'
(invoke (unit (import) (export greet)
  (define greet (lambda (who) (string-append "hello, " who)))
  (greet "world")))
EOF
cat > "$batch_dir/b_loop.scm" <<'EOF'
(letrec ((spin (lambda (n) (spin (+ n 1))))) (spin 0))
EOF
cat > "$batch_dir/c_bad.scm" <<'EOF'
(invoke (unit (import) (export nope) (define x 1) x))
EOF
# The batch must complete (exit 0) with exactly one failure record per
# bad item, and the looping item's exhaustion must surface as a
# limit.exceeded trace event.
python -m repro --trace "$batch_trace" batch "$batch_dir" \
    --eval-steps 20000 --deadline 10 --out "$batch_records"

python - "$batch_records" "$batch_trace" <<'EOF'
import json
import sys
from repro.obs import KINDS, read_jsonl

records = [json.loads(line) for line in open(sys.argv[1])]
by_file = {r["file"].rsplit("/", 1)[-1]: r for r in records}
assert len(records) == 3, f"expected 3 records, got {len(records)}"
assert by_file["a_good.scm"]["status"] == "ok"
assert by_file["b_loop.scm"]["status"] == "error"
assert by_file["b_loop.scm"]["error"]["type"] == "BudgetExceeded"
assert by_file["b_loop.scm"]["error"]["resource"] == "eval_steps"
assert by_file["c_bad.scm"]["status"] == "error"
assert by_file["c_bad.scm"]["error"]["type"] == "CheckError"
assert "limit.exceeded" in KINDS, "limit.exceeded not registered"
kinds = [e.kind for e in read_jsonl(sys.argv[2])]
assert kinds.count("limit.exceeded") == 1, \
    f"expected one limit.exceeded event, got {kinds.count('limit.exceeded')}"
print(f"batch ok: 1 ok, 2 failure records, limit.exceeded traced")
EOF

echo "==> smoke: link server (8 concurrent mixed requests, SIGTERM drain)"
serve_dir="$(mktemp -d)"
trap 'rm -f "$trace_file" "$metrics_file" "$bench_out" "$bench_snap" \
    "$pycode_trace" "$batch_records" "$batch_trace"; \
    rm -rf "$pycode_cache_dir" "$batch_dir" "$serve_dir"' EXIT
python -m repro serve --port-file "$serve_dir/port" --allow-chaos \
    --workers 4 --deadline 30 > "$serve_dir/log" 2>&1 &
serve_pid=$!

python - "$serve_dir/port" "$serve_dir/metrics.json" <<'EOF'
import json
import sys
from concurrent.futures import ThreadPoolExecutor

from repro.serve.client import ServeClient, read_port_file

port = read_port_file(sys.argv[1], timeout_s=30)
GOOD = ("(invoke (unit (import) (export g)"
        " (define g (lambda (n) (* n 7))) (g 6)))")
LOOP = "(letrec ((spin (lambda (n) (spin (+ n 1))))) (spin 0))"

# Eight concurrent requests: six healthy across ops/backends, one
# with an injected poison fault, one that exhausts its step budget.
requests = [
    {"op": "run", "source": GOOD},
    {"op": "run", "source": GOOD, "backend": "interp"},
    {"op": "run", "source": GOOD, "backend": "machine"},
    {"op": "run", "source": GOOD, "archive": True},
    {"op": "check", "source": GOOD},
    {"op": "link", "source": GOOD},
    {"op": "run", "source": GOOD, "archive": True, "chaos": ["poison"]},
    {"op": "run", "source": LOOP, "eval_steps": 5000},
]

def send(fields):
    fields = dict(fields)
    op = fields.pop("op")
    with ServeClient("127.0.0.1", port) as client:
        return client.request(op, **fields)

with ThreadPoolExecutor(max_workers=len(requests)) as pool:
    responses = list(pool.map(send, requests))

# Every healthy request succeeded despite the chaotic neighbours.
for fields, resp in zip(requests[:6], responses[:6]):
    assert resp["status"] == "ok", (fields, resp)
    if fields["op"] == "run":
        assert resp["value"] == "42", (fields, resp)
poisoned, exhausted = responses[6], responses[7]
assert poisoned["status"] == "error", poisoned
assert poisoned["error"]["type"] == "ArchiveError", poisoned
assert exhausted["status"] == "error", exhausted
assert exhausted["error"]["type"] == "BudgetExceeded", exhausted
assert exhausted["error"]["code"] == 3, exhausted

with ServeClient("127.0.0.1", port) as client:
    envelope = client.request("metrics")
snap = envelope["metrics"]
assert snap["counters"]["serve.requests"] == len(requests), \
    snap["counters"]
assert snap["dropped"] == 0, "server dropped trace events"
json.dump(envelope, open(sys.argv[2], "w"))
print(f"serve ok: 6 healthy + 1 chaos + 1 over-budget, "
      f"{snap['counters']['serve.requests']} served, 0 dropped")
EOF

kill -TERM "$serve_pid"
wait "$serve_pid"
grep -q "^drained$" "$serve_dir/log" || {
    echo "server did not drain cleanly on SIGTERM:"
    cat "$serve_dir/log"
    exit 1
}
echo "serve drain ok: SIGTERM -> drained"

echo "==> smoke: metrics report on the live-server envelope"
python -m repro metrics report "$serve_dir/metrics.json"

echo "==> smoke: multi-process pool (2 workers, SIGKILL one mid-batch)"
procs_dir="$(mktemp -d)"
trap 'rm -f "$trace_file" "$metrics_file" "$bench_out" "$bench_snap" \
    "$pycode_trace" "$batch_records" "$batch_trace"; \
    rm -rf "$pycode_cache_dir" "$batch_dir" "$serve_dir" "$procs_dir"' EXIT
python -m repro serve --processes 2 --port-file "$procs_dir/port" \
    --allow-chaos --deadline 60 > "$procs_dir/log" 2>&1 &
procs_pid=$!

python - "$procs_dir/port" <<'EOF'
import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.serve.client import ServeClient, read_port_file

port = read_port_file(sys.argv[1], timeout_s=60)
GOOD = ("(invoke (unit (import) (export g)"
        " (define g (lambda (n) (* n 7))) (g 6)))")

with ServeClient("127.0.0.1", port, timeout_s=120.0) as client:
    workers = client.request("stats")["workers"]
assert workers["mode"] == "processes", workers
pids = workers["pids"]
assert len(pids) == 2, workers

# Ten requests — nine healthy, one poisoned — while a thread SIGKILLs
# one worker ~0.15s into the batch (a real external kill, not the
# chaos hook): the batch must still complete with the right answers.
requests = [{"op": "run", "source": GOOD} for _ in range(9)]
requests.append({"op": "run", "source": GOOD, "archive": True,
                 "chaos": ["poison"]})

def send(fields):
    fields = dict(fields)
    op = fields.pop("op")
    with ServeClient("127.0.0.1", port, timeout_s=120.0) as client:
        return client.request(op, **fields)

killer = threading.Timer(0.15, os.kill, (pids[0], signal.SIGKILL))
killer.start()
with ThreadPoolExecutor(max_workers=4) as pool:
    responses = list(pool.map(send, requests))
killer.join()

ok = [r for r in responses if r["status"] == "ok"]
poisoned = [r for r in responses if r["status"] == "error"
            and r["error"]["type"] == "ArchiveError"]
crashed = [r for r in responses if r["status"] == "error"
           and r["error"]["type"] == "WorkerCrashed"]
assert len(poisoned) == 1, responses
assert len(ok) + len(crashed) == 9, responses
assert all(r["value"] == "42" for r in ok), responses

with ServeClient("127.0.0.1", port, timeout_s=120.0) as client:
    stats = client.request("stats")
    envelope = client.request("metrics")
after = stats["workers"]
assert after["deaths"] >= 1, after
assert after["respawns"] >= 1, after
assert pids[0] not in after["pids"], after
assert len(after["pids"]) == 2, after
assert envelope["metrics"]["dropped"] == 0
print(f"process pool ok: {len(ok)} healthy + 1 poison"
      f"{' + %d requeue-failed' % len(crashed) if crashed else ''}, "
      f"worker {pids[0]} killed -> {after['respawns']} respawn(s), "
      f"0 dropped")
EOF

kill -TERM "$procs_pid"
wait "$procs_pid"
grep -q "^drained$" "$procs_dir/log" || {
    echo "process-mode server did not drain cleanly on SIGTERM:"
    cat "$procs_dir/log"
    exit 1
}
echo "process pool drain ok: SIGTERM -> drained"

echo "==> smoke: chaos sweep (repro serve --chaos)"
python -m repro serve --chaos

echo "==> all checks passed"

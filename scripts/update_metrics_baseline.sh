#!/bin/sh
# Refresh the committed demo baseline under benchmarks/.metrics/:
#
#   metrics_baseline.json  full `metrics1` snapshot of
#                          `repro demo examples/phonebook.scm`, gated
#                          (counts only) by `repro metrics diff` in
#                          scripts/check.sh
#
#   scripts/update_metrics_baseline.sh    # from anywhere in the repo
#
# Run this after a change that legitimately alters how many events the
# phone-book demo emits (new spans, new checks, a different reduction
# count) and commit the regenerated file alongside that change.
#
# The snapshot keeps everything (histogram buckets included) so
# `repro metrics report` can render it, but the check.sh gate compares
# event-counter and histogram observation counts only — never
# wall-clock.
set -eu

cd "$(dirname "$0")/.."
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

metrics_file="$(mktemp)"
trap 'rm -f "$metrics_file"' EXIT
python -m repro --metrics-out "$metrics_file" demo \
    examples/phonebook.scm > /dev/null

mkdir -p benchmarks/.metrics
python - "$metrics_file" <<'EOF'
import json
import sys

metrics = json.load(open(sys.argv[1]))
snap_path = "benchmarks/.metrics/metrics_baseline.json"
with open(snap_path, "w") as out:
    json.dump(metrics, out, indent=2, sort_keys=True)
    out.write("\n")
print(f"wrote {snap_path}: {len(metrics.get('histograms', {}))} "
      f"histogram(s), {len(metrics['counters'])} counters")
EOF

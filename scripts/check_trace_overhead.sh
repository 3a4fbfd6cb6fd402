#!/bin/sh
# Trace-overhead gate: the disabled-tracing compression path
# (CompressWithPreloadObservedCtx with a span context in ctx, a nil
# preload and a nil recorder) must stay within TOLERANCE_PCT of plain
# Compress on the same workload, and must allocate exactly as much per
# op. BenchmarkTraceOverhead in internal/core times both paths in one
# process, in alternating plain-traced-traced-plain quads, and reports
# the median traced/plain ratio as overhead-pct; pairing the paths in
# time cancels the shared-machine drift that separate benchmark runs
# pick up.
set -eu

TOLERANCE_PCT=${TOLERANCE_PCT:-3}

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

go test -run '^$' -bench '^BenchmarkTraceOverhead$' -benchtime 200x ./internal/core | tee "$OUT"

awk -v tol="$TOLERANCE_PCT" '
/^BenchmarkTraceOverhead/ {
    for (i = 2; i <= NF; i++) {
        if ($i == "overhead-pct") pct = $(i-1)
        if ($i == "plain-allocs") base_allocs = $(i-1)
        if ($i == "traced-allocs") trace_allocs = $(i-1)
    }
}
END {
    if (pct == "" || base_allocs == "" || trace_allocs == "") {
        print "trace-overhead: benchmark did not run"; exit 1
    }
    printf "trace-overhead: median paired delta %+.2f%% (gate %+d%%), allocs %s plain vs %s traced\n", \
        pct, tol, base_allocs, trace_allocs
    if (trace_allocs + 0 > base_allocs + 0) {
        print "trace-overhead: FAIL - disabled tracing allocates extra per op"; exit 1
    }
    if (pct + 0 > tol + 0) {
        print "trace-overhead: FAIL - disabled tracing exceeds the latency gate"; exit 1
    }
}' "$OUT"

#!/bin/sh
# Trace-overhead gate: the disabled-tracing compression path
# (CompressWithPreloadObservedCtx with a span context in ctx, a nil
# preload and a nil recorder) must stay within TOLERANCE_PCT of the
# disabled-telemetry baseline (BenchmarkCompressTelemetryDisabled,
# plain Compress on the same workload), and must allocate exactly as
# much per op. Both benchmarks run
# interleaved COUNT times; the minimum of each side is compared, which
# filters scheduler noise better than means on shared runners.
set -eu

COUNT=${COUNT:-3}
BENCHTIME=${BENCHTIME:-0.5s}
TOLERANCE_PCT=${TOLERANCE_PCT:-3}

OUT=$(mktemp)
trap 'rm -f "$OUT"' EXIT

go test -run '^$' \
    -bench 'BenchmarkCompressTelemetryDisabled$|BenchmarkCompressTraceDisabled$' \
    -benchtime "$BENCHTIME" -benchmem -count "$COUNT" ./internal/core | tee "$OUT"

awk -v tol="$TOLERANCE_PCT" '
/^BenchmarkCompressTelemetryDisabled/ {
    if (base_ns == 0 || $3 < base_ns) base_ns = $3
    for (i = 1; i <= NF; i++) if ($i == "allocs/op" && (base_allocs == "" || $(i-1) < base_allocs)) base_allocs = $(i-1)
}
/^BenchmarkCompressTraceDisabled/ {
    if (trace_ns == 0 || $3 < trace_ns) trace_ns = $3
    for (i = 1; i <= NF; i++) if ($i == "allocs/op" && (trace_allocs == "" || $(i-1) < trace_allocs)) trace_allocs = $(i-1)
}
END {
    if (base_ns == 0 || trace_ns == 0) {
        print "trace-overhead: benchmarks did not run"; exit 1
    }
    ratio = (trace_ns - base_ns) * 100.0 / base_ns
    printf "trace-overhead: base %d ns/op (%s allocs), traced %d ns/op (%s allocs), delta %+.2f%% (gate %+d%%)\n", \
        base_ns, base_allocs, trace_ns, trace_allocs, ratio, tol
    if (trace_allocs + 0 > base_allocs + 0) {
        print "trace-overhead: FAIL - disabled tracing allocates extra per op"; exit 1
    }
    if (ratio > tol) {
        print "trace-overhead: FAIL - disabled tracing exceeds the latency gate"; exit 1
    }
}' "$OUT"

package core

import (
	"context"
	"math"
	"testing"

	"lzwtc/internal/telemetry"
)

// traceCtx is the worst-case disabled-tracing context: a span identity
// is present (so the ctx lookup is not trivially empty) but there is no
// recorder to consume it.
func traceCtx() context.Context {
	return telemetry.ContextWithSpan(context.Background(),
		telemetry.SpanContext{TraceID: 1, SpanID: 2})
}

// BenchmarkCompressTraceDisabled is the acceptance benchmark for the
// trace-instrumented disabled path: CompressWithPreloadObservedCtx with
// a span context in ctx, a nil preload and a nil recorder. scripts/check_trace_overhead.sh
// gates it against BenchmarkCompressTelemetryDisabled at <= 3%.
func BenchmarkCompressTraceDisabled(b *testing.B) {
	stream, cfg := overheadWorkload()
	ctx := traceCtx()
	b.SetBytes(int64(stream.Len() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressWithPreloadObservedCtx(ctx, stream, cfg, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestTraceDisabledAllocParity: with a nil recorder, the ctx-carrying
// entry point must allocate exactly as much as the plain one — the
// disabled trace path is a pointer check, not a span.
//
// Each run may miss the dict arena: a GC can empty it, and under -race
// sync.Pool drops a random share of Puts, so a miss allocates a fresh
// dict. The test therefore compares the fewest allocations either path
// makes over interleaved single runs. A miss only ever raises one run's
// count, while a span allocated on the ctx path raises every run's,
// the fewest included.
func TestTraceDisabledAllocParity(t *testing.T) {
	stream, cfg := overheadWorkload()
	ctx := traceCtx()
	plain := func() {
		if _, err := Compress(stream, cfg); err != nil {
			t.Fatal(err)
		}
	}
	traced := func() {
		if _, err := CompressWithPreloadObservedCtx(ctx, stream, cfg, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	base, ctxPath := math.Inf(1), math.Inf(1)
	for i := 0; i < 10; i++ {
		base = min(base, testing.AllocsPerRun(1, plain))
		ctxPath = min(ctxPath, testing.AllocsPerRun(1, traced))
	}
	if ctxPath > base {
		t.Fatalf("disabled tracing allocates: %.0f allocs/op via ctx path, %.0f via plain path", ctxPath, base)
	}
}

// TestDecodeTraceDisabledAllocParity is TestTraceDisabledAllocParity for
// the decoder: with a span in ctx and a nil recorder, the observed
// decompress entry must allocate no more than Decompress, compared the
// same way (fewest allocations over interleaved runs).
func TestDecodeTraceDisabledAllocParity(t *testing.T) {
	stream, cfg := overheadWorkload()
	res, err := Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := traceCtx()
	plain := func() {
		if _, err := Decompress(res.Codes, cfg, stream.Len()); err != nil {
			t.Fatal(err)
		}
	}
	traced := func() {
		if _, err := DecompressWithPreloadObservedCtx(ctx, res.Codes, cfg, nil, stream.Len(), nil); err != nil {
			t.Fatal(err)
		}
	}
	base, ctxPath := math.Inf(1), math.Inf(1)
	for i := 0; i < 10; i++ {
		base = min(base, testing.AllocsPerRun(1, plain))
		ctxPath = min(ctxPath, testing.AllocsPerRun(1, traced))
	}
	if ctxPath > base {
		t.Fatalf("disabled decode tracing allocates: %.0f allocs/op via ctx path, %.0f via plain path", ctxPath, base)
	}
}

package core

import (
	"math/rand"
	"testing"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/telemetry"
)

// overheadWorkload builds the ~200k-bit, 80%-X stream used to measure
// telemetry overhead against the pre-instrumentation baseline. The
// shape (seed 42, 80/15/5 X/0/1 mix, DefaultConfig) must stay fixed so
// numbers remain comparable across revisions.
func overheadWorkload() (*bitvec.Vector, Config) {
	rng := rand.New(rand.NewSource(42))
	v := bitvec.New(200000)
	for i := 0; i < v.Len(); i++ {
		r := rng.Float64()
		switch {
		case r < 0.80:
			// X
		case r < 0.95:
			v.Set(i, bitvec.Zero)
		default:
			v.Set(i, bitvec.One)
		}
	}
	return v, DefaultConfig()
}

// BenchmarkCompressTelemetryDisabled is the acceptance benchmark for
// the instrumented-but-disabled hot path: it must stay within 2% of the
// uninstrumented seed compressor on the same workload.
func BenchmarkCompressTelemetryDisabled(b *testing.B) {
	stream, cfg := overheadWorkload()
	b.SetBytes(int64(stream.Len() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(stream, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressTelemetryMetrics measures the metrics-only enabled
// path (registry histograms, no event sinks) for comparison.
func BenchmarkCompressTelemetryMetrics(b *testing.B) {
	stream, cfg := overheadWorkload()
	rec := telemetry.New(telemetry.NewRegistry())
	b.SetBytes(int64(stream.Len() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compressObserved(stream, cfg, rec); err != nil {
			b.Fatal(err)
		}
	}
}

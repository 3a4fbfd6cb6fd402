package lzwtc

import (
	"bytes"
	"context"
	"math"
	"runtime"
	"testing"

	"lzwtc/internal/bench"
)

// pipelineInput is one Table-3 profile under the configuration the
// service runs it with: the default one at the profile's dictionary
// size.
func pipelineInput(t testing.TB, name string) (*TestSet, Config) {
	t.Helper()
	p, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DictSize = p.DictSize
	return p.Generate(), cfg
}

// roundTrip runs the library's request pipeline once: compress, write
// the wire container, decompress it.
func roundTrip(t testing.TB, ts *TestSet, cfg Config, buf *bytes.Buffer) {
	res, err := Compress(context.Background(), ts, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := res.WriteWire(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(context.Background(), bytes.NewReader(buf.Bytes()), Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineAllocBytesPerBit pins the bytes one compress → WriteWire
// → Decompress round trip allocates per input bit. Compression reads
// the cube set in place and decoding writes straight into the output
// cubes, so no aligned copy of the set is made in either direction; an
// extra whole-set copy adds about 0.25 B/bit (two planes) and fails the
// bound. What remains is mostly the output itself: two plane words and
// a 56-byte header per decoded pattern, then the code columns.
//
// Each figure is the fewest bytes over interleaved single runs, as in
// internal/core's TestTraceDisabledAllocParity: a GC can empty the
// dictionary arena, and a miss only ever raises one run's count.
func TestPipelineAllocBytesPerBit(t *testing.T) {
	cases := []struct {
		name  string
		bound float64 // B per input bit
	}{
		{"s5378", 1.30}, // 1.18 measured
		{"b17", 0.85},   // 0.73 measured
	}
	type input struct {
		ts   *TestSet
		cfg  Config
		best float64
	}
	ins := make([]*input, len(cases))
	for i, tc := range cases {
		ts, cfg := pipelineInput(t, tc.name)
		ins[i] = &input{ts: ts, cfg: cfg, best: math.Inf(1)}
	}
	var buf bytes.Buffer
	var ms runtime.MemStats
	for run := 0; run < 8; run++ {
		for _, in := range ins {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			roundTrip(t, in.ts, in.cfg, &buf)
			runtime.ReadMemStats(&ms)
			in.best = min(in.best, float64(ms.TotalAlloc-before)/float64(in.ts.TotalBits()))
		}
	}
	for i, tc := range cases {
		t.Logf("%s: %.3f B/bit", tc.name, ins[i].best)
		if ins[i].best > tc.bound {
			t.Errorf("%s: pipeline allocates %.3f B per input bit, bound %.2f", tc.name, ins[i].best, tc.bound)
		}
	}
}

// BenchmarkPipeline times the round trip of TestPipelineAllocBytesPerBit
// on s5378.
func BenchmarkPipeline(b *testing.B) {
	ts, cfg := pipelineInput(b, "s5378")
	var buf bytes.Buffer
	b.SetBytes(int64(ts.TotalBits() / 8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		roundTrip(b, ts, cfg, &buf)
	}
}

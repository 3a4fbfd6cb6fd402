package lzwtc

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benchmarks for the design choices called out in DESIGN.md.
// Each benchmark regenerates its experiment through the same runners
// cmd/experiments uses and reports the headline quantity as a custom
// metric, so `go test -bench=. -benchmem` reproduces the entire
// evaluation. Absolute rows are printed by `go run ./cmd/experiments`.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"lzwtc/internal/bench"
	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/experiments"
	"lzwtc/internal/report"
	"lzwtc/internal/telemetry"
)

func benchTable(b *testing.B, run func() (*report.Table, error), metricCol int, metric string) {
	b.Helper()
	var last *report.Table
	for i := 0; i < b.N; i++ {
		t, err := run()
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if last == nil || len(last.Rows) == 0 {
		b.Fatal("empty table")
	}
	// Report the mean of the metric column across circuits.
	sum, n := 0.0, 0
	for _, row := range last.Rows {
		var v float64
		if _, err := sscanfPct(row[metricCol], &v); err == nil {
			sum += v
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), metric)
	}
}

func BenchmarkTable1CompressionComparison(b *testing.B) {
	benchTable(b, experiments.Table1, 1, "mean_lzw_%")
}

func BenchmarkTable2DownloadImprovement(b *testing.B) {
	benchTable(b, experiments.Table2, 4, "mean_improvement_10x_%")
}

func BenchmarkTable3BenchmarkResults(b *testing.B) {
	benchTable(b, experiments.Table3, 3, "mean_compression_%")
}

func BenchmarkTable4CharacterSizeSweep(b *testing.B) {
	benchTable(b, experiments.Table4, 3, "mean_cc7_%")
}

func BenchmarkTable5EntrySizeSweep(b *testing.B) {
	benchTable(b, experiments.Table5, 4, "mean_entry511_%")
}

func BenchmarkTable6PerformanceVsEntry(b *testing.B) {
	benchTable(b, experiments.Table6, 5, "mean_perf_entry511_%")
}

func BenchmarkFigure3CompressionTrace(b *testing.B) {
	benchTable(b, experiments.Figure3, 0, "")
}

func BenchmarkFigure4DecompressionTrace(b *testing.B) {
	benchTable(b, experiments.Figure4, 0, "")
}

func BenchmarkFigure5HardwareCycleTrace(b *testing.B) {
	benchTable(b, experiments.Figure5, 0, "")
}

func BenchmarkFigure6MemoryReuse(b *testing.B) {
	benchTable(b, experiments.Figure6, 0, "")
}

// BenchmarkCompressPaperMix compresses the twelve Table-3 profiles, each
// at its own dictionary size under the default configuration, through
// Compress as lzwtcd runs it: with no recorder, and with a recorder on a
// metrics registry. One op is the whole mix; ns/char is over its
// characters (every pattern padded to a character boundary).
func BenchmarkCompressPaperMix(b *testing.B) {
	type input struct {
		ts  *TestSet
		cfg Config
	}
	var mix []input
	chars := 0
	for _, p := range bench.Profiles() {
		cfg := DefaultConfig()
		cfg.DictSize = p.DictSize
		ts := p.Generate()
		mix = append(mix, input{ts, cfg})
		chars += len(ts.Cubes) * cfg.PaddedWidth(ts.Width) / cfg.CharBits
	}
	for _, rc := range []struct {
		name string
		rec  *telemetry.Recorder
	}{{"nil", nil}, {"registry", telemetry.New(telemetry.NewRegistry())}} {
		b.Run(rc.name, func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			for range b.N {
				for _, in := range mix {
					if _, err := Compress(ctx, in.ts, in.cfg, Options{Recorder: rc.rec}); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chars), "ns/char")
		})
	}
}

// --- Ablations -----------------------------------------------------------

// s13207 under the paper configuration is the ablation workload.
func ablationWorkload(b *testing.B) (*bitvec.Vector, core.Config, int) {
	b.Helper()
	p, err := bench.ByName("s13207")
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.LZWConfig(p)
	return p.Generate().SerializeAligned(cfg.CharBits), cfg, p.TotalBits()
}

func ratioOf(b *testing.B, stream *bitvec.Vector, cfg core.Config, orig int) float64 {
	b.Helper()
	res, err := core.Compress(stream, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return 100 * (1 - float64(res.Stats.CompressedBits)/float64(orig))
}

// BenchmarkAblationXFill compares the paper's dynamic (during-LZW)
// don't-care assignment against assigning the X bits before compression
// (Section 5: the pre-processing approaches the authors discarded).
func BenchmarkAblationXFill(b *testing.B) {
	stream, cfg, orig := ablationWorkload(b)
	rng := rand.New(rand.NewSource(1))
	randomFilled := stream.Clone()
	for i := 0; i < randomFilled.Len(); i++ {
		if randomFilled.Get(i) == bitvec.X {
			randomFilled.Set(i, bitvec.Bit(rng.Intn(2)))
		}
	}
	var dyn, zero, rep, rnd float64
	for i := 0; i < b.N; i++ {
		dyn = ratioOf(b, stream, cfg, orig)
		zero = ratioOf(b, stream.Filled(bitvec.FillZero), cfg, orig)
		rep = ratioOf(b, stream.Filled(bitvec.FillRepeat), cfg, orig)
		rnd = ratioOf(b, randomFilled, cfg, orig)
	}
	b.ReportMetric(dyn, "dynamic_%")
	b.ReportMetric(zero, "prefill_zero_%")
	b.ReportMetric(rep, "prefill_repeat_%")
	b.ReportMetric(rnd, "prefill_random_%")
}

// BenchmarkAblationTieBreak compares child tie-break policies.
func BenchmarkAblationTieBreak(b *testing.B) {
	stream, cfg, orig := ablationWorkload(b)
	var oldest, newest, widest float64
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Tie = core.TieOldest
		oldest = ratioOf(b, stream, c, orig)
		c.Tie = core.TieNewest
		newest = ratioOf(b, stream, c, orig)
		c.Tie = core.TieWidest
		widest = ratioOf(b, stream, c, orig)
	}
	b.ReportMetric(oldest, "tie_oldest_%")
	b.ReportMetric(newest, "tie_newest_%")
	b.ReportMetric(widest, "tie_widest_%")
}

// BenchmarkAblationEntryBound compares the paper's single-memory-word
// bounded entries against an unbounded software dictionary.
func BenchmarkAblationEntryBound(b *testing.B) {
	stream, cfg, orig := ablationWorkload(b)
	var bounded, unbounded float64
	for i := 0; i < b.N; i++ {
		bounded = ratioOf(b, stream, cfg, orig)
		c := cfg
		c.EntryBits = 0
		unbounded = ratioOf(b, stream, c, orig)
	}
	b.ReportMetric(bounded, "bounded_63b_%")
	b.ReportMetric(unbounded, "unbounded_%")
}

// BenchmarkAblationDictFull compares freezing the full dictionary (the
// paper's hardware policy) against resetting it.
func BenchmarkAblationDictFull(b *testing.B) {
	stream, cfg, orig := ablationWorkload(b)
	var freeze, reset float64
	for i := 0; i < b.N; i++ {
		c := cfg
		c.Full = core.FullFreeze
		freeze = ratioOf(b, stream, c, orig)
		c.Full = core.FullReset
		reset = ratioOf(b, stream, c, orig)
	}
	b.ReportMetric(freeze, "full_freeze_%")
	b.ReportMetric(reset, "full_reset_%")
}

// sscanfPct parses "80.69%" into 80.69. Non-percentage cells return an
// error and are skipped by benchTable.
func sscanfPct(s string, v *float64) (int, error) {
	var pct float64
	n, err := fmtSscan(s, &pct)
	if err == nil {
		*v = pct
	}
	return n, err
}

func fmtSscan(s string, v *float64) (int, error) {
	if !strings.HasSuffix(s, "%") {
		return 0, fmt.Errorf("not a percentage: %q", s)
	}
	return fmt.Sscanf(strings.TrimSuffix(s, "%"), "%f", v)
}

// BenchmarkAblationPreload measures the warm-start extension: a
// dictionary trained on the first half of the s13207 test set and
// preloaded (through the Figure 6 memory port) before compressing the
// second half, against a cold-start dictionary.
func BenchmarkAblationPreload(b *testing.B) {
	p, err := bench.ByName("s13207")
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.LZWConfig(p)
	cs := p.Generate()
	half := len(cs.Cubes) / 2
	trainSet := &bitvec.CubeSet{Width: cs.Width, Cubes: cs.Cubes[:half]}
	paySet := &bitvec.CubeSet{Width: cs.Width, Cubes: cs.Cubes[half:]}
	payload := paySet.SerializeAligned(cfg.CharBits)
	orig := paySet.TotalBits()

	var cold, warm float64
	for i := 0; i < b.N; i++ {
		pre, err := core.TrainSet(trainSet, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		c, err := core.Compress(payload, cfg)
		if err != nil {
			b.Fatal(err)
		}
		w, err := core.CompressWithPreload(payload, cfg, pre)
		if err != nil {
			b.Fatal(err)
		}
		cold = 100 * (1 - float64(c.Stats.CompressedBits)/float64(orig))
		warm = 100 * (1 - float64(w.Stats.CompressedBits)/float64(orig))
	}
	b.ReportMetric(cold, "cold_%")
	b.ReportMetric(warm, "warm_preloaded_%")
}

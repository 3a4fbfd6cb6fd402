package parallel

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"lzwtc/internal/bench"
	"lzwtc/internal/core"
)

// table3Jobs builds the Table 3 batch: all twelve calibrated circuits
// under their paper configurations. Generation happens once, outside
// the timed region.
func table3Jobs(b *testing.B) ([]Job, int) {
	b.Helper()
	var jobs []Job
	patterns := 0
	for _, p := range bench.Profiles() {
		cc := 7
		for cc > 1 && 1<<uint(cc) >= p.DictSize {
			cc--
		}
		jobs = append(jobs, Job{
			Name: p.Name,
			Set:  p.Generate(),
			Cfg:  core.Config{CharBits: cc, DictSize: p.DictSize, EntryBits: 63},
		})
		patterns += p.Patterns
	}
	return jobs, patterns
}

// BenchmarkBatchCompress measures batch throughput (patterns/sec and
// Mbit/sec of scan data) over the full Table 3 workload at 1, 4 and
// NumCPU workers. On a machine with NumCPU >= 4 the parallel rows
// should clear 3x the workers=1 row; output equivalence with the
// sequential path is pinned separately by TestParallelMatchesSequential.
func BenchmarkBatchCompress(b *testing.B) {
	jobs, patterns := table3Jobs(b)
	bits := 0
	for _, j := range jobs {
		bits += j.Set.TotalBits()
	}
	seen := map[int]bool{}
	var workerCounts []int
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		if !seen[w] {
			seen[w] = true
			workerCounts = append(workerCounts, w)
		}
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := CompressJobs(context.Background(), jobs, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(patterns*b.N)/secs, "patterns/s")
				b.ReportMetric(float64(bits*b.N)/secs/1e6, "Mbit/s")
			}
		})
	}
}

// BenchmarkShardedCompress measures the sharded single-set mode on the
// largest Table 3 circuit (b17): throughput plus the measured ratio
// cost of per-shard dictionary resets, reported as ratio deltas.
func BenchmarkShardedCompress(b *testing.B) {
	p, err := bench.ByName("b17")
	if err != nil {
		b.Fatal(err)
	}
	cs := p.Generate()
	cfg := core.Config{CharBits: 7, DictSize: p.DictSize, EntryBits: 63}
	mono, err := core.Compress(cs.SerializeAligned(cfg.CharBits), cfg)
	if err != nil {
		b.Fatal(err)
	}
	monoRatio := 1 - float64(mono.Stats.CompressedBits)/float64(cs.TotalBits())
	for _, per := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("shard=%d", per), func(b *testing.B) {
			var shards []*core.Result
			for i := 0; i < b.N; i++ {
				shards, _, err = CompressShardedPreloaded(context.Background(), cs, cfg, nil, per, Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(p.Patterns*b.N)/secs, "patterns/s")
			}
			bits := 0
			for _, sh := range shards {
				bits += sh.Stats.CompressedBits
			}
			ratio := 1 - float64(bits)/float64(cs.TotalBits())
			b.ReportMetric(100*ratio, "ratio_%")
			b.ReportMetric(100*(monoRatio-ratio), "ratio_cost_pp")
		})
	}
}

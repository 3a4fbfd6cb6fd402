package lzwtc

import (
	"context"
	"testing"

	"lzwtc/internal/core"
	"lzwtc/internal/dictstore"
)

// Cold-vs-warm dictionary benchmarks: the repeated-corpus workload the
// store exists for. Cold pays Train on every request; warm resolves
// the same dictionary through the store's memory LRU. The measured
// table lives in EXPERIMENTS.md ("Shared-dictionary store").

func dictBenchWorkload() (*TestSet, Config) {
	return conformanceSet(900, 200, 64, 0.5),
		Config{CharBits: 8, DictSize: 1024, EntryBits: 64}
}

func dictBenchChars(b *testing.B, ts *TestSet, cfg Config) int {
	b.Helper()
	pre, err := Train(ts, cfg, 0)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.CompressWithPreload(ts.SerializeAligned(cfg.CharBits), cfg, pre)
	if err != nil {
		b.Fatal(err)
	}
	return res.InputBits / cfg.CharBits
}

// BenchmarkDictColdTrain is the no-store baseline: every request
// trains from scratch before compressing.
func BenchmarkDictColdTrain(b *testing.B) {
	ts, cfg := dictBenchWorkload()
	chars := dictBenchChars(b, ts, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pre, err := Train(ts, cfg, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.CompressWithPreload(ts.SerializeAligned(cfg.CharBits), cfg, pre); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chars), "ns/char")
}

// BenchmarkDictWarmStore is the repeat-traffic path: the dictionary
// resolves out of the store's memory LRU (allocation-free hit) and
// only compression remains.
func BenchmarkDictWarmStore(b *testing.B) {
	ts, cfg := dictBenchWorkload()
	chars := dictBenchChars(b, ts, cfg)
	store, err := OpenDictStore(DictStoreConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	key := DictKeyFor(ts, cfg)
	if _, _, err := store.GetOrTrain(ctx, key, cfg, func(context.Context) (*Preload, error) {
		return Train(ts, cfg, 0)
	}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ent, src, err := store.GetOrTrain(ctx, key, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if src != dictstore.SourceMem {
			b.Fatalf("resolved from %v mid-benchmark", src)
		}
		if _, err := core.CompressWithPreload(ts.SerializeAligned(cfg.CharBits), cfg, ent.Pre); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chars), "ns/char")
}

// BenchmarkDictWarmResolve isolates the store's own hot path: one warm
// memory-LRU resolution, no compression.
func BenchmarkDictWarmResolve(b *testing.B) {
	ts, cfg := dictBenchWorkload()
	store, err := OpenDictStore(DictStoreConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	ctx := context.Background()
	key := DictKeyFor(ts, cfg)
	if _, _, err := store.GetOrTrain(ctx, key, cfg, func(context.Context) (*Preload, error) {
		return Train(ts, cfg, 0)
	}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.GetOrTrain(ctx, key, cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

package parallel

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/telemetry"
)

func shardConfig() core.Config {
	return core.Config{CharBits: 4, DictSize: 128, EntryBits: 16}
}

// TestShardedDecompressionExact: sharded compression decompresses to a
// fully specified set that preserves every care bit, and is
// byte-identical to decompressing each shard sequentially (the
// FullReset-boundary contract).
func TestShardedDecompressionExact(t *testing.T) {
	cs := testSet(11, 37, 41, 0.7)
	cfg := shardConfig()
	for _, per := range []int{1, 4, 10, 37, 1000} {
		shards, patterns, err := CompressShardedPreloaded(context.Background(), cs, cfg, nil, per, Options{Workers: 3})
		if err != nil {
			t.Fatalf("per=%d: %v", per, err)
		}
		total := 0
		for _, n := range patterns {
			total += n
		}
		if len(patterns) != len(shards) || total != len(cs.Cubes) {
			t.Fatalf("per=%d: %d shards with %d patterns, want %d patterns", per, len(shards), total, len(cs.Cubes))
		}
		got, err := DecompressShardedPreloaded(context.Background(), shards, cs.Width, patterns, nil, Options{Workers: 3})
		if err != nil {
			t.Fatalf("per=%d decompress: %v", per, err)
		}
		if len(got.Cubes) != len(cs.Cubes) {
			t.Fatalf("per=%d: %d patterns back, want %d", per, len(got.Cubes), len(cs.Cubes))
		}
		for i, c := range cs.Cubes {
			if !c.CompatibleWith(got.Cubes[i]) {
				t.Fatalf("per=%d: pattern %d violates its care bits", per, i)
			}
		}
		// Byte-identical to the sequential per-shard pipeline.
		want := bitvec.NewCubeSet(cs.Width)
		for _, g := range SplitPatterns(cs, per) {
			res, err := core.Compress(g.SerializeAligned(cfg.CharBits), cfg)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := core.Decompress(res.Codes, cfg, res.InputBits)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := bitvec.DeserializeAligned(stream, cs.Width, cfg.CharBits)
			if err != nil {
				t.Fatal(err)
			}
			want.Cubes = append(want.Cubes, sub.Cubes...)
		}
		for i := range want.Cubes {
			if !want.Cubes[i].Equal(got.Cubes[i]) {
				t.Fatalf("per=%d: pattern %d differs from sequential per-shard pipeline", per, i)
			}
		}
	}
}

// TestShardedMatchesSequentialShards: the packed per-shard streams the
// pool produces are byte-identical to compressing each shard alone —
// the sharded half of the differential property, across worker counts.
func TestShardedMatchesSequentialShards(t *testing.T) {
	cs := testSet(12, 50, 29, 0.85)
	cfg := shardConfig()
	const per = 7
	groups := SplitPatterns(cs, per)
	want := make([][]byte, len(groups))
	for i, g := range groups {
		res, err := core.Compress(g.SerializeAligned(cfg.CharBits), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Pack()
	}
	for _, workers := range []int{1, runtime.NumCPU(), 2 * runtime.NumCPU()} {
		shards, _, err := CompressShardedPreloaded(context.Background(), cs, cfg, nil, per, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(shards) != len(groups) {
			t.Fatalf("workers=%d: %d shards, want %d", workers, len(shards), len(groups))
		}
		for i, sh := range shards {
			if !bytes.Equal(sh.Pack(), want[i]) {
				t.Fatalf("workers=%d: shard %d stream differs from sequential", workers, i)
			}
		}
	}
}

// TestShardRatioCostMeasured: sharding costs ratio (fresh dictionaries
// per shard) — the summed shard volume is no smaller than the
// monolithic run on a workload with cross-pattern structure.
func TestShardRatioCostMeasured(t *testing.T) {
	cs := testSet(13, 120, 64, 0.8)
	cfg := core.Config{CharBits: 4, DictSize: 256, EntryBits: 32}
	mono, err := core.Compress(cs.SerializeAligned(cfg.CharBits), cfg)
	if err != nil {
		t.Fatal(err)
	}
	monoRatio := 1 - float64(mono.Stats.CompressedBits)/float64(cs.TotalBits())
	shards, _, err := CompressShardedPreloaded(context.Background(), cs, cfg, nil, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, sh := range shards {
		sum += sh.Stats.CompressedBits
	}
	if ratio := 1 - float64(sum)/float64(cs.TotalBits()); ratio > monoRatio+1e-9 {
		t.Fatalf("sharded ratio %.4f beats monolithic %.4f — dictionary reset cost vanished", ratio, monoRatio)
	}
}

func TestShardTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.New(reg)
	cs := testSet(14, 30, 32, 0.6)
	shards, _, err := CompressShardedPreloaded(context.Background(), cs, shardConfig(), nil, 5, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	var shardCount int64
	var histCount int64
	for _, c := range snap.Counters {
		if c.Name == MetricShards {
			shardCount = c.Value
		}
	}
	for _, h := range snap.Histograms {
		if h.Name == MetricShardRatio {
			histCount = h.Count
		}
	}
	if shardCount != int64(len(shards)) {
		t.Fatalf("%s = %d, want %d", MetricShards, shardCount, len(shards))
	}
	if histCount != int64(len(shards)) {
		t.Fatalf("%s observations = %d, want %d", MetricShardRatio, histCount, len(shards))
	}
}

func TestSplitPatternsBounds(t *testing.T) {
	cs := testSet(15, 10, 8, 0.5)
	if got := SplitPatterns(cs, 0); len(got) != 1 || got[0] != cs {
		t.Fatal("per<=0 must return the whole set")
	}
	if got := SplitPatterns(cs, 10); len(got) != 1 {
		t.Fatal("per==len must return the whole set")
	}
	got := SplitPatterns(cs, 3)
	if len(got) != 4 {
		t.Fatalf("10/3 split into %d shards, want 4", len(got))
	}
	total := 0
	for _, g := range got {
		total += len(g.Cubes)
	}
	if total != 10 {
		t.Fatalf("split lost patterns: %d", total)
	}
}

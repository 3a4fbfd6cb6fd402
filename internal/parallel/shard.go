package parallel

import (
	"context"
	"fmt"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/telemetry"
)

// ShardedResult is one large test set compressed as independent
// pattern-group shards. Each shard was compressed with a fresh
// dictionary, so a shard boundary is semantically a FullReset: the
// decompressor state at each boundary is exactly the initial state,
// and decompression is exact shard by shard. Because every pattern is
// padded to a character boundary (SerializeAligned), shard streams
// concatenate back into the whole set with no realignment.
//
// The price is compression ratio: each shard re-learns the dictionary
// from scratch, so short shards never reach the long strings the tail
// of a monolithic run emits. CompressSharded measures that cost (it is
// reported, never guessed): Ratio here vs the unsharded ratio on the
// same set.
type ShardedResult struct {
	// Cfg is the shared configuration every shard was compressed under.
	Cfg core.Config
	// Width is the original pattern width.
	Width int
	// Patterns is the total pattern count across shards.
	Patterns int
	// OriginalBits is the unpadded volume of the whole set.
	OriginalBits int
	// Shards holds each pattern group's independent compression.
	Shards []*core.Result
	// ShardPatterns is the pattern count of each shard, in order.
	ShardPatterns []int
}

// CompressedBits returns the total compressed volume across shards.
func (s *ShardedResult) CompressedBits() int {
	total := 0
	for _, sh := range s.Shards {
		total += sh.Stats.CompressedBits
	}
	return total
}

// Ratio returns the aggregate compression ratio against the unpadded
// original volume.
func (s *ShardedResult) Ratio() float64 {
	if s.OriginalBits == 0 {
		return 0
	}
	return 1 - float64(s.CompressedBits())/float64(s.OriginalBits)
}

// SplitPatterns partitions a cube set into shards of at most
// patternsPerShard consecutive patterns (the per-pattern-group split:
// pattern order is preserved and no pattern is divided). The returned
// sets share the original's cube storage; they must be treated as
// read-only views.
func SplitPatterns(cs *bitvec.CubeSet, patternsPerShard int) []*bitvec.CubeSet {
	if patternsPerShard <= 0 || patternsPerShard >= len(cs.Cubes) {
		return []*bitvec.CubeSet{cs}
	}
	var shards []*bitvec.CubeSet
	for lo := 0; lo < len(cs.Cubes); lo += patternsPerShard {
		hi := lo + patternsPerShard
		if hi > len(cs.Cubes) {
			hi = len(cs.Cubes)
		}
		shards = append(shards, &bitvec.CubeSet{Width: cs.Width, Cubes: cs.Cubes[lo:hi]})
	}
	return shards
}

// CompressSharded splits one test set into per-pattern-group shards and
// compresses them concurrently, each with its own dictionary. Sharding
// is all-or-nothing: any shard failure (or cancellation) fails the
// whole call, regardless of Options.Policy, because a partial shard
// sequence cannot be decompressed into the set.
func CompressSharded(ctx context.Context, cs *bitvec.CubeSet, cfg core.Config, patternsPerShard int, opts Options) (*ShardedResult, error) {
	return CompressShardedPreloaded(ctx, cs, cfg, nil, patternsPerShard, opts)
}

// CompressShardedPreloaded is CompressSharded with a warm-start
// dictionary: every shard starts from the same preload (a shard
// boundary reinstalls it rather than cold-starting), so the container
// form matches the wire 'D'-frame semantics. FullReset configs are
// rejected by the underlying preloaded compressor. A nil pre is a cold
// start.
func CompressShardedPreloaded(ctx context.Context, cs *bitvec.CubeSet, cfg core.Config, pre *core.Preload, patternsPerShard int, opts Options) (*ShardedResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cs == nil || len(cs.Cubes) == 0 {
		return nil, fmt.Errorf("parallel: empty test set")
	}
	groups := SplitPatterns(cs, patternsPerShard)
	shardOpts := opts
	shardOpts.Policy = FailFast

	ratioHist := shardRatioHist(opts.Recorder)
	outcomes, err := Map(ctx, groups, shardOpts, func(jctx context.Context, _ int, g *bitvec.CubeSet) (*core.Result, error) {
		_, ssp := opts.Recorder.StartSpan(jctx, core.SpanSerialize)
		stream := g.SerializeAligned(cfg.CharBits)
		ssp.End(telemetry.F("bits", stream.Len()))
		res, e := core.CompressWithPreloadObservedCtx(jctx, stream, cfg, pre, opts.Recorder)
		if e != nil {
			return nil, e
		}
		if g.TotalBits() > 0 {
			ratioHist.Observe(1 - float64(res.Stats.CompressedBits)/float64(g.TotalBits()))
		}
		return res, nil
	})
	if err != nil {
		return nil, fmt.Errorf("parallel: sharded compression: %w", err)
	}

	out := &ShardedResult{
		Cfg:          cfg,
		Width:        cs.Width,
		Patterns:     len(cs.Cubes),
		OriginalBits: cs.TotalBits(),
		Shards:       make([]*core.Result, len(groups)),
		ShardPatterns: func() []int {
			ns := make([]int, len(groups))
			for i, g := range groups {
				ns[i] = len(g.Cubes)
			}
			return ns
		}(),
	}
	for i, o := range outcomes {
		out.Shards[i] = o.Value
	}
	if reg := opts.Recorder.Registry(); reg != nil {
		reg.Counter(MetricShards, "shards compressed").Add(int64(len(groups)))
	}
	return out, nil
}

// DecompressSharded inverts CompressSharded: each shard decompresses
// independently (fresh dictionary — the FullReset boundary semantics)
// and the pattern groups concatenate in order. The output is exact:
// byte-identical to decompressing each shard sequentially.
func DecompressSharded(ctx context.Context, s *ShardedResult, opts Options) (*bitvec.CubeSet, error) {
	return DecompressShardedPreloaded(ctx, s, nil, opts)
}

// DecompressShardedPreloaded inverts CompressShardedPreloaded: each
// shard decompresses with the preload reinstalled (a nil pre is a cold
// start).
func DecompressShardedPreloaded(ctx context.Context, s *ShardedResult, pre *core.Preload, opts Options) (*bitvec.CubeSet, error) {
	shardOpts := opts
	shardOpts.Policy = FailFast
	outcomes, err := Map(ctx, s.Shards, shardOpts, func(jctx context.Context, _ int, sh *core.Result) (*bitvec.CubeSet, error) {
		stream, e := core.DecompressWithPreloadObservedCtx(jctx, sh.Codes, s.Cfg, pre, sh.InputBits, opts.Recorder)
		if e != nil {
			return nil, e
		}
		return bitvec.DeserializeAligned(stream, s.Width, s.Cfg.CharBits)
	})
	if err != nil {
		return nil, fmt.Errorf("parallel: sharded decompression: %w", err)
	}
	out := bitvec.NewCubeSet(s.Width)
	for i, o := range outcomes {
		if got := len(o.Value.Cubes); got != s.ShardPatterns[i] {
			return nil, fmt.Errorf("parallel: shard %d decompressed to %d patterns, want %d", i, got, s.ShardPatterns[i])
		}
		out.Cubes = append(out.Cubes, o.Value.Cubes...)
	}
	return out, nil
}

// shardRatioHist resolves the per-shard ratio histogram, nil-safe.
func shardRatioHist(rec *telemetry.Recorder) *telemetry.Histogram {
	reg := rec.Registry()
	if reg == nil {
		return nil
	}
	return reg.Histogram(MetricShardRatio, "per-shard compression ratio", ShardRatioBuckets())
}

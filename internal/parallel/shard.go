package parallel

import (
	"context"
	"fmt"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/telemetry"
)

// Sharding compresses one large test set as independent pattern-group
// shards. Each shard starts from the same dictionary state (empty, or
// one preload), so a shard boundary is semantically a FullReset: the
// decompressor state at each boundary is exactly the initial state,
// and decompression is exact shard by shard. Because every pattern is
// padded to a character boundary (core.Config.PaddedWidth), shard
// outputs concatenate back into the whole set with no realignment.
//
// The price is compression ratio: each shard re-learns the dictionary
// from scratch, so short shards never reach the long strings the tail
// of a monolithic run emits. The per-shard ratio histogram
// (metricShardRatio) measures that cost rather than guessing it.

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

// CompressShardedPreloaded splits one test set into per-pattern-group
// shards and compresses them concurrently, every shard starting from
// the same preload (a nil pre is a cold start; FullReset configs are
// rejected by the preloaded compressor when pre is set). It returns
// each shard's compression and pattern count, in order;
// patternsPerShard <= 0 is one shard. Sharding is all-or-nothing: any
// shard failure (or cancellation) fails the whole call, regardless of
// Options.Policy, because a partial shard sequence cannot be
// decompressed into the set.
func CompressShardedPreloaded(ctx context.Context, cs *bitvec.CubeSet, cfg core.Config, pre *core.Preload, patternsPerShard int, opts Options) ([]*core.Result, []int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cs == nil || len(cs.Cubes) == 0 {
		return nil, nil, fmt.Errorf("parallel: empty test set")
	}
	groups := SplitPatterns(cs, patternsPerShard)
	shardOpts := opts
	shardOpts.Policy = FailFast

	ratioHist := shardRatioHist(opts.Recorder)
	outcomes, err := Map(ctx, groups, shardOpts, func(jctx context.Context, _ int, g *bitvec.CubeSet) (*core.Result, error) {
		res, e := core.CompressWithPreloadObservedCtx(jctx, g, cfg, pre, opts.Recorder)
		if e != nil {
			return nil, e
		}
		if g.TotalBits() > 0 {
			ratioHist.Observe(1 - float64(res.Stats.CompressedBits)/float64(g.TotalBits()))
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("parallel: sharded compression: %w", err)
	}

	shards := make([]*core.Result, len(groups))
	patterns := make([]int, len(groups))
	for i, o := range outcomes {
		shards[i] = o.Value
		patterns[i] = len(groups[i].Cubes)
	}
	if reg := opts.Recorder.Registry(); reg != nil {
		reg.Counter(metricShards, "shards compressed").Add(int64(len(groups)))
	}
	return shards, patterns, nil
}

// shardRatioHist resolves the per-shard ratio histogram, nil-safe.
func shardRatioHist(rec *telemetry.Recorder) *telemetry.Histogram {
	reg := rec.Registry()
	if reg == nil {
		return nil
	}
	return reg.Histogram(metricShardRatio, "per-shard compression ratio", shardRatioBuckets())
}

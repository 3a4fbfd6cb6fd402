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

// DecompressShardedPreloaded inverts CompressShardedPreloaded: each
// shard decompresses concurrently with the preload reinstalled (a nil
// pre is a cold start — the FullReset boundary semantics) and the
// pattern groups concatenate in order into one set that owns every
// group's memory. The output is exact: byte-identical to decompressing
// each shard sequentially.
func DecompressShardedPreloaded(ctx context.Context, shards []*core.Result, width int, patterns []int, pre *core.Preload, opts Options) (*bitvec.CubeSet, error) {
	shardOpts := opts
	shardOpts.Policy = FailFast
	outcomes, err := Map(ctx, shards, shardOpts, func(jctx context.Context, i int, sh *core.Result) (*bitvec.CubeSet, error) {
		set, e := DecodeShard(jctx, sh, width, patterns[i], pre, opts.Recorder)
		if e != nil {
			return nil, fmt.Errorf("shard %d: %w", i, e)
		}
		return set, nil
	})
	out := bitvec.NewCubeSet(width)
	for _, o := range outcomes {
		if o.Value != nil {
			bitvec.AppendSet(out, o.Value)
		}
	}
	if err != nil {
		out.Release()
		return nil, fmt.Errorf("parallel: sharded decompression: %w", err)
	}
	return out, nil
}

// DecodeShard is the one frame decode body behind every decompressor
// of codes: check that sh's input length is the given number of
// patterns of the given width, each padded to a character boundary,
// then decompress sh from pre (nil is a cold start) straight into them.
func DecodeShard(ctx context.Context, sh *core.Result, width, patterns int, pre *core.Preload, rec *telemetry.Recorder) (*bitvec.CubeSet, error) {
	if err := sh.Cfg.Validate(); err != nil {
		return nil, err
	}
	if slot := sh.Cfg.PaddedWidth(width); sh.InputBits != patterns*slot {
		return nil, fmt.Errorf("input length %d bits is not %d patterns of %d padded bits", sh.InputBits, patterns, slot)
	}
	return core.DecompressWithPreloadObservedCtx(ctx, sh.Codes, sh.Cfg, pre, width, patterns, rec)
}

// shardRatioHist resolves the per-shard ratio histogram, nil-safe.
func shardRatioHist(rec *telemetry.Recorder) *telemetry.Histogram {
	reg := rec.Registry()
	if reg == nil {
		return nil
	}
	return reg.Histogram(metricShardRatio, "per-shard compression ratio", shardRatioBuckets())
}

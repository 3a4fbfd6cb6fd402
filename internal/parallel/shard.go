package parallel

import "lzwtc/internal/bitvec"

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
// of a monolithic run emits. The root package compresses the shards on
// the pool and records each one's ratio (lzwtc_batch_shard_ratio), so
// that cost is measured rather than guessed. This file only splits.

// SplitPatterns partitions a cube set into shards of at most
// patternsPerShard consecutive patterns (the per-pattern-group split:
// pattern order is preserved and no pattern is divided). The returned
// sets share the original's cube storage; they must be treated as
// read-only views. A nil set is one nil shard.
func SplitPatterns(cs *bitvec.CubeSet, patternsPerShard int) []*bitvec.CubeSet {
	if cs == nil || patternsPerShard <= 0 || patternsPerShard >= len(cs.Cubes) {
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

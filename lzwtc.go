// Package lzwtc is a test-data-compression library reproducing
// "A Technique for High Ratio LZW Compression" (Knieser, Wolff,
// Papachristou, Weyer, McIntyre — DATE 2003): LZW compression of scan
// test vectors with dynamic don't-care assignment, a cycle-accurate
// model of the paper's hardware decompressor on reused embedded memory,
// the LZ77 and run-length baselines it is compared against, and a
// complete test-generation substrate (netlists, scan insertion, PODEM
// ATPG, fault simulation) for producing realistic test cubes.
//
// # Quick start
//
//	ts := lzwtc.NewTestSet(8)
//	ts.Add(lzwtc.MustPattern("01XX10XX"))
//	ts.Add(lzwtc.MustPattern("X1XX10X0"))
//	res, err := lzwtc.Compress(ts, lzwtc.DefaultConfig())
//	// res.Ratio(), res.WriteWire(w), ...
//	back, err := lzwtc.Decompress(res)
//	err = lzwtc.Verify(ts, back) // every specified bit preserved
//
// The don't-care bits (X) are assigned during compression so that the
// LZW dictionary walk keeps extending existing strings; the decompressed
// stream is fully specified and compatible with every care bit of the
// original cubes.
package lzwtc

import (
	"context"
	"fmt"
	"io"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/parallel"
)

// Bit is a three-valued test-data bit: Zero, One or X (don't-care).
type Bit = bitvec.Bit

// Three-valued bit constants.
const (
	Zero = bitvec.Zero
	One  = bitvec.One
	X    = bitvec.X
)

// Pattern is one scan test pattern: a fixed-width three-valued vector.
type Pattern = bitvec.Vector

// ParsePattern builds a pattern from a '0'/'1'/'X' string.
func ParsePattern(s string) (*Pattern, error) { return bitvec.Parse(s) }

// MustPattern is ParsePattern that panics on error.
func MustPattern(s string) *Pattern { return bitvec.MustParse(s) }

// TestSet is an ordered set of equal-width test patterns (the test data
// for one core).
type TestSet = bitvec.CubeSet

// NewTestSet returns an empty test set of the given pattern width.
func NewTestSet(width int) *TestSet { return bitvec.NewCubeSet(width) }

// ReadTestSet parses a text test set: one pattern of '0'/'1'/'X' per
// line, '#' comments and blank lines ignored.
func ReadTestSet(r io.Reader) (*TestSet, error) { return bitvec.ReadCubes(r) }

// Config carries the LZW configurator parameters, named as in the
// paper: CharBits is C_C, DictSize is N, EntryBits is C_MDATA.
type Config = core.Config

// Policy re-exports.
const (
	FillZero   = core.FillZero
	FillOne    = core.FillOne
	FillRepeat = core.FillRepeat

	TieOldest = core.TieOldest
	TieNewest = core.TieNewest
	TieWidest = core.TieWidest

	FullFreeze = core.FullFreeze
	FullReset  = core.FullReset
)

// DefaultConfig returns the paper's headline configuration: 7-bit
// characters, a 1024-code dictionary and 64-bit dictionary entries.
func DefaultConfig() Config { return core.DefaultConfig() }

// Stats summarizes a compression run.
type Stats = core.Stats

// Code is one compressed LZW code.
type Code = core.Code

// Result is a compressed test set: one or more pattern-group shards,
// each an independent code stream. Every shard starts from the same
// dictionary state, so a shard boundary is the paper's FullReset and
// needs no new decompressor hardware; an unsharded compression is one
// shard. WriteWire emits one wire frame per shard.
type Result struct {
	// Cfg is the configuration every shard was compressed under.
	Cfg Config
	// Width is the pattern width of the original set.
	Width int
	// Patterns is the original pattern count.
	Patterns int
	// OriginalBits is the unpadded test-set volume; compression ratios
	// are computed against it.
	OriginalBits int
	// Shards holds each pattern group's code stream, in order.
	Shards []*core.Result
	// ShardPatterns is the pattern count of each shard, in order.
	ShardPatterns []int
	// Dict names the shared dictionary the codes were compressed from,
	// and is nil for a cold start. WriteWire carries it as a 'D' frame.
	// Decompress and SimulateDownload cannot resolve it and fail with
	// ErrDictNotFound; decompress such a container through
	// DecompressWireDict.
	Dict *DictRef
}

// ShardedResult is an alias of Result for callers that name the
// sharded form.
type ShardedResult = Result

// needsNoDict is the check in front of every decoder of a Result that
// starts from an empty dictionary.
func (r *Result) needsNoDict() error {
	if r.Dict != nil {
		return fmt.Errorf("lzwtc: result references dictionary %x; decompress its container through DecompressWireDict: %w",
			r.Dict.Key, ErrDictNotFound)
	}
	return nil
}

// Ratio returns the compression ratio against the original volume.
func (r *Result) Ratio() float64 {
	if r.OriginalBits == 0 {
		return 0
	}
	return 1 - float64(r.CompressedBits())/float64(r.OriginalBits)
}

// CompressedBits returns the compressed volume in bits, summed across
// shards.
func (r *Result) CompressedBits() int { return r.Stats().CompressedBits }

// Stats returns the compression statistics aggregated across shards:
// counts summed, MaxMatchChars and MaxEntryChars maximised. For one
// shard it is that shard's statistics.
func (r *Result) Stats() Stats {
	var st Stats
	for _, sh := range r.Shards {
		s := sh.Stats
		st.InputBits += s.InputBits
		st.Chars += s.Chars
		st.CodesEmitted += s.CodesEmitted
		st.CompressedBits += s.CompressedBits
		st.LiteralCodes += s.LiteralCodes
		st.StringCodes += s.StringCodes
		st.DictEntries += s.DictEntries
		st.DictResets += s.DictResets
		st.ResidualFills += s.ResidualFills
		st.DynamicFills += s.DynamicFills
		st.MaxMatchChars = max(st.MaxMatchChars, s.MaxMatchChars)
		st.MaxEntryChars = max(st.MaxEntryChars, s.MaxEntryChars)
	}
	return st
}

// Compress compresses a test set under the given configuration.
//
// Patterns are serialized in order with each pattern padded (with X
// bits) to the next character boundary — the hardware decompressor
// flushes its output shifter at the capture cycle between patterns —
// and the stream is compressed with dynamic don't-care assignment.
// The Result has one shard.
func Compress(ts *TestSet, cfg Config) (*Result, error) {
	return CompressObservedCtx(context.Background(), ts, cfg, nil)
}

// Decompress reconstructs the fully specified test set a decompressor
// would deliver to the scan chain: every original care bit preserved,
// every don't-care concretized. Shards decompress concurrently and
// concatenate in order.
func Decompress(r *Result) (*TestSet, error) {
	if err := r.needsNoDict(); err != nil {
		return nil, err
	}
	return parallel.DecompressShardedPreloaded(context.Background(), r.Shards, r.Width, r.ShardPatterns, nil, BatchOptions{})
}

// DecompressedSetFromStream splits a concrete scan stream — e.g. the
// output of the cycle-accurate hardware decompressor model — back into
// the test set's patterns, dropping per-pattern alignment padding.
func DecompressedSetFromStream(stream *Pattern, r *Result) (*TestSet, error) {
	return bitvec.DeserializeAligned(stream, r.Width, r.Cfg.CharBits)
}

// Verify checks that a decompressed (fully specified) test set preserves
// every specified bit of the original cubes.
func Verify(orig, filled *TestSet) error {
	if orig.Width != filled.Width || len(orig.Cubes) != len(filled.Cubes) {
		return fmt.Errorf("lzwtc: test-set shapes differ: %dx%d vs %dx%d",
			len(orig.Cubes), orig.Width, len(filled.Cubes), filled.Width)
	}
	for i := range orig.Cubes {
		if !orig.Cubes[i].CompatibleWith(filled.Cubes[i]) {
			return fmt.Errorf("lzwtc: pattern %d violates its care bits", i)
		}
	}
	return nil
}

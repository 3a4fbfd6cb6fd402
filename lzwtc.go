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
//	ctx := context.Background()
//	res, err := lzwtc.Compress(ctx, ts, lzwtc.DefaultConfig(), lzwtc.Options{})
//	// res.Ratio(), res.WriteWire(w), ...
//	back, err := res.Decompress(ctx, lzwtc.Options{})
//	err = lzwtc.Verify(ts, back) // every specified bit preserved
//
// Decompress reads a wire container from an io.Reader; Options holds
// every setting that is not a configurator parameter.
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
	"lzwtc/internal/dictstore"
	"lzwtc/internal/parallel"
	"lzwtc/internal/telemetry"
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

// Recorder re-exports the telemetry recorder, so instrumented calls
// are usable from the public API.
type Recorder = telemetry.Recorder

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
	// and is nil for a cold start. Compress sets it exactly when
	// Options.Dict is set, and WriteWire carries it as a 'D' frame.
	// Result.Decompress resolves it through Options.Resolver;
	// SimulateDownload cannot load it and fails with ErrDictNotFound.
	Dict *DictRef
}

// Options are the settings of Compress, Decompress and
// Result.Decompress beyond the configurator's parameters. The zero
// value is a cold start, one shard, GOMAXPROCS workers and no tracing.
type Options struct {
	// Dict is the stored dictionary Compress starts every shard from,
	// as DictStore.Resolve returns it: the preload and its reference
	// in one value, so the Result names it. nil is a cold start.
	Dict *dictstore.Entry
	// ShardPatterns splits Compress's input into shards of at most
	// this many consecutive patterns; <= 0 is one shard.
	ShardPatterns int
	// Resolver resolves the dictionary a container or Result names; a
	// nil one fails such data with ErrDictNotFound.
	Resolver DictResolver
	// Workers bounds the shards Compress runs at once; <= 0 means
	// GOMAXPROCS. Decompression is one sequential loop over the shards.
	Workers int
	// Recorder receives metrics, events and trace spans; nil is
	// untraced.
	Recorder *Recorder
}

// resolveDict returns the preload ref names, through res: nil when ref
// is nil, ErrDictNotFound when there is no resolver.
func resolveDict(ctx context.Context, ref *DictRef, res DictResolver) (*Preload, error) {
	switch {
	case ref == nil:
		return nil, nil
	case res == nil:
		return nil, fmt.Errorf("lzwtc: data references dictionary %x but no resolver given: %w", ref.Key, ErrDictNotFound)
	}
	pre, err := res.ResolveDict(ctx, *ref)
	if err != nil {
		return nil, fmt.Errorf("lzwtc: resolving dictionary %x: %w", ref.Key, err)
	}
	return pre, nil
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
// Patterns are taken in order, each padded (with X bits) to the next
// character boundary — the hardware decompressor flushes its output
// shifter at the capture cycle between patterns — and compressed with
// dynamic don't-care assignment. The Result has one shard, or one per
// opts.ShardPatterns patterns; with opts.Dict every shard starts from
// that dictionary and the Result names it. ctx cancels the run.
func Compress(ctx context.Context, ts *TestSet, cfg Config, opts Options) (*Result, error) {
	var pre *Preload
	var ref *DictRef
	if d := opts.Dict; d != nil {
		pre, ref = d.Pre, &DictRef{Key: d.Key, Digest: d.Digest}
	}
	return compress(ctx, ts, cfg, pre, ref, opts.ShardPatterns, BatchOptions{Workers: opts.Workers, Recorder: opts.Recorder})
}

// compress splits ts into shards of at most patternsPerShard patterns
// (<= 0 is one shard) and runs compressGroups over them under
// FailFast, every shard from pre (nil is a cold start), with ref as
// the Result's Dict. Sharding is all-or-nothing: a partial shard
// sequence cannot be decompressed into the set.
func compress(ctx context.Context, ts *TestSet, cfg Config, pre *Preload, ref *DictRef, patternsPerShard int, opts BatchOptions) (*Result, error) {
	sets := parallel.SplitPatterns(ts, patternsPerShard)
	groups := make([]BatchJob, len(sets))
	for i, g := range sets {
		groups[i] = BatchJob{Set: g, Cfg: cfg}
	}
	opts.Policy = parallel.FailFast
	outcomes, err := compressGroups(ctx, groups, pre, opts, func(i int) string {
		return fmt.Sprintf("shard %d", i)
	})
	if err != nil {
		return nil, err
	}
	shards := make([]*core.Result, len(outcomes))
	patterns := make([]int, len(outcomes))
	for i, o := range outcomes {
		shards[i], patterns[i] = o.Value, len(sets[i].Cubes)
	}
	res := newResult(ts, cfg, shards, patterns)
	res.Dict = ref
	return res, nil
}

// Decompress reconstructs the fully specified test set a decompressor
// would deliver to the scan chain: every original care bit preserved,
// every don't-care concretized. A Result naming a dictionary resolves
// it through opts.Resolver first; then the shards decode one after
// another, each from that same dictionary state, and concatenate in
// order. On an error the output decoded so far is released.
func (r *Result) Decompress(ctx context.Context, opts Options) (*TestSet, error) {
	if err := r.checkShards(); err != nil {
		return nil, err
	}
	pre, err := resolveDict(ctx, r.Dict, opts.Resolver)
	if err != nil {
		return nil, err
	}
	out := NewTestSet(r.Width)
	for i, sh := range r.Shards {
		group, err := decodeShard(ctx, sh, r.Width, r.ShardPatterns[i], pre, opts.Recorder)
		if err != nil {
			out.Release()
			return nil, fmt.Errorf("lzwtc: shard %d: %w", i, err)
		}
		bitvec.AppendSet(out, group)
	}
	return out, nil
}

// checkShards reports a Result whose shard list cannot be written or
// decoded: a pattern count missing for some shard, or a nil shard.
func (r *Result) checkShards() error {
	if len(r.ShardPatterns) != len(r.Shards) {
		return fmt.Errorf("lzwtc: result has %d shards but %d shard pattern counts", len(r.Shards), len(r.ShardPatterns))
	}
	for i, sh := range r.Shards {
		if sh == nil {
			return fmt.Errorf("lzwtc: shard %d is nil", i)
		}
	}
	return nil
}

// decodeShard is the one frame decode body: check that sh's input
// length is the given number of patterns of the given width, each
// padded to a character boundary, then decompress sh from pre (nil is
// a cold start) straight into them. A canceled ctx stops it first.
func decodeShard(ctx context.Context, sh *core.Result, width, patterns int, pre *Preload, rec *Recorder) (*TestSet, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := sh.Cfg.Validate(); err != nil {
		return nil, err
	}
	if slot := sh.Cfg.PaddedWidth(width); sh.InputBits != patterns*slot {
		return nil, fmt.Errorf("input length %d bits is not %d patterns of %d padded bits", sh.InputBits, patterns, slot)
	}
	return core.DecompressWithPreloadObservedCtx(ctx, sh.Codes, sh.Cfg, pre, width, patterns, rec)
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

package core

import (
	"context"
	"fmt"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/telemetry"
)

// Preload is a static warm-start dictionary: concrete character strings
// installed into the dictionary before compression or decompression
// begins. The paper's conclusion suggests amortizing the decompressor by
// making it "part of normal operation"; a preloaded dictionary is the
// natural next step — the ATE (or the BIST controller, through the
// Figure 6 port) writes a trained dictionary into the embedded memory
// once, and every subsequent test session starts warm.
//
// Strings must be prefix-closed in order: each string is inserted by
// walking existing entries and must extend the dictionary by exactly its
// last character (Train produces exactly this form).
type Preload struct {
	Strings [][]uint64
}

// Entries returns the number of preloaded strings.
func (p *Preload) Entries() int {
	if p == nil {
		return 0
	}
	return len(p.Strings)
}

// preload installs the strings into a fresh dictionary.
func (d *dict) preload(p *Preload) error {
	if p == nil {
		return nil
	}
	maxChars := d.cfg.MaxChars()
	for i, s := range p.Strings {
		if len(s) < 2 {
			return fmt.Errorf("core: preload string %d has %d chars; literals are implicit", i, len(s))
		}
		if len(s) > maxChars {
			return fmt.Errorf("core: preload string %d has %d chars, entry bound is %d", i, len(s), maxChars)
		}
		if d.full() {
			return fmt.Errorf("core: preload overflows the dictionary at string %d", i)
		}
		// Every character must be a valid C_C-bit value: the flat child
		// index packs characters into 16-bit key fields, and an
		// out-of-range character could never decompress anyway.
		for k, ch := range s {
			if ch >= uint64(d.cfg.Literals()) {
				return fmt.Errorf("core: preload string %d has invalid character %d at position %d", i, ch, k)
			}
		}
		// Walk the prefix; it must already exist.
		cur := Code(s[0])
		for k := 1; k < len(s)-1; k++ {
			child, ok := d.lookupChild(cur, s[k])
			if !ok {
				return fmt.Errorf("core: preload string %d is not prefix-closed at char %d", i, k)
			}
			cur = child
		}
		last := s[len(s)-1]
		if _, dup := d.lookupChild(cur, last); dup {
			return fmt.Errorf("core: preload string %d duplicates an entry", i)
		}
		d.commitAdd(cur, last)
	}
	return nil
}

// Train builds a preload dictionary from a training stream: it compresses
// the stream under cfg and keeps the first maxEntries dictionary strings
// in creation order, which is prefix-closed by construction. maxEntries
// of 0 keeps everything the training run built.
func Train(stream *bitvec.Vector, cfg Config, maxEntries int) (*Preload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Full == FullReset {
		return nil, fmt.Errorf("core: training with FullReset would not be prefix-closed")
	}
	d := newDict(cfg)
	// Compress the training stream, then replay its code sequence: the
	// decoder-side rebuild yields the same dictionary deterministically.
	res, err := Compress(stream, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := d.decode(res.Codes, nil, nil); err != nil {
		return nil, err
	}
	n := int(d.next) - cfg.Literals()
	if maxEntries > 0 && maxEntries < n {
		n = maxEntries
	}
	p := &Preload{Strings: make([][]uint64, 0, n)}
	for i := 0; i < n; i++ {
		c := Code(cfg.Literals() + i)
		p.Strings = append(p.Strings, d.stringOf(c, nil))
	}
	return p, nil
}

// CompressWithPreload is Compress starting from a warm dictionary. The
// decompressor must be given the same preload.
func CompressWithPreload(stream *bitvec.Vector, cfg Config, pre *Preload) (*Result, error) {
	return CompressWithPreloadObservedCtx(context.Background(), stream, cfg, pre, nil)
}

// CompressWithPreloadObservedCtx is the one observed compress entry:
// CompressWithPreload instrumented through a telemetry recorder and a
// trace context. The recorder takes per-code match-length and
// dictionary-occupancy histograms, one EventCompressRun record and,
// when it is Tracing, one EventCompressStep per Figure 3 step; when
// ctx carries a span, the dictionary build and the match loop are
// recorded as child spans of it. A nil preload is a cold start. A nil
// recorder is the production fast path: it never touches ctx and costs
// one pointer check per emitted code.
func CompressWithPreloadObservedCtx(ctx context.Context, stream *bitvec.Vector, cfg Config, pre *Preload, rec *telemetry.Recorder) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pre.Entries() > 0 && cfg.Full == FullReset {
		return nil, fmt.Errorf("core: FullReset would discard the preloaded dictionary inconsistently")
	}
	return compressInternal(ctx, stream, cfg, rec, func() (*dict, error) { return preloadedDict(cfg, pre, rec) })
}

// preloadedDict takes a dictionary from the arena (counting the take in
// rec) and installs pre into it; a nil preload leaves it cold.
func preloadedDict(cfg Config, pre *Preload, rec *telemetry.Recorder) (*dict, error) {
	d := acquireDict(cfg, rec)
	if err := d.preload(pre); err != nil {
		releaseDict(d)
		return nil, err
	}
	return d, nil
}

// DecompressWithPreloadObservedCtx is the one observed decompress
// entry: DecompressWithPreload wrapped in a SpanDecode trace span and
// instrumented through a telemetry recorder. When ctx carries a span
// and rec has sinks, the frame's software decompression is recorded as
// a child span carrying the code count and output length; when rec is
// Tracing, every code is reported as one EventDecompressStep (the
// Figure 4 row). A nil preload is a cold start, so every wire frame
// decodes through it; a nil recorder adds one pointer check.
func DecompressWithPreloadObservedCtx(ctx context.Context, codes []Code, cfg Config, pre *Preload, outBits int, rec *telemetry.Recorder) (*bitvec.Vector, error) {
	_, sp := rec.StartSpan(ctx, SpanDecode)
	out, err := decompressPreload(codes, cfg, pre, outBits, rec)
	if sp != nil {
		// Building the fields boxes two ints; the disabled path skips
		// them so it allocates no more than Decompress.
		sp.End(telemetry.F("codes", len(codes)), telemetry.F("out_bits", outBits))
	}
	return out, err
}

// DecompressWithPreload inverts CompressWithPreload.
func DecompressWithPreload(codes []Code, cfg Config, pre *Preload, outBits int) (*bitvec.Vector, error) {
	return decompressPreload(codes, cfg, pre, outBits, nil)
}

// decompressPreload is the body behind every decompress entry: it
// validates cfg, builds the (possibly preloaded) dictionary, and
// decodes with step events going to rec.
func decompressPreload(codes []Code, cfg Config, pre *Preload, outBits int, rec *telemetry.Recorder) (*bitvec.Vector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pre.Entries() > 0 && cfg.Full == FullReset {
		return nil, fmt.Errorf("core: FullReset would discard the preloaded dictionary inconsistently")
	}
	return decompressWithDict(codes, cfg, outBits, rec, func() (*dict, error) { return preloadedDict(cfg, pre, nil) })
}

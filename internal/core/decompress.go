package core

import (
	"fmt"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/telemetry"
)

// DecompressTraceEvent reports one decompressor step, mirroring the
// columns of the paper's Figure 4. It is the payload of
// EventDecompressStep, under the "event" field.
type DecompressTraceEvent struct {
	Step     int
	Input    Code   // compressed character consumed
	Buffer   string // previous code (Buffer register), "" on the first step
	Output   string // uncompressed bits appended to the output
	NewEntry *TraceEntry
	Special  bool // the not-yet-defined-code case (Figure 4f)
}

// Decompress inverts a code sequence produced by Compress under the same
// configuration. outBits is the original stream length; the decompressed
// stream is truncated to it (the final character may have been X-padded).
// The returned vector is fully specified.
func Decompress(codes []Code, cfg Config, outBits int) (*bitvec.Vector, error) {
	return decompressPreload(codes, cfg, nil, outBits, nil)
}

func decompressWithDict(codes []Code, cfg Config, outBits int, rec *telemetry.Recorder, mk func() (*dict, error)) (*bitvec.Vector, error) {
	if outBits < 0 {
		return nil, fmt.Errorf("core: negative output length %d", outBits)
	}
	out := bitvec.New(outBits)
	if len(codes) == 0 {
		if outBits != 0 {
			return nil, fmt.Errorf("core: empty code stream for %d output bits", outBits)
		}
		return out, nil
	}

	cc := cfg.CharBits
	d, err := mk()
	if err != nil {
		return nil, err
	}
	defer releaseDict(d)
	// The decompressor only replays adds — it never asks for a child —
	// so the dictionary can skip child-index maintenance entirely. Set
	// after mk(): a preload factory still installs its index (preload
	// verifies prefix-closure through lookupChild).
	d.noChildIndex = true
	val, care := out.Planes()
	produced, err := d.decode(codes, val, rec)
	if err != nil {
		return nil, err
	}
	if produced < outBits {
		return nil, fmt.Errorf("core: code stream produced %d bits, need %d", produced, outBits)
	}
	if produced-outBits >= cc {
		return nil, fmt.Errorf("core: code stream produced %d bits, more than a character beyond %d", produced, outBits)
	}
	markSpecified(val, care, outBits)
	return out, nil
}

// markSpecified finishes a decoded output of n bits: every bit is
// concrete, so the care plane is filled wholesale, and the X-padded tail
// of the final character is clipped off the value plane, leaving both
// planes zero at and beyond n.
func markSpecified(val, care []uint64, n int) {
	for i := range care {
		care[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		last := len(care) - 1
		care[last] = uint64(1)<<uint(r) - 1
		val[last] &= care[last]
	}
}

// decode replays a code stream through d — the one Figure 4 decoder
// loop, shared by decompression (val = the zeroed value plane of the
// output) and Train's dictionary rebuild (val = nil) — and returns the
// number of output bits the codes expand to. Per code it applies the
// pending dictionary add, resolves the not-yet-defined case (Figure 4f)
// and checks the stream; only the final fetch-and-write step depends on
// the configuration: one packed-string load when the dictionary keeps
// the str column, a parent walk otherwise. When rec is Tracing, each
// code is reported as one EventDecompressStep.
func (d *dict) decode(codes []Code, val []uint64, rec *telemetry.Recorder) (int, error) {
	cc := d.cfg.CharBits
	packed := len(d.str) != 0
	tracing := rec.Tracing()
	pos := 0
	prev := noCode
	var scratch []uint64
	for step, c := range codes {
		// Mirror the compressor's ordering: its dictionary-add attempt —
		// including any FullReset — happened after emitting the previous
		// code and before emitting this one, so the add must be prepared
		// before this code is interpreted.
		pending := prev != noCode && d.prepareAdd(prev)

		special := false
		var first uint64
		var n int
		switch {
		case d.defined(c):
			first, n = d.firstChar[c], d.len(c)
		case pending && c == d.next:
			// Figure 4f: the code references the entry about to be
			// created, string(prev) + firstChar(prev). The commit below
			// defines it, so from there on it decodes like any other code.
			first, n = d.firstChar[prev], d.len(prev)+1
			special = true
		default:
			return 0, fmt.Errorf("core: code %d at position %d is undefined (next free %d)", c, step, d.next)
		}

		var entry *TraceEntry
		if pending {
			nc := d.commitAdd(prev, first)
			if tracing {
				// The rendered entry string exists only for the step
				// event; the untraced hot path never materializes it.
				entry = &TraceEntry{Code: nc, Str: stringBits(d, nc, cc)}
			}
			if special && nc != c {
				return 0, fmt.Errorf("core: special-case entry mismatch: created %d, referenced %d", nc, c)
			}
		}

		if pos+n*cc < pos { // overflow guard
			return 0, fmt.Errorf("core: output overflow")
		}
		if tracing {
			buf := ""
			if prev != noCode {
				buf = bufferLabel(d, prev, cc)
			}
			rec.Emit(EventDecompressStep, telemetry.F("event", DecompressTraceEvent{
				Step: step, Input: c, Buffer: buf, Output: stringBits(d, c, cc), NewEntry: entry, Special: special}))
		}
		switch {
		case val == nil:
		case packed:
			orBits(val, pos, d.str[c])
		default:
			scratch = d.stringOf(c, scratch[:0])
			for k, ch := range scratch {
				orBits(val, pos+k*cc, ch)
			}
		}
		pos += n * cc
		prev = c
	}
	return pos, nil
}

// orBits ORs the low bits of s into plane starting at bit pos: stream
// bit pos+j takes bit j of s, the LSB-first order of Chunk and
// SetChunk. The target bits must be zero. Bits past the end of the plane
// are dropped; bits past the vector's Len inside its last word are the
// caller's to clip.
func orBits(plane []uint64, pos int, s uint64) {
	w, off := pos>>6, uint(pos)&63
	if w+1 < len(plane) {
		plane[w] |= s << off
		plane[w+1] |= s >> (64 - off) // a shift by 64 yields 0
		return
	}
	if w < len(plane) {
		plane[w] |= s << off
	}
}

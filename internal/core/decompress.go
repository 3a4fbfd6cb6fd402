package core

import (
	"fmt"
	"math"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/invariant"
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
	return DecompressWithPreload(codes, cfg, nil, outBits)
}

// decompressSet is the one decompress body: it decodes codes from pre
// (nil is a cold start) straight into a set of patterns cubes of the
// given width. The codes must expand to exactly patterns padded widths;
// the length errors report the output without the last cube's pad bits,
// which for one cube is its width.
//
// Nothing is allocated for the output until the codes are known to be
// able to fill it: when the requested output is longer than the codes
// could expand to, the stream is replayed without output, so a hostile
// length costs no memory and still gets the error the full decode would
// report.
func decompressSet(codes []Code, cfg Config, pre *Preload, width, patterns int, rec *telemetry.Recorder) (*bitvec.CubeSet, error) {
	if err := checkPreload(cfg, pre); err != nil {
		return nil, err
	}
	if width < 0 {
		return nil, fmt.Errorf("core: negative output length %d", width)
	}
	if patterns < 0 {
		return nil, fmt.Errorf("core: negative pattern count %d", patterns)
	}
	slot := cfg.PaddedWidth(width)
	outBits := 0
	if patterns > 0 {
		outBits = (patterns-1)*slot + width
	}
	if len(codes) == 0 {
		if outBits != 0 {
			return nil, fmt.Errorf("core: empty code stream for %d output bits", outBits)
		}
		return bitvec.MakeCubeSet(width, patterns), nil
	}

	// n codes add at most n entries.
	d, err := preloadedDict(cfg, pre, len(codes), nil)
	if err != nil {
		return nil, err
	}
	defer releaseDict(d)
	// The decompressor only replays adds — it never asks for a child —
	// so the dictionary can skip child-index maintenance entirely. Set
	// after the preload: installing it still builds the index (preload
	// verifies prefix-closure through lookupChild).
	d.noChildIndex = true
	var out *bitvec.CubeSet
	var sink *cubeSink
	if outBits <= cfg.MaxOutputBits(len(codes), pre.longest()) {
		out = bitvec.MakeCubeSet(width, patterns)
		sink = newCubeSink(out, slot)
	}
	produced, err := d.decode(codes, sink, rec)
	if err != nil {
		return nil, err
	}
	if produced < outBits {
		return nil, fmt.Errorf("core: code stream produced %d bits, need %d", produced, outBits)
	}
	if produced-outBits >= cfg.CharBits {
		return nil, fmt.Errorf("core: code stream produced %d bits, more than a character beyond %d", produced, outBits)
	}
	if out == nil {
		invariant.Violatef("core: %d codes produced %d bits, above MaxOutputBits", len(codes), produced)
	}
	for _, c := range out.Cubes {
		val, care := c.Planes()
		markSpecified(val, care, width)
	}
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
// loop, shared by decompression (out = the sink over the output cubes)
// and Train's dictionary rebuild (out = nil) — and returns the
// number of output bits the codes expand to. Per code it applies the
// pending dictionary add, resolves the not-yet-defined case (Figure 4f)
// and checks the stream; only the final fetch-and-write step depends on
// the configuration: one packed-string load when the dictionary keeps
// the str column, a parent walk otherwise. When rec is Tracing, each
// code is reported as one EventDecompressStep.
func (d *dict) decode(codes []Code, out *cubeSink, rec *telemetry.Recorder) (int, error) {
	cc := d.cfg.CharBits
	packed := len(d.str) != 0
	tracing := rec.Tracing()
	prev := noCode
	var scratch []uint64
	if out == nil {
		out = newCubeSink(nil, 0)
	}
	// Loop-local mirrors of the sink's cursor: a string almost always
	// lands inside the current cube, and that case runs on these alone.
	// The sink itself runs only when a string reaches the end of a cube.
	// Past the last cube val is nil, so writes drop and off just counts.
	val, off, slot := out.val, 0, out.slot
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

		nb := n * cc
		if off+nb < off { // overflow guard
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
		case packed && off+nb < slot:
			orBits(val, off, d.str[c])
			off += nb
		case packed:
			off = out.put(d.str[c], nb, off)
			val, slot = out.val, out.slot
		case val == nil:
			off += nb // no output to write: count only
		default:
			scratch = d.stringOf(c, scratch[:0])
			for _, ch := range scratch {
				if off+cc < slot {
					orBits(val, off, ch)
					off += cc
				} else {
					off = out.put(ch, cc, off)
					val, slot = out.val, out.slot
				}
			}
		}
		prev = c
	}
	return out.base + off, nil
}

// cubeSink is the decoder's output stage, the Fig. 5 shift into the scan
// chains: it places each decoded string straight into the value planes
// of a cube set. Cube k holds bits [k·slot, k·slot+width) of the decoded
// stream, and the slot−width pad bits after it round the pattern up to a
// character boundary. A cube boundary is therefore always a character
// boundary: a string is split there, its pad bits land past the width
// (markSpecified clips them), and the rest goes to the next cube. Bits
// past the last cube are dropped, but still counted, so the decoder's
// length check can report them.
type cubeSink struct {
	cubes []*bitvec.Vector
	k     int      // current cube
	base  int      // stream position of cube k's slot
	slot  int      // padded width of a cube; MaxInt past the last cube
	val   []uint64 // cube k's value plane; nil past the last cube
}

// newCubeSink returns a sink at the start of cs, whose cubes take slot
// bits of the stream each. A nil cs is a sink with no cubes.
func newCubeSink(cs *bitvec.CubeSet, slot int) *cubeSink {
	o := &cubeSink{slot: slot}
	if cs != nil && slot > 0 {
		o.cubes = cs.Cubes
	}
	o.enter()
	return o
}

// enter makes cube k current, or moves past the last cube.
func (o *cubeSink) enter() {
	if o.k < len(o.cubes) {
		o.val, _ = o.cubes[o.k].Planes()
		return
	}
	o.slot, o.val = math.MaxInt, nil
}

// put writes the low n bits of s, n in [1,64] and s zero above them,
// at bit off of the current cube's slot, moving on to the next cube
// where the slot ends, and returns the offset after them.
func (o *cubeSink) put(s uint64, n, off int) int {
	for {
		room := o.slot - off
		if n < room {
			orBits(o.val, off, s)
			return off + n
		}
		orBits(o.val, off, s&(^uint64(0)>>uint(64-room)))
		s >>= uint(room) // a shift by 64 yields 0
		n -= room
		o.base += o.slot
		o.k++
		o.enter()
		off = 0
		if n == 0 {
			return 0
		}
	}
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

package core

import (
	"context"
	"fmt"
	"math/bits"

	"lzwtc/internal/bitio"
	"lzwtc/internal/bitvec"
	"lzwtc/internal/telemetry"
)

// Stats summarizes one compression run.
type Stats struct {
	InputBits      int // input length: patterns × padded width for a set, Len for a bare stream
	Chars          int // characters consumed (⌈Width/C_C⌉ per pattern)
	CodesEmitted   int // total codes in the output
	CompressedBits int // CodesEmitted * C_E
	LiteralCodes   int // emitted codes in the literal range
	StringCodes    int // emitted codes in the dictionary range
	DictEntries    int // string entries created (net of resets)
	DictResets     int // FullReset occurrences
	MaxMatchChars  int // longest emitted string, in characters
	MaxEntryChars  int // longest dictionary string created, in characters
	ResidualFills  int // characters concretized by the fill policy
	DynamicFills   int // X-laden characters concretized by a dictionary walk
}

// Ratio returns the compression ratio (1 - compressed/original) in [0,1].
// Negative values indicate expansion. Empty runs return 0; consumers
// that must distinguish "no compression" from "no input" check Empty
// (telemetry run records carry it as an explicit field).
func (s Stats) Ratio() float64 {
	if s.InputBits == 0 {
		return 0
	}
	return 1 - float64(s.CompressedBits)/float64(s.InputBits)
}

// Empty reports whether the run consumed no input, the case where
// Ratio's 0 means "nothing happened" rather than "no size change".
func (s Stats) Empty() bool { return s.InputBits == 0 }

// Result is a compressed test stream: the code sequence plus everything
// needed to invert it.
type Result struct {
	Cfg       Config
	Codes     []Code
	InputBits int
	Stats     Stats
}

// Pack serializes the code sequence as fixed-width C_E-bit codes, MSB
// first — exactly the bit stream the ATE would feed the decompressor.
func (r *Result) Pack() []byte {
	return bitio.AppendCodes(nil, r.Codes, r.Cfg.CodeBits())
}

// unpackCodes parses n fixed-width codes from a packed stream.
func unpackCodes(data []byte, n int, cfg Config) ([]Code, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("core: negative code count %d", n)
	}
	cb := cfg.CodeBits()
	if have := 8 * len(data) / cb; n > have {
		return nil, fmt.Errorf("core: truncated code stream at code %d: %w", have, bitio.ErrUnexpectedEOF)
	}
	codes := make([]Code, n)
	if err := bitio.ReadCodes(codes, data, cb); err != nil {
		return nil, err
	}
	return codes, nil
}

// TraceEntry describes a dictionary entry creation in a trace.
type TraceEntry struct {
	Code Code
	Str  string // the entry's uncompressed bits
}

// TraceEvent reports one compressor step, mirroring the columns of the
// paper's Figure 3 (Buffer, Input, Output, dictionary action).
type TraceEvent struct {
	Step      int
	Buffer    string // contents of the Buffer memory element ("2" or bits)
	BufferStr string // uncompressed bits the buffer represents
	Input     string // current input character after X assignment ("" at end)
	RawInput  string // current input character as read (may contain X)
	Emitted   *Code  // code appended to the compressed output, if any
	NewEntry  *TraceEntry
}

// String renders the event as one Figure 3 row, for human-readable
// event sinks (the JSONL sink marshals the struct itself).
func (ev TraceEvent) String() string {
	em, ne := "-", "-"
	if ev.Emitted != nil {
		em = fmt.Sprintf("%d", *ev.Emitted)
	}
	if ev.NewEntry != nil {
		ne = fmt.Sprintf("%d=%s", ev.NewEntry.Code, ev.NewEntry.Str)
	}
	return fmt.Sprintf("step=%d buffer=%s(%s) in=%s raw=%s out=%s new=%s",
		ev.Step, ev.Buffer, ev.BufferStr, ev.Input, ev.RawInput, em, ne)
}

// Compress compresses a three-valued stream under cfg. The stream is a
// one-cube set, so its InputBits is its own length rather than the
// padded one.
func Compress(stream *bitvec.Vector, cfg Config) (*Result, error) {
	return CompressWithPreload(stream, cfg, nil)
}

// compressInternal is the one compress body. It reads characters
// straight from the cube set's plane words, cube by cube: each cube is
// ⌈Width/C_C⌉ characters, and bits at and past Width read as X, so a
// cube's pad bits stay free for dynamic assignment exactly as in the
// paper's pattern-by-pattern scan-in stream, where every scan vector
// starts on a character boundary. InputBits is the padded volume. The
// dictionary starts from pre (nil is a cold start).
func compressInternal(ctx context.Context, cs *bitvec.CubeSet, cfg Config, pre *Preload, rec *telemetry.Recorder) (*Result, error) {
	cc := cfg.CharBits
	width := cs.Width
	slot := cfg.PaddedWidth(width)
	res := &Result{Cfg: cfg, InputBits: slot * len(cs.Cubes)}
	res.Stats.InputBits = res.InputBits
	nChars := res.InputBits / cc
	if nChars == 0 {
		recordCompressRun(rec, res.Stats)
		return res, nil
	}
	for i, c := range cs.Cubes {
		if c.Len() != width {
			return nil, fmt.Errorf("core: cube %d has width %d, set width %d", i, c.Len(), width)
		}
	}
	fullMask := uint64(1)<<uint(cc) - 1
	_, dsp := rec.StartSpan(ctx, SpanDictBuild)
	// A run of nChars characters adds fewer than nChars entries.
	d, err := preloadedDict(cfg, pre, nChars, rec)
	dsp.End()
	if err != nil {
		return nil, err
	}
	defer releaseDict(d)
	_, msp := rec.StartSpan(ctx, SpanMatchLoop)
	e := &encoder{cfg: cfg, d: d, rec: rec,
		m: newCompressMetrics(rec, cfg), tracing: rec.Tracing(), fullMask: fullMask}

	// Step a of Figure 3: the first message character initializes Buffer.
	val, care := cs.Cubes[0].Chunk(0, cc)
	first := e.fill(val, care)
	if care != fullMask {
		res.Stats.ResidualFills++
	}
	buffer := Code(first)
	// bufLen mirrors d.len(buffer) without the dictionary load: a match
	// extends the string by one character, a miss restarts from a
	// one-character literal.
	bufLen := 1
	e.traceStep(buffer, cs.Cubes[0], 0, nil, nil)

	tieOldest := cfg.Tie == TieOldest
	// Loop-local mirrors of the result fields the hot path touches every
	// character: appending through res.Codes and bumping res.Stats fields
	// through the pointer defeats register allocation; these live in
	// registers and are written back once after the loop. Codes go into
	// the dictionary's scratch column, which the arena recycles, and
	// Result.Codes is an exact copy of the emitted ones.
	codes := d.emit[:0]
	var dynFills, resFills, dictEntries, maxEntry, maxMatch, litCodes, strCodes int
	resFills = res.Stats.ResidualFills // first char may have residual-filled
	maxChars, dictSize := d.maxChars, d.cfg.DictSize
	direct := d.directBlocks
	// The per-character chunk extraction is written out against the raw
	// plane words (same contract as Vector.Chunk: bit pos+j at result bit
	// j, X past the end). Every iteration of the match loop pays it, and
	// the call + re-validation overhead of Chunk measurably shows next to
	// the bit-sliced child kernel. pos < Width holds for every character
	// start, so only the high word needs a bounds check; a shift by 64
	// when off == 0 drops out as zero in Go. The walk starts at cube 0's
	// second character.
	pos := cc
	for _, cube := range cs.Cubes {
		valw, carew := cube.Planes()
		for ; pos < width; pos += cc {
			w, off := pos>>6, uint(pos&63)
			val := valw[w] >> off & fullMask
			care := carew[w] >> off & fullMask
			if off+uint(cc) > 64 {
				// Straddling word boundary — never taken when cc divides 64.
				var hv, hc uint64
				if w+1 < len(valw) {
					hv, hc = valw[w+1], carew[w+1]
				}
				val |= hv << (64 - off) & fullMask
				care |= hc << (64 - off) & fullMask
			}
			// Dispatch straight to the matcher arm: findChild is only the
			// exact-vs-masked split plus the oracle cross-check, and its call
			// frame shows up at this loop's query rate. Oracle builds run the
			// same dispatch and check its answer afterwards.
			var child Code
			var ok bool
			if care == fullMask {
				child, ok = d.lookupChild(buffer, val)
			} else if tieOldest {
				// TieOldest fast arms, sharing one chain-header load. All-X
				// characters resolve positionally from the header alone and
				// don't flip the dictionary into eager plane maintenance;
				// single-block chains (the overwhelming shape) run the
				// bit-sliced kernel right here, skipping the call. Longer
				// chains and pre-sync dictionaries take the full path.
				ch := d.chain[buffer]
				if ch.count == 0 || val&^care != 0 {
					// no children, or val demands bits outside its care mask
				} else if care == 0 {
					child, ok = ch.first, true
				} else if d.anyMasked && int(ch.count) <= blockLanes {
					// Under the direct block layout the plane and lane-code
					// addresses come from the code itself, so these loads issue
					// in parallel with the chain-header load above instead of
					// chained behind it.
					b := int(ch.head)
					if direct {
						b = int(buffer)
					}
					if lanes := d.blockMatch(b, val, care, int(ch.count)); lanes != 0 {
						child, ok = d.blkCodes[b*blockLanes+bits.TrailingZeros64(lanes)], true
					}
				} else {
					child, ok = d.findChildMasked(buffer, val, care, fullMask)
				}
			} else {
				child, ok = d.findChildMasked(buffer, val, care, fullMask)
			}
			if dictOracle {
				d.checkRef(buffer, val, care, fullMask, child, ok)
			}
			if ok {
				// Dynamic don't-care assignment: the X bits of this character
				// are bound to the child's character, extending the match.
				if care != fullMask {
					dynFills++
				}
				buffer = child
				bufLen++
				if e.tracing {
					e.traceStep(buffer, cube, pos, nil, nil)
				}
				continue
			}
			// No continuation: emit Buffer, concretize the character residually,
			// record the new dictionary entry, restart from the literal.
			codes = append(codes, buffer)
			if bufLen > maxMatch {
				maxMatch = bufLen
			}
			if buffer < d.firstCode {
				litCodes++
			} else {
				strCodes++
			}
			if m := e.m; m != nil {
				m.observeEmit(bufLen, int(d.next-d.firstCode))
			}
			// FillRepeat's chain bit is the previous character's top bit, which
			// is always Buffer's last character's top bit (after a miss, Buffer
			// is the literal code of the concretized character, whose lastChar
			// is itself). Refreshing it here, once per emitted code, keeps the
			// matched fast path free of a cold lastChar load per character.
			e.lastBit = d.lastChar[buffer] >> uint(cc-1) & 1
			concrete := e.fill(val, care)
			if care != fullMask {
				resFills++
			}
			// Dispatch the add directly: an in-budget add into a non-full
			// dictionary (the overwhelming case between resets) goes straight
			// to commitAdd; the policy edges (length cap, FullFreeze, reset,
			// parent invalidation) stay behind addWithLen.
			var newCode Code
			added := false
			if bufLen < maxChars && int(d.next) < dictSize {
				newCode = d.commitAdd(buffer, concrete)
				added = true
			} else {
				newCode, added = d.addWithLen(buffer, concrete, bufLen)
			}
			var newEntry *TraceEntry
			if added {
				dictEntries++
				if n := bufLen + 1; n > maxEntry {
					maxEntry = n
				}
				if e.tracing {
					newEntry = &TraceEntry{Code: newCode, Str: stringBits(d, newCode, cc)}
				}
			}
			buffer = Code(concrete)
			bufLen = 1
			if e.tracing {
				// Taking the emitted code's address here would make it escape
				// into traceStep on every iteration; only traced runs pay it.
				emitted := codes[len(codes)-1]
				e.traceStep(buffer, cube, pos, &emitted, newEntry)
			}
		}
		pos = 0
	}
	// Figure 3k: the final Buffer completes the compressed output.
	codes = append(codes, buffer)
	if bufLen > maxMatch {
		maxMatch = bufLen
	}
	if buffer < d.firstCode {
		litCodes++
	} else {
		strCodes++
	}
	if m := e.m; m != nil {
		m.observeEmit(bufLen, int(d.next-d.firstCode))
		m.flush()
	}
	res.Codes = make([]Code, len(codes))
	copy(res.Codes, codes)
	d.emit = codes[:0]
	res.Stats.DynamicFills += dynFills
	res.Stats.ResidualFills = resFills
	res.Stats.DictEntries += dictEntries
	if maxEntry > res.Stats.MaxEntryChars {
		res.Stats.MaxEntryChars = maxEntry
	}
	if maxMatch > res.Stats.MaxMatchChars {
		res.Stats.MaxMatchChars = maxMatch
	}
	res.Stats.LiteralCodes += litCodes
	res.Stats.StringCodes += strCodes
	if e.tracing {
		last := codes[len(codes)-1]
		e.traceStep(buffer, nil, 0, &last, nil)
	}

	res.Stats.Chars = nChars
	res.Stats.CodesEmitted = len(res.Codes)
	res.Stats.CompressedBits = len(res.Codes) * cfg.CodeBits()
	res.Stats.DictResets = d.resets
	msp.End(telemetry.F("chars", nChars), telemetry.F("codes", len(res.Codes)))
	recordCompressRun(rec, res.Stats)
	return res, nil
}

type encoder struct {
	cfg      Config
	d        *dict
	rec      *telemetry.Recorder
	m        *compressMetrics
	tracing  bool
	fullMask uint64
	lastBit  uint64
	step     int
}

// fill concretizes a three-valued character per the residual fill policy,
// branch-free over the character's bits. Bit j of the character is stream
// bit pos+j, so ascending bit order is stream order — what FillRepeat's
// lastBit chain is defined over: each X bit copies the concretized bit
// below it, and lastBit always ends as the character's top bit.
//
// Chunk guarantees val is 0 wherever care is 0, so FillZero is val
// itself and FillOne just ORs in the X positions. FillRepeat is a
// carry-propagation smear: widen by one bit (a virtual cared position -1
// holding the incoming lastBit), then for each run of X positions above
// a cared bit, adding the cared bit's value into the run's ones either
// ripples them to zero (value 1 — re-set them via the OR with vp) or
// leaves them set (value 0 — cleared by the &^), yielding exactly
// "repeat the nearest specified bit below".
func (e *encoder) fill(val, care uint64) uint64 {
	cc := uint(e.cfg.CharBits)
	var out uint64
	switch e.cfg.Fill {
	case FillZero:
		out = val
	case FillOne:
		out = val | (e.fullMask &^ care)
	default: // FillRepeat
		wmask := e.fullMask<<1 | 1
		vp := val<<1 | e.lastBit
		gaps := ^(care<<1 | 1) & wmask
		spread := gaps &^ (gaps + vp<<1)
		out = (vp | spread) >> 1 & e.fullMask
	}
	e.lastBit = out >> (cc - 1) & 1
	return out
}

// traceStep emits one Figure 3 step as an EventCompressStep telemetry
// event. raw and pos locate the character just consumed: bit pos of
// cube raw; a nil raw marks the final flush step, which has no input
// character. The whole rendering — buffer labels, uncompressed strings,
// the raw three-valued character — is gated on tracing, so untraced runs
// never build a single step string.
func (e *encoder) traceStep(buffer Code, raw *bitvec.Vector, pos int, emitted *Code, entry *TraceEntry) {
	if !e.tracing {
		return
	}
	cc := e.cfg.CharBits
	bufStr := stringBits(e.d, buffer, cc)
	ev := TraceEvent{
		Step:      e.step,
		Buffer:    bufferLabel(e.d, buffer, cc),
		BufferStr: bufStr,
		Emitted:   emitted,
		NewEntry:  entry,
	}
	if raw != nil {
		ev.RawInput = rawChar(raw, pos, cc)
		ev.Input = bufStr[len(bufStr)-cc:]
	}
	e.rec.Emit(EventCompressStep, telemetry.F("event", ev))
	e.step++
}

// charBits renders a character value as C_C bits in stream order
// (stream-earliest bit first).
func charBits(v uint64, cc int) string {
	b := make([]byte, cc)
	for j := 0; j < cc; j++ {
		b[j] = '0' + byte(v>>uint(j)&1)
	}
	return string(b)
}

// stringBits renders the uncompressed bits of a code in stream order.
func stringBits(d *dict, c Code, cc int) string {
	chars := d.stringOf(c, nil)
	out := make([]byte, 0, len(chars)*cc)
	for _, ch := range chars {
		out = append(out, charBits(ch, cc)...)
	}
	return string(out)
}

// bufferLabel renders a buffer for traces: literals as their bits,
// string codes as the decimal code, matching Figure 3's convention.
func bufferLabel(d *dict, c Code, cc int) string {
	if c < d.firstCode {
		return charBits(uint64(c), cc)
	}
	return fmt.Sprintf("%d", c)
}

// rawChar renders the three-valued character at bit pos of cube v, one
// byte per trit straight from the value — no per-bit string. Bits past
// the cube's width are its pad bits and read as X.
func rawChar(v *bitvec.Vector, pos, cc int) string {
	b := make([]byte, cc)
	for j := 0; j < cc; j++ {
		if pos+j >= v.Len() {
			b[j] = 'X'
			continue
		}
		b[j] = v.Get(pos + j).Byte()
	}
	return string(b)
}

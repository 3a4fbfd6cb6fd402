// Package decomp is a cycle-accurate model of the paper's hardware LZW
// decompressor (Section 5.1, Figure 5).
//
// Structure, mirroring the figure:
//
//   - a C_E-bit input shifter fed one compressed bit per *tester* cycle,
//   - a finite state machine clocked by the faster *internal* clock
//     (an integer multiple of the tester clock),
//   - the dictionary memory — N words of C_MLEN+C_MDATA bits, each entry
//     holding its complete uncompressed string so any code decodes with a
//     single memory read (the paper's answer to the stack-based software
//     scheme of reference [24]),
//   - the C_MLAST register holding the previously decoded string, used to
//     build new entries and to resolve the not-yet-written-code case, and
//   - a C_D output shifter driving the scan chain one bit per internal
//     cycle.
//
// The model charges one internal cycle per FSM state transition, one per
// dictionary read or write, and one per output bit shifted. The input
// shifter is single-buffered: the next code's bits arrive only while the
// FSM is back in its LOAD state, so the per-code download cost is
// C_E tester cycles plus (string length + constants)/ratio — the
// behaviour behind Tables 2 and 6, where improvement approaches the
// compression ratio from below as the internal clock speeds up.
package decomp

import (
	"fmt"

	"lzwtc/internal/bitio"
	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/mem"
	"lzwtc/internal/telemetry"
)

// Stats reports the cycle accounting of one decompression run.
type Stats struct {
	InternalCycles int // total internal clock cycles to the last scan bit
	TesterCycles   int // ceil(InternalCycles / ClockRatio)
	LoadStalls     int // cycles the FSM waited for compressed input
	DecodeCycles   int
	WriteCycles    int
	ShiftCycles    int // one per scan bit emitted
	MemReads       int
	MemWrites      int
	OutputBits     int
	CodesDecoded   int
}

// Event is one code-level step of the data path, carried under the
// "event" field of an EventStep record (Figure 5's narrative is built
// from these).
type Event struct {
	Cycle  int    // internal cycle at which the event completed
	Kind   string // "load", "decode", "write", "shift"
	Detail string
}

// Decompressor is the hardware model. Create one per run with New.
type Decompressor struct {
	cfg         core.Config
	ratio       int
	shared      *mem.Shared
	rec         *telemetry.Recorder
	patternBits int

	// registers
	next      core.Code // next free dictionary location
	cmlast    []uint64  // chars of the previously decoded string
	cmlastLen int
	haveLast  bool

	stats Stats
}

// New builds a decompressor clocked ratio times faster than the tester,
// with its dictionary in the given shared memory (the Figure 6 reuse).
// The configuration must be hardware-realizable: bounded entries and the
// freeze dictionary-full policy.
func New(cfg core.Config, ratio int, shared *mem.Shared) (*Decompressor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.EntryBits == 0 {
		return nil, fmt.Errorf("decomp: unbounded entries have no hardware realization (set EntryBits)")
	}
	if cfg.Full != core.FullFreeze {
		return nil, fmt.Errorf("decomp: hardware dictionary supports only the freeze policy")
	}
	if ratio < 1 {
		return nil, fmt.Errorf("decomp: clock ratio %d must be >= 1", ratio)
	}
	ram := shared.RAM()
	if ram.Words() < cfg.DictSize {
		return nil, fmt.Errorf("decomp: memory has %d words, dictionary needs %d", ram.Words(), cfg.DictSize)
	}
	if ram.Width() < cfg.LenBits()+cfg.EntryBits {
		return nil, fmt.Errorf("decomp: memory word %d bits, entry needs %d", ram.Width(), cfg.LenBits()+cfg.EntryBits)
	}
	return &Decompressor{
		cfg:    cfg,
		ratio:  ratio,
		shared: shared,
		next:   core.Code(cfg.Literals()),
		cmlast: make([]uint64, cfg.MaxChars()),
	}, nil
}

// SetRecorder installs a telemetry recorder: Run folds its Stats into
// the recorder's registry and emits run (and, with SetPatternBits,
// per-pattern) event records, and, when the recorder is Tracing, one
// EventStep record per data-path step. A nil recorder — the default —
// keeps the cycle loop on the uninstrumented path.
func (d *Decompressor) SetRecorder(rec *telemetry.Recorder) { d.rec = rec }

// SetPatternBits sets the scan-pattern width so Run can charge internal
// cycles, memory reads, and load stalls to individual patterns
// (eventPattern records plus the pattern-cycles histogram). Zero — the
// default — disables per-pattern accounting.
func (d *Decompressor) SetPatternBits(w int) { d.patternBits = w }

// Preload writes a warm-start dictionary into the embedded memory
// through the LZW port before decompression begins — the amortization
// the paper's conclusion hints at (the dictionary written once, every
// later session starting warm). The compressor must have used the same
// preload (core.CompressWithPreload). Must be called before Run.
func (d *Decompressor) Preload(pre *core.Preload) error {
	if d.stats.CodesDecoded != 0 || d.haveLast {
		return fmt.Errorf("decomp: Preload must precede Run")
	}
	cc := d.cfg.CharBits
	maxChars := d.cfg.MaxChars()
	for i, s := range pre.Strings {
		if len(s) < 2 || len(s) > maxChars {
			return fmt.Errorf("decomp: preload string %d has %d chars (bound %d)", i, len(s), maxChars)
		}
		if int(d.next) >= d.cfg.DictSize {
			return fmt.Errorf("decomp: preload overflows the dictionary at string %d", i)
		}
		word := make([]uint64, (d.cfg.LenBits()+d.cfg.EntryBits+63)/64)
		setField(word, 0, d.cfg.LenBits(), uint64(len(s)))
		for k, ch := range s {
			setField(word, d.cfg.LenBits()+k*cc, cc, ch)
		}
		if err := d.shared.Write(mem.SrcLZW, int(d.next), word); err != nil {
			return err
		}
		d.stats.MemWrites++
		d.next++
	}
	return nil
}

// MemoryGeometry returns the dictionary geometry (words x width) a
// configuration needs, for provisioning the shared memory. It is a
// pure sizing helper: it touches no bit streams, and New re-validates
// the same configuration before any memory traffic happens.
//
//lzwtcvet:ignore configbeforeuse sizing helper; New validates before use
func MemoryGeometry(cfg core.Config) (words, width int) {
	return cfg.DictSize, cfg.LenBits() + cfg.EntryBits
}

// Run decompresses a packed code stream (as produced by core's
// Result.Pack) of nCodes codes, emitting outBits scan bits. The shared
// memory port must already be selected for the LZW source.
//
// It returns the fully specified scan stream and the cycle statistics.
func (d *Decompressor) Run(packed []byte, nCodes, outBits int) (*bitvec.Vector, *Stats, error) {
	rd := bitio.NewReader(packed, -1)
	cc := d.cfg.CharBits
	ce := d.cfg.CodeBits()
	maxChars := d.cfg.MaxChars()
	out := bitvec.New(outBits)

	// Input shifter state: bits become available on tester edges.
	totalInBits := nCodes * ce
	delivered := 0 // bits moved from the ATE into the input shifter
	avail := 0     // bits currently latched and unconsumed

	cycle := 0
	pos := 0 // output write position (bits)
	var scratch []uint64
	meter := newPatternMeter(d.rec, d.patternBits)

	// The input shifter is single-buffered, exactly as Figure 5 draws it:
	// "the process starts when C_E is fully loaded into its input
	// shifter". Compressed bits arrive on tester edges only while the FSM
	// is in the LOAD state; decode, dictionary and output-shift cycles do
	// not overlap the next code's delivery. This is what gives Table 2
	// its shape — improvement ≈ compression ratio − 1/clockRatio — rather
	// than saturating at the compression ratio.
	loading := false

	// tick advances one internal cycle, delivering input on tester edges
	// while the input shifter owns the stream.
	tick := func() {
		if loading && cycle%d.ratio == 0 && delivered < totalInBits {
			delivered++
			avail++
		}
		cycle++
	}

	// Step details are rendered only when the recorder is Tracing, so
	// an untraced run formats no strings.
	tracing := d.rec.Tracing()
	emit := func(kind, detail string) {
		d.rec.Emit(EventStep, telemetry.F("event", Event{Cycle: cycle, Kind: kind, Detail: detail}))
	}

	for codeIdx := 0; codeIdx < nCodes; codeIdx++ {
		// LOAD: wait until C_E bits are in the input shifter.
		loading = true
		for avail < ce {
			d.stats.LoadStalls++
			tick()
		}
		loading = false
		v, err := rd.ReadBits(ce)
		if err != nil {
			return nil, nil, fmt.Errorf("decomp: truncated code stream at code %d: %w", codeIdx, err)
		}
		avail -= ce
		code := core.Code(v)
		if tracing {
			emit("load", fmt.Sprintf("code %d latched", code))
		}

		// Mirror the software decoder: decide whether an entry will be
		// written before interpreting the code (freeze policy only, so
		// the decision is a pure predicate).
		pending := d.haveLast && d.cmlastLen+1 <= maxChars && int(d.next) < d.cfg.DictSize

		// DECODE: one cycle; a dictionary code costs one memory read.
		var chars []uint64
		switch {
		case int(code) < d.cfg.Literals():
			chars = append(scratch[:0], uint64(code))
		case code < d.next:
			word, err := d.shared.Read(mem.SrcLZW, int(code), nil)
			if err != nil {
				return nil, nil, err
			}
			d.stats.MemReads++
			n := int(getField(word, 0, d.cfg.LenBits()))
			if n < 1 || n > maxChars {
				return nil, nil, fmt.Errorf("decomp: corrupt entry length %d at code %d", n, code)
			}
			chars = scratch[:0]
			for k := 0; k < n; k++ {
				chars = append(chars, getField(word, d.cfg.LenBits()+k*cc, cc))
			}
			if tracing {
				emit("decode", fmt.Sprintf("dictionary read %d: %d chars", code, n))
			}
		case code == d.next && pending:
			// Figure 4f in hardware: the entry is not in memory yet; the
			// data-merging mux assembles it from C_MLAST and its own
			// first character.
			chars = append(append(scratch[:0], d.cmlast[:d.cmlastLen]...), d.cmlast[0])
			if tracing {
				emit("decode", fmt.Sprintf("merge C_MLAST for not-yet-written code %d", code))
			}
		default:
			return nil, nil, fmt.Errorf("decomp: undefined code %d at position %d (next free %d)", code, codeIdx, d.next)
		}
		scratch = chars
		d.stats.DecodeCycles++
		tick()

		// WRITE: append C_MLAST + first char of the current string to the
		// dictionary (one memory write).
		if pending {
			word := make([]uint64, (d.cfg.LenBits()+d.cfg.EntryBits+63)/64)
			setField(word, 0, d.cfg.LenBits(), uint64(d.cmlastLen+1))
			for k := 0; k < d.cmlastLen; k++ {
				setField(word, d.cfg.LenBits()+k*cc, cc, d.cmlast[k])
			}
			setField(word, d.cfg.LenBits()+d.cmlastLen*cc, cc, chars[0])
			if err := d.shared.Write(mem.SrcLZW, int(d.next), word); err != nil {
				return nil, nil, err
			}
			d.stats.MemWrites++
			d.stats.WriteCycles++
			if tracing {
				emit("write", fmt.Sprintf("entry %d <- C_MLAST(%d chars)+first", d.next, d.cmlastLen))
			}
			d.next++
			tick()
		}

		// SHIFT: one scan bit per internal cycle through the C_D output
		// shifter.
		for _, ch := range chars {
			for b := 0; b < cc; b++ {
				if pos < outBits {
					out.Set(pos, bitvec.Bit(ch>>uint(b)&1))
				}
				pos++
				d.stats.ShiftCycles++
				tick()
			}
		}
		if tracing {
			emit("shift", fmt.Sprintf("%d bits to scan chain", len(chars)*cc))
		}

		// Update C_MLAST.
		d.cmlastLen = copy(d.cmlast[:cap(d.cmlast)], chars)
		d.cmlast = d.cmlast[:cap(d.cmlast)]
		d.haveLast = true
		d.stats.CodesDecoded++
		meter.observe(pos, cycle, &d.stats)
	}

	if pos < outBits {
		return nil, nil, fmt.Errorf("decomp: stream produced %d bits, need %d", pos, outBits)
	}
	if pos-outBits >= cc {
		return nil, nil, fmt.Errorf("decomp: stream produced %d bits, more than a character beyond %d", pos, outBits)
	}
	d.stats.InternalCycles = cycle
	d.stats.TesterCycles = (cycle + d.ratio - 1) / d.ratio
	d.stats.OutputBits = outBits
	st := d.stats
	recordRun(d.rec, d.ratio, st)
	return out, &st, nil
}

// getField extracts width bits starting at bit off from a little-endian
// limb array.
func getField(word []uint64, off, width int) uint64 {
	limb, sh := off/64, uint(off%64)
	v := word[limb] >> sh
	if sh != 0 && limb+1 < len(word) {
		v |= word[limb+1] << (64 - sh)
	}
	if width < 64 {
		v &= 1<<uint(width) - 1
	}
	return v
}

// setField stores width bits of val at bit off in a little-endian limb
// array.
func setField(word []uint64, off, width int, val uint64) {
	if width < 64 {
		val &= 1<<uint(width) - 1
	}
	limb, sh := off/64, uint(off%64)
	word[limb] = word[limb]&^(((1<<uint(width))-1)<<sh) | val<<sh
	if sh != 0 && width > 64-int(sh) {
		hi := width - (64 - int(sh))
		word[limb+1] = word[limb+1]&^((1<<uint(hi))-1) | val>>(64-sh)
	}
}

package decomp

import "lzwtc/internal/telemetry"

// Event kinds the decompressor model emits through a telemetry
// recorder.
const (
	EventRun     = "decomp.run"     // one summary record per Run
	EventPattern = "decomp.pattern" // one record per completed scan pattern
	EventStep    = "decomp.step"    // one Event per data-path step, only when Tracing
)

// Registry metric names for the hardware decompressor model. The cycle
// counters are the raw material of the paper's Tables 2 and 6 (download
// time vs. clock ratio); the utilization gauge is the fraction of
// internal cycles spent actually shifting scan bits.
const (
	MetricRuns           = "lzwtc_decomp_runs_total"
	MetricEmptyRuns      = "lzwtc_decomp_empty_runs_total"
	MetricInternalCycles = "lzwtc_decomp_internal_cycles_total"
	MetricTesterCycles   = "lzwtc_decomp_tester_cycles_total"
	MetricLoadStalls     = "lzwtc_decomp_load_stalls_total"
	MetricDecodeCycles   = "lzwtc_decomp_decode_cycles_total"
	MetricWriteCycles    = "lzwtc_decomp_write_cycles_total"
	MetricShiftCycles    = "lzwtc_decomp_shift_cycles_total"
	MetricMemReads       = "lzwtc_decomp_mem_reads_total"
	MetricMemWrites      = "lzwtc_decomp_mem_writes_total"
	MetricCodesDecoded   = "lzwtc_decomp_codes_decoded_total"
	MetricOutputBits     = "lzwtc_decomp_output_bits_total"
	MetricUtilization    = "lzwtc_decomp_utilization"
	MetricPatternCycles  = "lzwtc_decomp_pattern_cycles"
)

// PatternCycleBuckets returns histogram bounds for internal cycles per
// scan pattern. Spans the regimes of Table 2: a well-compressed pattern
// costs about its width in shift cycles; a stall-bound one costs
// C_E·ratio per code.
func PatternCycleBuckets() []float64 {
	return []float64{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536}
}

// Utilization returns the fraction of internal cycles spent shifting
// scan bits — the useful-work ratio at the chosen ATE clock ratio
// (1 means the output shifter never waited on loads or dictionary
// traffic). Empty runs return 0; check Empty to distinguish "no work"
// from "all stall".
func (s Stats) Utilization() float64 {
	if s.InternalCycles == 0 {
		return 0
	}
	return float64(s.ShiftCycles) / float64(s.InternalCycles)
}

// Empty reports whether the run decoded nothing, the case where the
// cycle counters' zeros mean "nothing happened" rather than "free".
func (s Stats) Empty() bool { return s.CodesDecoded == 0 && s.InternalCycles == 0 }

// recordRun folds a finished run's Stats into the recorder: aggregate
// counters, the utilization gauge, and one EventRun record. Zero-input
// runs are explicit — empty=true plus the empty-runs counter — rather
// than hiding behind Utilization's silent 0.
func recordRun(rec *telemetry.Recorder, ratio int, st Stats) {
	if !rec.Enabled() {
		return
	}
	if reg := rec.Registry(); reg != nil {
		reg.Counter(MetricRuns, "decompression runs").Inc()
		if st.Empty() {
			reg.Counter(MetricEmptyRuns, "zero-input decompression runs").Inc()
		}
		reg.Counter(MetricInternalCycles, "internal clock cycles").Add(int64(st.InternalCycles))
		reg.Counter(MetricTesterCycles, "tester clock cycles").Add(int64(st.TesterCycles))
		reg.Counter(MetricLoadStalls, "cycles stalled on compressed input").Add(int64(st.LoadStalls))
		reg.Counter(MetricDecodeCycles, "decode cycles").Add(int64(st.DecodeCycles))
		reg.Counter(MetricWriteCycles, "dictionary write cycles").Add(int64(st.WriteCycles))
		reg.Counter(MetricShiftCycles, "scan-bit shift cycles").Add(int64(st.ShiftCycles))
		reg.Counter(MetricMemReads, "dictionary memory reads").Add(int64(st.MemReads))
		reg.Counter(MetricMemWrites, "dictionary memory writes").Add(int64(st.MemWrites))
		reg.Counter(MetricCodesDecoded, "codes decoded").Add(int64(st.CodesDecoded))
		reg.Counter(MetricOutputBits, "scan bits emitted").Add(int64(st.OutputBits))
		reg.Gauge(MetricUtilization, "shift cycles / internal cycles, last run").Set(st.Utilization())
	}
	rec.Emit(EventRun,
		telemetry.F("empty", st.Empty()),
		telemetry.F("clock_ratio", ratio),
		telemetry.F("utilization", st.Utilization()),
		telemetry.F("stats", st),
	)
}

// patternMeter tracks per-pattern cycle and memory-read accounting
// during Run. A nil *patternMeter is the disabled path: one pointer
// check per decoded code.
type patternMeter struct {
	rec        *telemetry.Recorder
	hist       *telemetry.Histogram
	bits       int // scan bits per pattern
	done       int // patterns fully emitted
	lastCycle  int
	lastReads  int
	lastStalls int
}

func newPatternMeter(rec *telemetry.Recorder, patternBits int) *patternMeter {
	if !rec.Enabled() || patternBits <= 0 {
		return nil
	}
	var hist *telemetry.Histogram
	if reg := rec.Registry(); reg != nil {
		hist = reg.Histogram(MetricPatternCycles, "internal cycles per scan pattern", PatternCycleBuckets())
	}
	return &patternMeter{rec: rec, hist: hist, bits: patternBits}
}

// observe emits one EventPattern record per pattern boundary crossed by
// the output position, charging each pattern the cycles and memory
// reads accumulated since the previous boundary.
func (p *patternMeter) observe(pos, cycle int, st *Stats) {
	if p == nil {
		return
	}
	for p.done < pos/p.bits {
		cycles := cycle - p.lastCycle
		p.hist.Observe(float64(cycles))
		p.rec.Emit(EventPattern,
			telemetry.F("index", p.done),
			telemetry.F("internal_cycles", cycles),
			telemetry.F("mem_reads", st.MemReads-p.lastReads),
			telemetry.F("load_stalls", st.LoadStalls-p.lastStalls),
		)
		p.done++
		p.lastCycle = cycle
		p.lastReads = st.MemReads
		p.lastStalls = st.LoadStalls
	}
}

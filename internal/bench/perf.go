package bench

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
)

// This file is the single-stream performance harness behind `make
// bench-json`: a fixed grid of compressor workloads (character size ×
// don't-care density), measured as ns/char, MB/s and allocs/op for both
// compression and decompression. The grid is deterministic so reports
// from different revisions of the code are comparable point by point —
// the committed BENCH_*.json trajectory is built from exactly these
// cases, and the CI regression gate diffs a fresh run against it.

// perfSchema versions the report format; bump it when the JSON shape or
// the case grid changes incompatibly.
const perfSchema = "lzwtc-bench/2"

// DefaultPerfBits is the per-case stream length used by the committed
// trajectory: long enough to fill a 1024-code dictionary several times
// over (FullReset churn included), short enough that the whole grid runs
// in seconds.
const DefaultPerfBits = 1 << 17

// PerfCase is one point of the benchmark grid.
type PerfCase struct {
	Name     string  `json:"name"`
	CharBits int     `json:"char_bits"`
	DictSize int     `json:"dict_size"`
	XDensity float64 `json:"x_density"`
	// Gen selects the stream generator: "" (= "blocks") is the repeated
	// 96-bit block library; "chain" is the deep-sibling shape (a fixed
	// anchor character followed by a uniform random one), which drives a
	// single parent's child chain toward 2^C_C lanes and exercises the
	// multi-block match kernel the block library rarely reaches.
	Gen string `json:"gen,omitempty"`
	// EntryBits is C_MDATA; 0 (the square grid) is unbounded, which
	// decodes by the parent walk. The paper-default cases bound entries
	// to one 64-bit word and so decode through the packed-string column.
	EntryBits int `json:"entry_bits,omitempty"`
}

// Config returns the compressor configuration the case is measured
// under. FullReset keeps the dictionary churning on long streams (the
// reset path is part of what the harness times) and FillRepeat is the
// most expensive residual fill, so the numbers are conservative.
func (c PerfCase) Config() core.Config {
	return core.Config{
		CharBits:  c.CharBits,
		DictSize:  c.DictSize,
		EntryBits: c.EntryBits,
		Fill:      core.FillRepeat,
		Tie:       core.TieOldest,
		Full:      core.FullReset,
	}
}

// perfCases returns the fixed measurement grid: C_C ∈ {2,4,8} crossed
// with don't-care densities {0%, 50%, 90%}. The 90% column is the
// paper-realistic regime (Table 3 circuits run 35–93% X) and the hot
// one: nearly every lookup is X-laden.
func perfCases() []PerfCase {
	var cases []PerfCase
	for _, cc := range []int{2, 4, 8} {
		for _, x := range []float64{0, 0.5, 0.9} {
			cases = append(cases, PerfCase{
				Name:     fmt.Sprintf("cc%d_x%02d", cc, int(x*100)),
				CharBits: cc,
				DictSize: 1024,
				XDensity: x,
			})
		}
	}
	// Stress corners beyond the C_C × density square: near-total X
	// (nearly every query is all-X or single-bit-cared), a wide
	// word-straddling character over a dictionary past the direct block
	// layout's bound (the dense-arena kernel path), and two chain-heavy
	// shapes whose sibling chains cross 64-lane block boundaries. The
	// paper's default configuration (C_C=7, N=1024, C_MDATA=63) closes
	// the list: the only cases whose entries fit one word, so the only
	// ones that time the one-load packed-string decoder.
	cases = append(cases,
		PerfCase{Name: "cc8_x99", CharBits: 8, DictSize: 1024, XDensity: 0.99},
		PerfCase{Name: "cc12_x90", CharBits: 12, DictSize: 8192, XDensity: 0.9},
		PerfCase{Name: "cc8_chain50", CharBits: 8, DictSize: 1024, XDensity: 0.5, Gen: "chain"},
		PerfCase{Name: "cc8_chain90", CharBits: 8, DictSize: 1024, XDensity: 0.9, Gen: "chain"},
		PerfCase{Name: "cc7_e63_x50", CharBits: 7, DictSize: 1024, XDensity: 0.5, EntryBits: 63},
		PerfCase{Name: "cc7_e63_x90", CharBits: 7, DictSize: 1024, XDensity: 0.9, EntryBits: 63},
	)
	return cases
}

// Stream synthesizes the case's input per its generator (see
// PerfCase.Gen): block-structured repetition punctured to the case's X
// density, or the chain-heavy anchor shape. Fully deterministic per
// case.
func (c PerfCase) stream(totalBits int) *bitvec.Vector {
	rng := rand.New(rand.NewSource(int64(c.CharBits)*1000 + int64(c.XDensity*100)))
	if c.Gen == "chain" {
		return c.chainStream(rng, totalBits)
	}
	const nBlocks, blockBits = 24, 96
	blocks := make([][]bitvec.Bit, nBlocks)
	for i := range blocks {
		b := make([]bitvec.Bit, blockBits)
		for j := range b {
			if rng.Float64() < 0.3 {
				b[j] = bitvec.One
			}
		}
		blocks[i] = b
	}
	v := bitvec.New(totalBits)
	pos := 0
	for pos < totalBits {
		blk := blocks[rng.Intn(nBlocks)]
		for _, bit := range blk {
			if pos >= totalBits {
				break
			}
			if rng.Float64() >= c.XDensity {
				v.Set(pos, bit)
			}
			pos++
		}
	}
	return v
}

// chainStream emits [anchor, random-character] pairs punctured to the
// case's X density. Almost every two-character string starts at the
// fixed anchor, so the anchor literal's child chain fills toward 2^C_C
// lanes — sibling chains spanning multiple 64-lane plane blocks, the
// shape the square grid's block streams rarely produce.
func (c PerfCase) chainStream(rng *rand.Rand, totalBits int) *bitvec.Vector {
	cc := c.CharBits
	anchor := make([]bitvec.Bit, cc)
	for j := range anchor {
		if j%2 == 0 {
			anchor[j] = bitvec.One
		}
	}
	v := bitvec.New(totalBits)
	pos := 0
	for pos < totalBits {
		for j := 0; j < cc && pos < totalBits; j++ {
			if rng.Float64() >= c.XDensity {
				v.Set(pos, anchor[j])
			}
			pos++
		}
		for j := 0; j < cc && pos < totalBits; j++ {
			b := bitvec.Zero
			if rng.Intn(2) == 1 {
				b = bitvec.One
			}
			if rng.Float64() >= c.XDensity {
				v.Set(pos, b)
			}
			pos++
		}
	}
	return v
}

// PerfMeasurement is one direction's measured rates.
type PerfMeasurement struct {
	NsPerOp     float64 `json:"ns_per_op"`
	NsPerChar   float64 `json:"ns_per_char"`
	MBPerSec    float64 `json:"mb_per_s"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// PerfResult is one grid point's measurements.
type PerfResult struct {
	Case       PerfCase        `json:"case"`
	Chars      int             `json:"chars"`
	InputBits  int             `json:"input_bits"`
	Ratio      float64         `json:"ratio"`
	Compress   PerfMeasurement `json:"compress"`
	Decompress PerfMeasurement `json:"decompress"`
}

// PerfReport is the whole trajectory point: every grid case measured on
// one machine at one revision.
type PerfReport struct {
	Schema     string       `json:"schema"`
	GoVersion  string       `json:"go_version"`
	Generated  string       `json:"generated,omitempty"`
	StreamBits int          `json:"stream_bits"`
	Results    []PerfResult `json:"results"`
}

// RunPerf measures every grid case on streams of totalBits bits,
// spending at least minDur of timed iterations per direction per case.
func RunPerf(totalBits int, minDur time.Duration) (*PerfReport, error) {
	if totalBits <= 0 {
		totalBits = DefaultPerfBits
	}
	rep := &PerfReport{Schema: perfSchema, GoVersion: runtime.Version(), StreamBits: totalBits}
	for _, pc := range perfCases() {
		r, err := runPerfCase(pc, totalBits, minDur)
		if err != nil {
			return nil, fmt.Errorf("bench: case %s: %w", pc.Name, err)
		}
		rep.Results = append(rep.Results, r)
	}
	return rep, nil
}

func runPerfCase(pc PerfCase, totalBits int, minDur time.Duration) (PerfResult, error) {
	cfg := pc.Config()
	stream := pc.stream(totalBits)
	res, err := core.Compress(stream, cfg)
	if err != nil {
		return PerfResult{}, err
	}
	chars := res.Stats.Chars
	out := PerfResult{Case: pc, Chars: chars, InputBits: totalBits, Ratio: res.Stats.Ratio()}

	var opErr error
	comp := measure(minDur, func() {
		if _, e := core.Compress(stream, cfg); e != nil {
			opErr = e
		}
	})
	if opErr != nil {
		return PerfResult{}, opErr
	}
	out.Compress = finishMeasurement(comp, chars, totalBits)

	dec := measure(minDur, func() {
		if _, e := core.Decompress(res.Codes, cfg, res.InputBits); e != nil {
			opErr = e
		}
	})
	if opErr != nil {
		return PerfResult{}, opErr
	}
	out.Decompress = finishMeasurement(dec, chars, totalBits)
	return out, nil
}

// rawMeasure is the pre-normalization output of measure.
type rawMeasure struct {
	nsPerOp     float64
	allocsPerOp float64
}

// measure times op until at least minDur of work (and at least 3
// iterations) has accumulated, reporting mean wall time and mean heap
// allocations per call. One warmup call precedes timing so one-time
// lazy initialization never lands in the numbers.
func measure(minDur time.Duration, op func()) rawMeasure {
	op() // warmup
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for time.Since(start) < minDur || iters < 3 {
		op()
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return rawMeasure{
		nsPerOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		allocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(iters),
	}
}

func finishMeasurement(m rawMeasure, chars, inputBits int) PerfMeasurement {
	out := PerfMeasurement{NsPerOp: m.nsPerOp, AllocsPerOp: m.allocsPerOp}
	if chars > 0 {
		out.NsPerChar = m.nsPerOp / float64(chars)
	}
	if m.nsPerOp > 0 {
		bytes := float64(inputBits) / 8
		out.MBPerSec = bytes / (m.nsPerOp / 1e9) / 1e6
	}
	return out
}

// ComparePerf diffs a fresh report against a committed baseline: for
// every baseline case present in the fresh run, compress and decompress
// ns/char must each not exceed baseline*(1+tolerance). It returns one
// line per case (human-readable, benchstat-style old → new) and the list
// of failures.
func ComparePerf(baseline, fresh *PerfReport, tolerance float64) (lines []string, failures []string) {
	freshBy := map[string]PerfResult{}
	for _, r := range fresh.Results {
		freshBy[r.Case.Name] = r
	}
	for _, b := range baseline.Results {
		f, ok := freshBy[b.Case.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from fresh run", b.Case.Name))
			continue
		}
		comp := perfDelta(b.Compress, f.Compress)
		dec := perfDelta(b.Decompress, f.Decompress)
		lines = append(lines, fmt.Sprintf("%-11s compress %8.2f → %8.2f ns/char (%+6.1f%%)  decompress %7.2f → %7.2f ns/char (%+6.1f%%)",
			b.Case.Name, b.Compress.NsPerChar, f.Compress.NsPerChar, 100*comp,
			b.Decompress.NsPerChar, f.Decompress.NsPerChar, 100*dec))
		for _, d := range []struct {
			dir   string
			delta float64
		}{{"compress", comp}, {"decompress", dec}} {
			if d.delta > tolerance {
				failures = append(failures, fmt.Sprintf("%s: %s ns/char regressed %.1f%% (limit %.1f%%)",
					b.Case.Name, d.dir, 100*d.delta, 100*tolerance))
			}
		}
	}
	return lines, failures
}

// perfDelta is the fractional ns/char change from base to fresh; 0 when
// the baseline has no figure.
func perfDelta(base, fresh PerfMeasurement) float64 {
	if base.NsPerChar <= 0 {
		return 0
	}
	return fresh.NsPerChar/base.NsPerChar - 1
}

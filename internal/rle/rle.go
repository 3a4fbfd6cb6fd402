// Package rle implements the run-length-coding baselines the paper
// compares against in Table 1: Golomb-coded run lengths (Chandra &
// Chakrabarty, the paper's reference [10]) and FDR — frequency-directed
// run-length — codes (reference [11]).
//
// Both coders exploit don't-cares the way those papers do: X bits are
// filled with 0 (minimum-transition fill) so the stream becomes long runs
// of 0s punctuated by 1s, and each run length is entropy-coded.
package rle

import (
	"fmt"
	"math/bits"

	"lzwtc/internal/bitio"
	"lzwtc/internal/bitvec"
	"lzwtc/internal/invariant"
)

// Kind selects the run-length code.
type Kind uint8

// Run-length code families. A third family, Alternating (alternating
// 0/1 runs, FDR-coded — the paper's reference [11]), is defined in
// alternating.go.
const (
	Golomb Kind = iota // unary quotient + fixed remainder, parameter M
	FDR                // frequency-directed run-length groups
)

// String names the code family.
func (k Kind) String() string {
	switch k {
	case Golomb:
		return "golomb"
	case FDR:
		return "fdr"
	case Alternating:
		return "alternating"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Config selects the code and its parameter.
type Config struct {
	Kind Kind
	// M is the Golomb parameter (power of two). 0 selects the best M in
	// {2,4,...,1024} by trial encoding, which is how the comparison
	// papers tune it per test set. Ignored for FDR.
	M int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Kind != Golomb && c.Kind != FDR && c.Kind != Alternating {
		return fmt.Errorf("rle: unknown kind %d", c.Kind)
	}
	if c.Kind == Golomb && c.M != 0 {
		if c.M < 2 || c.M&(c.M-1) != 0 {
			return fmt.Errorf("rle: Golomb M %d must be a power of two >= 2", c.M)
		}
	}
	return nil
}

// Stats summarizes one compression run.
type Stats struct {
	InputBits      int
	CompressedBits int
	Runs           int
	MaxRun         int
	ChosenM        int // Golomb parameter actually used
}

// Ratio returns the compression ratio (1 - compressed/original).
func (s Stats) Ratio() float64 {
	if s.InputBits == 0 {
		return 0
	}
	return 1 - float64(s.CompressedBits)/float64(s.InputBits)
}

// Result is a compressed stream plus its statistics.
type Result struct {
	Cfg       Config
	Data      []byte
	BitLen    int
	InputBits int
	Stats     Stats
}

// Compress encodes a three-valued stream. For Golomb and FDR, X bits
// are 0-filled before run extraction, so the decoded stream is the
// FillZero concretization; Alternating uses the minimum-transition
// (repeat) fill.
func Compress(stream *bitvec.Vector, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Cfg: cfg, InputBits: stream.Len()}
	res.Stats.InputBits = stream.Len()
	if cfg.Kind == Alternating {
		compressAlternating(stream, res)
		res.Stats.CompressedBits = res.BitLen
		return res, nil
	}
	runs, maxRun := extractRuns(stream)
	res.Stats.Runs = len(runs)
	res.Stats.MaxRun = maxRun

	switch cfg.Kind {
	case Golomb:
		m := cfg.M
		if m == 0 {
			m = bestGolombM(runs)
		}
		res.Stats.ChosenM = m
		var w bitio.Writer
		for _, r := range runs {
			encodeGolomb(&w, r, m)
		}
		res.Data, res.BitLen = w.Bytes(), w.BitLen()
	case FDR:
		var w bitio.Writer
		for _, r := range runs {
			encodeFDR(&w, r)
		}
		res.Data, res.BitLen = w.Bytes(), w.BitLen()
	}
	res.Stats.CompressedBits = res.BitLen
	return res, nil
}

// extractRuns 0-fills the stream and splits it into runs of 0s, each
// terminated by a 1. A trailing run of 0s is emitted with a virtual
// terminator that the decoder truncates away.
func extractRuns(stream *bitvec.Vector) (runs []int, maxRun int) {
	run := 0
	for i := 0; i < stream.Len(); i++ {
		if stream.Get(i) == bitvec.One {
			runs = append(runs, run)
			if run > maxRun {
				maxRun = run
			}
			run = 0
		} else {
			run++
		}
	}
	if run > 0 {
		runs = append(runs, run)
		if run > maxRun {
			maxRun = run
		}
	}
	return runs, maxRun
}

// bestGolombM picks the power-of-two parameter minimizing the encoded
// size over the run-length distribution.
func bestGolombM(runs []int) int {
	bestM, bestBits := 2, int(^uint(0)>>1)
	for m := 2; m <= 1024; m *= 2 {
		total := 0
		logM := bits.Len(uint(m)) - 1
		for _, r := range runs {
			total += r/m + 1 + logM
		}
		if total < bestBits {
			bestM, bestBits = m, total
		}
	}
	return bestM
}

// encodeGolomb writes run length r: quotient r/M in unary (q ones then a
// zero) followed by the log2(M)-bit remainder. M is a power of two >= 2
// (enforced by Config.Validate and bestGolombM), so the remainder width
// log2(M) is in [1,63]; invariant.Width asserts that at run time for
// the bitwidth check.
func encodeGolomb(w *bitio.Writer, r, m int) {
	q := r / m
	for i := 0; i < q; i++ {
		w.WriteBit(1)
	}
	w.WriteBit(0)
	w.WriteBits(uint64(r%m), invariant.Width(bits.Len(uint(m))-1))
}

func decodeGolomb(rd *bitio.Reader, m int) (int, error) {
	q := 0
	for {
		b, err := rd.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			break
		}
		q++
	}
	rem, err := rd.ReadBits(invariant.Width(bits.Len(uint(m)) - 1))
	if err != nil {
		return 0, err
	}
	return q*m + int(rem), nil
}

// encodeFDR writes run length r using the FDR group code: group A_k
// covers [2^k - 2, 2^(k+1) - 3] with a k-bit prefix ((k-1) ones then a
// zero) and a k-bit tail, 2k bits total.
func encodeFDR(w *bitio.Writer, r int) {
	k := fdrGroup(r)
	for i := 0; i < k-1; i++ {
		w.WriteBit(1)
	}
	w.WriteBit(0)
	base := 1<<uint(k) - 2
	// fdrGroup grows k only while 2^(k+1) <= r+3, so k < 63 for any
	// in-memory run length; Width asserts the bound at run time.
	w.WriteBits(uint64(r-base), invariant.Width(k))
}

func decodeFDR(rd *bitio.Reader) (int, error) {
	k := 1
	for {
		b, err := rd.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 0 {
			break
		}
		k++
		if k > 62 {
			// The unary prefix is attacker-controlled input; a group
			// index beyond 62 cannot come from a valid encoder and
			// would overflow the run-length arithmetic below.
			return 0, fmt.Errorf("rle: FDR group prefix exceeds 62")
		}
	}
	tail, err := rd.ReadBits(invariant.Width(k))
	if err != nil {
		return 0, err
	}
	return 1<<uint(k) - 2 + int(tail), nil
}

// fdrGroup returns the group index k whose range contains r.
func fdrGroup(r int) int {
	k := 1
	for r > 1<<uint(k+1)-3 {
		k++
	}
	return k
}

// decompress inverts a compressed stream, returning the fully specified
// 0-filled output of length outBits.
func decompress(data []byte, bitLen int, cfg Config, outBits int) (*bitvec.Vector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kind == Alternating {
		return decompressAlternating(data, bitLen, outBits)
	}
	m := cfg.M
	if cfg.Kind == Golomb && m == 0 {
		return nil, fmt.Errorf("rle: Golomb decode requires an explicit M (use Stats.ChosenM)")
	}
	rd := bitio.NewReader(data, bitLen)
	out := bitvec.New(outBits)
	p := 0
	for p < outBits {
		var r int
		var err error
		switch cfg.Kind {
		case Golomb:
			r, err = decodeGolomb(rd, m)
		case FDR:
			r, err = decodeFDR(rd)
		}
		if err != nil {
			return nil, fmt.Errorf("rle: truncated stream at bit %d: %w", p, err)
		}
		for i := 0; i < r && p < outBits; i++ {
			out.Set(p, bitvec.Zero)
			p++
		}
		if p < outBits {
			out.Set(p, bitvec.One)
			p++
		}
		// A virtual terminator past outBits is silently dropped.
	}
	return out, nil
}

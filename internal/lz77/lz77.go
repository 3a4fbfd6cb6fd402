// Package lz77 implements the don't-care-aware LZ77 baseline the paper
// compares against in Table 1 (Wolff & Papachristou, "Multiscan-based Test
// Compression and Hardware Decomposition Using LZ77", ITC 2002 — the
// paper's reference [8]).
//
// The encoder slides over the three-valued test stream and matches the
// lookahead against the *concrete* decompressed history: an X bit in the
// lookahead matches any history bit and is thereby assigned. The output is
// a token stream of <1, offset, length> copy tokens and <0, bit> literals.
// Copy sources may overlap the write position (run-generating copies),
// exactly as a hardware history buffer would behave.
package lz77

import (
	"fmt"
	"math/bits"

	"lzwtc/internal/bitio"
	"lzwtc/internal/bitvec"
)

// Config sets the token geometry.
type Config struct {
	// OffsetBits sets the history window to 2^OffsetBits bits.
	OffsetBits int
	// LenBits sets the maximum copy length to MinMatch + 2^LenBits - 1.
	LenBits int
	// MinMatch is the shortest copy worth a token; shorter stretches are
	// emitted as literals. Encoded length = actual - MinMatch.
	MinMatch int
	// Fill assigns X bits emitted as literals.
	Fill bitvec.FillPolicy
}

// DefaultConfig returns a geometry tuned for scan test sets: an 11-bit
// offset (2048-bit window, on the order of a few scan slices), 6-bit
// length field and a break-even minimum match (a copy token costs
// 1+11+6 = 18 bits, a literal 2 bits).
func DefaultConfig() Config {
	return Config{OffsetBits: 11, LenBits: 6, MinMatch: 10}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.OffsetBits < 1 || c.OffsetBits > 24 {
		return fmt.Errorf("lz77: OffsetBits %d out of range [1,24]", c.OffsetBits)
	}
	if c.LenBits < 1 || c.LenBits > 24 {
		return fmt.Errorf("lz77: LenBits %d out of range [1,24]", c.LenBits)
	}
	if c.MinMatch < 1 {
		return fmt.Errorf("lz77: MinMatch %d must be positive", c.MinMatch)
	}
	return nil
}

// maxMatch returns the longest encodable copy.
func (c Config) maxMatch() int { return c.MinMatch + 1<<uint(c.LenBits) - 1 }

// Window returns the history window size in bits.
func (c Config) Window() int { return 1 << uint(c.OffsetBits) }

// Stats summarizes one compression run.
type Stats struct {
	InputBits      int
	CompressedBits int
	CopyTokens     int
	Literals       int
	MaxMatchBits   int
	AssignedByCopy int // X bits bound by matching against history
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

// Compress encodes a three-valued stream.
func Compress(stream *bitvec.Vector, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := stream.Len()
	res := &Result{Cfg: cfg, InputBits: n}
	res.Stats.InputBits = n
	var w bitio.Writer
	out := bitvec.New(n) // concrete history as the decoder will see it
	lastBit := uint(0)

	p := 0
	for p < n {
		bestLen, bestOff := 0, 0
		lo := p - cfg.Window()
		if lo < 0 {
			lo = 0
		}
		maxL := cfg.maxMatch()
		if maxL > n-p {
			maxL = n - p
		}
		for s := lo; s < p; s++ {
			l := matchLen(stream, out, s, p, maxL)
			if l > bestLen {
				bestLen, bestOff = l, p-s
				if l == maxL {
					break
				}
			}
		}
		if bestLen >= cfg.MinMatch {
			w.WriteBit(1)
			w.WriteBits(uint64(bestOff-1), cfg.OffsetBits)
			w.WriteBits(uint64(bestLen-cfg.MinMatch), cfg.LenBits)
			// Commit the copy to the history, assigning X bits.
			src := p - bestOff
			for i := 0; i < bestLen; i++ {
				b := out.Get(src + i)
				if stream.Get(p+i) == bitvec.X {
					res.Stats.AssignedByCopy++
				}
				out.Set(p+i, b)
			}
			lastBit = uint(out.Get(p + bestLen - 1))
			p += bestLen
			res.Stats.CopyTokens++
			if bestLen > res.Stats.MaxMatchBits {
				res.Stats.MaxMatchBits = bestLen
			}
			continue
		}
		// Literal.
		b := stream.Get(p)
		if b == bitvec.X {
			switch cfg.Fill {
			case bitvec.FillZero:
				b = bitvec.Zero
			case bitvec.FillOne:
				b = bitvec.One
			case bitvec.FillRepeat:
				b = bitvec.Bit(lastBit)
			}
		}
		w.WriteBit(0)
		w.WriteBit(uint(b))
		out.Set(p, b)
		lastBit = uint(b)
		p++
		res.Stats.Literals++
	}

	res.Data = w.Bytes()
	res.BitLen = w.BitLen()
	res.Stats.CompressedBits = w.BitLen()
	return res, nil
}

// matchLen computes how far the lookahead at p can ride the history
// starting at s (s < p). For the non-overlapping prefix it compares 64
// bits per step; overlapping tails (run-generating copies) are resolved
// bit by bit against the bits this same copy would have produced.
func matchLen(stream, out *bitvec.Vector, s, p, maxL int) int {
	l := 0
	direct := p - s
	if direct > maxL {
		direct = maxL
	}
	for l < direct {
		step := direct - l
		if step > 64 {
			step = 64
		}
		val, care := stream.Chunk(p+l, step)
		src, _ := out.Chunk(s+l, step)
		mism := care & (val ^ src)
		if mism == 0 {
			l += step
			continue
		}
		l += trailingZeros(mism)
		return l
	}
	// Overlap: source bit i >= direct repeats the bit decided at i-direct.
	for l < maxL {
		var src bitvec.Bit
		if s+l < p {
			src = out.Get(s + l)
		} else {
			// The copy is self-referential with period (p-s).
			src = overlapBit(stream, out, s, p, l)
		}
		b := stream.Get(p + l)
		if b != bitvec.X && b != src {
			break
		}
		l++
	}
	return l
}

// overlapBit resolves the source bit of a self-referential copy: position
// s+l folds back by multiples of the copy period until it lands in the
// committed history.
func overlapBit(stream, out *bitvec.Vector, s, p, l int) bitvec.Bit {
	period := p - s
	i := s + l
	for i >= p {
		i -= period
	}
	return out.Get(i)
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// decompress inverts a compressed stream, returning the fully specified
// output of length outBits.
func decompress(data []byte, bitLen int, cfg Config, outBits int) (*bitvec.Vector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := bitio.NewReader(data, bitLen)
	out := bitvec.New(outBits)
	p := 0
	for p < outBits {
		flag, err := r.ReadBit()
		if err != nil {
			return nil, fmt.Errorf("lz77: truncated stream at bit %d: %w", p, err)
		}
		if flag == 0 {
			b, err := r.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("lz77: truncated literal at bit %d: %w", p, err)
			}
			out.Set(p, bitvec.Bit(b))
			p++
			continue
		}
		offF, err := r.ReadBits(cfg.OffsetBits)
		if err != nil {
			return nil, fmt.Errorf("lz77: truncated offset at bit %d: %w", p, err)
		}
		lenF, err := r.ReadBits(cfg.LenBits)
		if err != nil {
			return nil, fmt.Errorf("lz77: truncated length at bit %d: %w", p, err)
		}
		off := int(offF) + 1
		l := int(lenF) + cfg.MinMatch
		if off > p {
			return nil, fmt.Errorf("lz77: offset %d reaches before stream start at bit %d", off, p)
		}
		if p+l > outBits {
			return nil, fmt.Errorf("lz77: copy of %d bits overruns output at bit %d", l, p)
		}
		for i := 0; i < l; i++ {
			out.Set(p+i, out.Get(p-off+i))
		}
		p += l
	}
	return out, nil
}

// Package signature implements linear-feedback response compaction —
// the output side of the scan-test architecture the paper's Figure 2
// embeds its decompressor into. Scan-out responses are folded into a
// MISR (multiple-input signature register) so the ATE compares one
// signature instead of storing every expected response, the dual of
// compressing the stimulus side.
package signature

import (
	"fmt"
	"math/bits"

	"lzwtc/internal/bitvec"
)

// lfsr is a Fibonacci linear-feedback shift register over GF(2).
type lfsr struct {
	width int
	taps  uint64 // tap mask; bit i set means state bit i feeds back
	state uint64
}

// Standard primitive polynomials (tap masks) for common widths; the
// x^width term is implicit.
var primitiveTaps = map[int]uint64{
	8:  0xB8,               // x^8 + x^6 + x^5 + x^4 + 1
	16: 0xB400,             // x^16 + x^14 + x^13 + x^11 + 1
	24: 0xE10000,           // x^24 + x^23 + x^22 + x^17 + 1
	32: 0xA3000000,         // x^32 + x^30 + x^26 + x^25 + 1
	64: 0xD800000000000000, // x^64 + x^63 + x^61 + x^60 + 1
}

// newLFSR builds an LFSR of the given width with a known-primitive
// polynomial (widths 8, 16, 24, 32, 64) or a caller-supplied tap mask.
func newLFSR(width int, taps uint64) (*lfsr, error) {
	if width < 2 || width > 64 {
		return nil, fmt.Errorf("signature: width %d out of range [2,64]", width)
	}
	if taps == 0 {
		var ok bool
		taps, ok = primitiveTaps[width]
		if !ok {
			return nil, fmt.Errorf("signature: no built-in polynomial for width %d; supply taps", width)
		}
	}
	if width < 64 && taps >= 1<<uint(width) {
		return nil, fmt.Errorf("signature: taps %#x exceed width %d", taps, width)
	}
	return &lfsr{width: width, taps: taps}, nil
}

// Width returns the register width.
func (l *lfsr) Width() int { return l.width }

// State returns the current register contents.
func (l *lfsr) State() uint64 { return l.state }

// Seed sets the register contents.
func (l *lfsr) Seed(v uint64) {
	if l.width < 64 {
		v &= 1<<uint(l.width) - 1
	}
	l.state = v
}

// Step advances one clock with serial input bit in (0 or 1), returning
// the bit shifted out.
func (l *lfsr) Step(in uint64) uint64 {
	out := l.state >> uint(l.width-1) & 1
	fb := uint64(bits.OnesCount64(l.state&l.taps)&1) ^ (in & 1)
	l.state = l.state<<1 | fb
	if l.width < 64 {
		l.state &= 1<<uint(l.width) - 1
	}
	return out
}

// MISR folds parallel response slices into a signature: each capture
// clock XORs one response word into the register alongside the linear
// feedback.
type MISR struct {
	lfsr   *lfsr
	cycles int
}

// NewMISR builds a MISR of the given width (see newLFSR for taps).
func NewMISR(width int, taps uint64) (*MISR, error) {
	l, err := newLFSR(width, taps)
	if err != nil {
		return nil, err
	}
	return &MISR{lfsr: l}, nil
}

// Width returns the register width.
func (m *MISR) Width() int { return m.lfsr.width }

// Reset clears the register and cycle count.
func (m *MISR) Reset() {
	m.lfsr.state = 0
	m.cycles = 0
}

// captureWord folds one parallel response word into the register.
func (m *MISR) captureWord(word uint64) {
	w := m.lfsr.width
	fb := uint64(bits.OnesCount64(m.lfsr.state&m.lfsr.taps) & 1)
	m.lfsr.state = m.lfsr.state<<1 | fb
	if w < 64 {
		m.lfsr.state &= 1<<uint(w) - 1
		word &= 1<<uint(w) - 1
	}
	m.lfsr.state ^= word
	m.cycles++
}

// Capture folds a (fully specified) response vector, width bits at a
// time. Vectors wider than the register are folded in register-width
// slices.
func (m *MISR) Capture(resp *bitvec.Vector) error {
	if resp.XCount() != 0 {
		return fmt.Errorf("signature: response contains unknown values; a MISR signature would be corrupted")
	}
	w := m.lfsr.width
	for pos := 0; pos < resp.Len(); pos += w {
		n := w
		if pos+n > resp.Len() {
			n = resp.Len() - pos
		}
		word, _ := resp.Chunk(pos, n)
		m.captureWord(word)
	}
	return nil
}

// Signature returns the accumulated signature.
func (m *MISR) Signature() uint64 { return m.lfsr.state }

// Cycles returns the number of capture clocks folded so far.
func (m *MISR) Cycles() int { return m.cycles }

// AliasingProbability returns the asymptotic probability that a faulty
// response sequence produces the fault-free signature: 2^-width.
func (m *MISR) AliasingProbability() float64 {
	return 1 / float64(uint64(1)<<uint(m.lfsr.width))
}

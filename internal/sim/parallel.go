package sim

import (
	"fmt"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/circuit"
)

// PVal carries 64 three-valued values in two planes. Slot i is 1 when
// One bit i is set, 0 when Zero bit i is set, X when neither. One and
// Zero are never both set.
type PVal struct {
	One, Zero uint64
}

// FromBit broadcasts a scalar value to all 64 slots.
func FromBit(b bitvec.Bit) PVal {
	switch b {
	case bitvec.One:
		return PVal{One: ^uint64(0)}
	case bitvec.Zero:
		return PVal{Zero: ^uint64(0)}
	}
	return PVal{}
}

// Bit extracts slot i.
func (v PVal) Bit(i int) bitvec.Bit {
	switch {
	case v.One>>uint(i)&1 == 1:
		return bitvec.One
	case v.Zero>>uint(i)&1 == 1:
		return bitvec.Zero
	}
	return bitvec.X
}

// EvalP evaluates one gate across 64 pattern slots.
func EvalP(t circuit.GateType, in []PVal) PVal {
	switch t {
	case circuit.Buf, circuit.DFF, circuit.Input:
		if len(in) == 0 {
			return PVal{}
		}
		return in[0]
	case circuit.Not:
		return PVal{One: in[0].Zero, Zero: in[0].One}
	case circuit.And, circuit.Nand:
		one, zero := ^uint64(0), uint64(0)
		for _, v := range in {
			one &= v.One
			zero |= v.Zero
		}
		one &^= zero
		if t == circuit.Nand {
			one, zero = zero, one
		}
		return PVal{One: one, Zero: zero}
	case circuit.Or, circuit.Nor:
		one, zero := uint64(0), ^uint64(0)
		for _, v := range in {
			one |= v.One
			zero &= v.Zero
		}
		zero &^= one
		if t == circuit.Nor {
			one, zero = zero, one
		}
		return PVal{One: one, Zero: zero}
	case circuit.Xor, circuit.Xnor:
		care := ^uint64(0)
		parity := uint64(0)
		for _, v := range in {
			care &= v.One | v.Zero
			parity ^= v.One
		}
		if t == circuit.Xnor {
			parity = ^parity
		}
		return PVal{One: care & parity, Zero: care &^ parity}
	}
	return PVal{}
}

// PState evaluates up to 64 patterns at once.
type PState struct {
	cb   *circuit.Comb
	vals []PVal
	n    int // patterns loaded
	buf  []PVal
}

// NewPState allocates a parallel state.
func NewPState(cb *circuit.Comb) *PState {
	return &PState{cb: cb, vals: make([]PVal, len(cb.C.Gates))}
}

// Vals exposes the per-gate values of the last Apply (read-only use).
func (s *PState) Vals() []PVal { return s.vals }

// N returns the number of patterns loaded by the last Apply.
func (s *PState) N() int { return s.n }

// Comb returns the circuit view being simulated.
func (s *PState) Comb() *circuit.Comb { return s.cb }

// Apply evaluates up to 64 patterns in parallel.
func (s *PState) Apply(patterns []*bitvec.Vector) error {
	if len(patterns) == 0 || len(patterns) > 64 {
		return fmt.Errorf("sim: parallel batch of %d patterns (want 1..64)", len(patterns))
	}
	for i := range s.vals {
		s.vals[i] = PVal{}
	}
	s.n = len(patterns)
	width := s.cb.Width()
	for slot, p := range patterns {
		if p.Len() != width {
			return fmt.Errorf("sim: pattern %d width %d, circuit needs %d", slot, p.Len(), width)
		}
		for i := 0; i < width; i++ {
			id := s.cb.InputAt(i)
			switch p.Get(i) {
			case bitvec.One:
				s.vals[id].One |= 1 << uint(slot)
			case bitvec.Zero:
				s.vals[id].Zero |= 1 << uint(slot)
			}
		}
	}
	for _, id := range s.cb.Order {
		g := &s.cb.C.Gates[id]
		if g.Type == circuit.Input || g.Type == circuit.DFF {
			continue
		}
		if cap(s.buf) < len(g.Fanin) {
			s.buf = make([]PVal, len(g.Fanin))
		}
		in := s.buf[:len(g.Fanin)]
		for k, f := range g.Fanin {
			in[k] = s.vals[f]
		}
		s.vals[id] = EvalP(g.Type, in)
	}
	return nil
}

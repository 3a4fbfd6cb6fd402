// Package sim evaluates netlists under three-valued (0/1/X) logic, both
// one value at a time and 64 patterns in parallel.
//
// Three-valued values are encoded as (one, zero) plane pairs: a bit is 1
// when its `one` plane bit is set, 0 when its `zero` plane bit is set, and
// X when neither is. This makes controlling-value logic word-parallel:
// AND's output is 1 where all inputs are 1 and 0 where any input is 0.
package sim

import (
	"fmt"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/circuit"
)

// Eval computes one gate's output from its input values.
func Eval(t circuit.GateType, in []bitvec.Bit) bitvec.Bit {
	switch t {
	case circuit.Buf, circuit.DFF, circuit.Input:
		if len(in) == 0 {
			return bitvec.X
		}
		return in[0]
	case circuit.Not:
		return not3(in[0])
	case circuit.And, circuit.Nand:
		v := and3(in)
		if t == circuit.Nand {
			v = not3(v)
		}
		return v
	case circuit.Or, circuit.Nor:
		v := or3(in)
		if t == circuit.Nor {
			v = not3(v)
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := xor3(in)
		if t == circuit.Xnor {
			v = not3(v)
		}
		return v
	}
	return bitvec.X
}

func not3(b bitvec.Bit) bitvec.Bit {
	switch b {
	case bitvec.Zero:
		return bitvec.One
	case bitvec.One:
		return bitvec.Zero
	}
	return bitvec.X
}

func and3(in []bitvec.Bit) bitvec.Bit {
	sawX := false
	for _, b := range in {
		switch b {
		case bitvec.Zero:
			return bitvec.Zero
		case bitvec.X:
			sawX = true
		}
	}
	if sawX {
		return bitvec.X
	}
	return bitvec.One
}

func or3(in []bitvec.Bit) bitvec.Bit {
	sawX := false
	for _, b := range in {
		switch b {
		case bitvec.One:
			return bitvec.One
		case bitvec.X:
			sawX = true
		}
	}
	if sawX {
		return bitvec.X
	}
	return bitvec.Zero
}

func xor3(in []bitvec.Bit) bitvec.Bit {
	parity := bitvec.Zero
	for _, b := range in {
		if b == bitvec.X {
			return bitvec.X
		}
		parity ^= b
	}
	return parity
}

// State holds per-gate values for one pattern.
type State struct {
	cb   *circuit.Comb
	vals []bitvec.Bit
	buf  []bitvec.Bit
}

// NewState allocates an evaluation state for the combinational view.
func NewState(cb *circuit.Comb) *State {
	return &State{cb: cb, vals: make([]bitvec.Bit, len(cb.C.Gates))}
}

// Get returns gate id's current value.
func (s *State) Get(id int) bitvec.Bit { return s.vals[id] }

// Apply evaluates the combinational core under the given test pattern
// (PI bits then scan-cell bits; X allowed). Every gate value becomes
// readable via Get.
func (s *State) Apply(pattern *bitvec.Vector) error {
	if pattern.Len() != s.cb.Width() {
		return fmt.Errorf("sim: pattern width %d, circuit needs %d", pattern.Len(), s.cb.Width())
	}
	for i := range s.vals {
		s.vals[i] = bitvec.X
	}
	for i := 0; i < pattern.Len(); i++ {
		s.vals[s.cb.InputAt(i)] = pattern.Get(i)
	}
	s.evalOrder(nil)
	return nil
}

// ApplyFaulty is Apply with a single stuck-at fault active: inject is
// called after each gate evaluation and may override values (the fault
// package provides injectors).
func (s *State) ApplyFaulty(pattern *bitvec.Vector, inject func(id int, val bitvec.Bit) bitvec.Bit) error {
	if pattern.Len() != s.cb.Width() {
		return fmt.Errorf("sim: pattern width %d, circuit needs %d", pattern.Len(), s.cb.Width())
	}
	for i := range s.vals {
		s.vals[i] = bitvec.X
	}
	for i := 0; i < pattern.Len(); i++ {
		v := pattern.Get(i)
		id := s.cb.InputAt(i)
		s.vals[id] = inject(id, v)
	}
	s.evalOrder(inject)
	return nil
}

func (s *State) evalOrder(inject func(int, bitvec.Bit) bitvec.Bit) {
	gates := s.cb.C.Gates
	for _, id := range s.cb.Order {
		g := &gates[id]
		if g.Type == circuit.Input || g.Type == circuit.DFF {
			if inject != nil {
				s.vals[id] = inject(id, s.vals[id])
			}
			continue
		}
		if cap(s.buf) < len(g.Fanin) {
			s.buf = make([]bitvec.Bit, len(g.Fanin))
		}
		in := s.buf[:len(g.Fanin)]
		for k, f := range g.Fanin {
			in[k] = s.vals[f]
		}
		v := Eval(g.Type, in)
		if inject != nil {
			v = inject(id, v)
		}
		s.vals[id] = v
	}
}

// observations copies the observation-point values (POs then PPOs) into
// a vector.
func (s *State) observations() *bitvec.Vector {
	out := bitvec.New(s.cb.ObsCount())
	for i := 0; i < s.cb.ObsCount(); i++ {
		out.Set(i, s.vals[s.cb.ObsAt(i)])
	}
	return out
}

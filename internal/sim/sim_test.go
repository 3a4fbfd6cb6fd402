package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/circuit"
)

func TestEvalTruthTables(t *testing.T) {
	B := func(s string) []bitvec.Bit {
		v := bitvec.MustParse(s)
		out := make([]bitvec.Bit, v.Len())
		for i := range out {
			out[i] = v.Get(i)
		}
		return out
	}
	cases := []struct {
		t    circuit.GateType
		in   string
		want bitvec.Bit
	}{
		{circuit.And, "11", bitvec.One},
		{circuit.And, "1X", bitvec.X},
		{circuit.And, "0X", bitvec.Zero}, // controlling value dominates X
		{circuit.Nand, "0X", bitvec.One},
		{circuit.Or, "1X", bitvec.One},
		{circuit.Or, "0X", bitvec.X},
		{circuit.Nor, "00", bitvec.One},
		{circuit.Xor, "10", bitvec.One},
		{circuit.Xor, "1X", bitvec.X}, // XOR has no controlling value
		{circuit.Xnor, "11", bitvec.One},
		{circuit.Not, "X", bitvec.X},
		{circuit.Not, "0", bitvec.One},
		{circuit.Buf, "1", bitvec.One},
		{circuit.And, "111", bitvec.One},
		{circuit.Or, "000X", bitvec.X},
	}
	for _, c := range cases {
		if got := Eval(c.t, B(c.in)); got != c.want {
			t.Errorf("%v(%s) = %v, want %v", c.t, c.in, got, c.want)
		}
	}
}

func TestC17KnownVectors(t *testing.T) {
	cb, err := circuit.NewComb(circuit.C17())
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(cb)
	// Inputs in declaration order: N1 N2 N3 N6 N7.
	// N10=!(N1&N3) N11=!(N3&N6) N16=!(N2&N11) N19=!(N11&N7)
	// N22=!(N10&N16) N23=!(N16&N19)
	cases := []struct{ in, out string }{
		{"00000", "00"},
		{"11111", "10"},
		{"10101", "11"},
		{"01010", "11"},
	}
	for _, c := range cases {
		if err := st.Apply(bitvec.MustParse(c.in)); err != nil {
			t.Fatal(err)
		}
		got := ""
		for _, o := range cb.C.Outputs {
			got += st.Get(o).String()
		}
		if got != c.out {
			t.Errorf("c17(%s) = %s, want %s", c.in, got, c.out)
		}
	}
}

func TestApplyWidthCheck(t *testing.T) {
	cb, _ := circuit.NewComb(circuit.C17())
	st := NewState(cb)
	if err := st.Apply(bitvec.MustParse("000")); err == nil {
		t.Fatal("short pattern accepted")
	}
}

// Property: parallel simulation slot i equals scalar simulation of
// pattern i, for every gate.
func TestQuickParallelMatchesScalar(t *testing.T) {
	gen, err := circuit.Generate(circuit.GenConfig{Name: "q", Inputs: 6, Outputs: 3, DFFs: 4, Comb: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := circuit.NewComb(gen)
	if err != nil {
		t.Fatal(err)
	}
	scalar := NewState(cb)
	par := NewPState(cb)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(64) + 1
		pats := make([]*bitvec.Vector, n)
		for i := range pats {
			v := bitvec.New(cb.Width())
			for b := 0; b < cb.Width(); b++ {
				switch rng.Intn(3) {
				case 0:
					v.Set(b, bitvec.Zero)
				case 1:
					v.Set(b, bitvec.One)
				}
			}
			pats[i] = v
		}
		if err := par.Apply(pats); err != nil {
			return false
		}
		for i, p := range pats {
			if err := scalar.Apply(p); err != nil {
				return false
			}
			for id := range cb.C.Gates {
				if par.Vals()[id].Bit(i) != scalar.Get(id) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPStateBatchLimits(t *testing.T) {
	cb, _ := circuit.NewComb(circuit.C17())
	ps := NewPState(cb)
	if err := ps.Apply(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	pats := make([]*bitvec.Vector, 65)
	for i := range pats {
		pats[i] = bitvec.New(cb.Width())
	}
	if err := ps.Apply(pats); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if err := ps.Apply([]*bitvec.Vector{bitvec.New(3)}); err == nil {
		t.Fatal("bad width accepted")
	}
}

func TestFromBitAndBit(t *testing.T) {
	for _, b := range []bitvec.Bit{bitvec.Zero, bitvec.One, bitvec.X} {
		v := FromBit(b)
		for i := 0; i < 64; i += 17 {
			if v.Bit(i) != b {
				t.Fatalf("FromBit(%v).Bit(%d) = %v", b, i, v.Bit(i))
			}
		}
	}
}

func BenchmarkParallelApply(b *testing.B) {
	gen, _ := circuit.Generate(circuit.GenConfig{Name: "b", Inputs: 32, Outputs: 16, DFFs: 100, Comb: 2000, Seed: 1})
	cb, _ := circuit.NewComb(gen)
	ps := NewPState(cb)
	rng := rand.New(rand.NewSource(2))
	pats := make([]*bitvec.Vector, 64)
	for i := range pats {
		v := bitvec.New(cb.Width())
		for j := 0; j < cb.Width(); j++ {
			v.Set(j, bitvec.Bit(rng.Intn(2)))
		}
		pats[i] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ps.Apply(pats); err != nil {
			b.Fatal(err)
		}
	}
}

func TestObservations(t *testing.T) {
	cb, _ := circuit.NewComb(circuit.S27())
	st := NewState(cb)
	if err := st.Apply(bitvec.MustParse("0000000")); err != nil {
		t.Fatal(err)
	}
	obs := st.observations()
	if obs.Len() != 4 { // 1 PO + 3 PPO
		t.Fatalf("obs len = %d", obs.Len())
	}
	if obs.XCount() != 0 {
		t.Fatal("concrete pattern produced X observations")
	}
}

package compact

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lzwtc/internal/atpg"
	"lzwtc/internal/bitvec"
	"lzwtc/internal/circuit"
	"lzwtc/internal/fault"
	"lzwtc/internal/fsim"
)

func TestCompatibleAndMerge(t *testing.T) {
	a := bitvec.MustParse("1X0X")
	b := bitvec.MustParse("1X01")
	c := bitvec.MustParse("0XXX")
	if !compatible(a, b) || compatible(a, c) {
		t.Fatal("compatibility wrong")
	}
	m, err := merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != "1X01" {
		t.Fatalf("merge = %q", m)
	}
	if _, err := merge(a, c); err == nil {
		t.Fatal("conflicting merge accepted")
	}
	if compatible(a, bitvec.MustParse("1X0")) {
		t.Fatal("length mismatch compatible")
	}
}

func TestMergeCubes(t *testing.T) {
	cs := bitvec.NewCubeSet(4)
	cs.Add(bitvec.MustParse("1XXX"))
	cs.Add(bitvec.MustParse("X0XX"))
	cs.Add(bitvec.MustParse("0XXX")) // conflicts with cube 0 merged set
	cs.Add(bitvec.MustParse("XX1X"))
	out, st := mergeCubes(cs)
	if st.PatternsOut >= st.PatternsIn || st.Merges == 0 {
		t.Fatalf("no compaction: %+v", st)
	}
	// Every original cube must be covered by some output cube.
	for i, c := range cs.Cubes {
		covered := false
		for _, o := range out.Cubes {
			if compatible(o, c) {
				covered = true
				break
			}
		}
		if !covered {
			t.Fatalf("cube %d lost", i)
		}
	}
}

func TestCompactPreservesCoverage(t *testing.T) {
	gen, err := circuit.Generate(circuit.GenConfig{Name: "cc", Inputs: 14, Outputs: 7, DFFs: 20, Comb: 180, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cb, err := circuit.NewComb(gen)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := atpg.Run(cb, atpg.Options{Collapse: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(cb.C, fault.All(cb.C))
	before, err := fsim.Run(cb, ares.Cubes, faults)
	if err != nil {
		t.Fatal(err)
	}
	compacted, st, err := Compact(cb, ares.Cubes, faults)
	if err != nil {
		t.Fatal(err)
	}
	after, err := fsim.Run(cb, compacted, faults)
	if err != nil {
		t.Fatal(err)
	}
	if after.Detected < before.Detected {
		t.Fatalf("coverage dropped: %d -> %d", before.Detected, after.Detected)
	}
	if st.PatternsOut > st.PatternsIn {
		t.Fatalf("compaction grew the set: %+v", st)
	}
	if st.PatternsOut >= st.PatternsIn && st.Merges == 0 && st.Dropped == 0 {
		t.Fatalf("compaction did nothing: %+v", st)
	}
}

func TestReverseOrderDropRemovesRedundantPattern(t *testing.T) {
	cb, err := circuit.NewComb(circuit.C17())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(cb.C, fault.All(cb.C))
	// A set where one pattern is duplicated: the duplicate must go.
	cs := bitvec.NewCubeSet(5)
	for _, s := range []string{"11111", "11111", "00000", "10101", "01010", "00111", "11100", "01101"} {
		cs.Add(bitvec.MustParse(s))
	}
	out, st, err := reverseOrderDrop(cb, cs, faults)
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped == 0 || len(out.Cubes) >= len(cs.Cubes) {
		t.Fatalf("duplicate survived: %+v", st)
	}
}

// Property: merging preserves every care bit of every input cube.
func TestQuickMergePreservesCares(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := rng.Intn(40) + 1
		cs := bitvec.NewCubeSet(width)
		for p := 0; p < rng.Intn(15)+1; p++ {
			v := bitvec.New(width)
			for b := 0; b < width; b++ {
				if rng.Float64() < 0.3 {
					v.Set(b, bitvec.Bit(rng.Intn(2)))
				}
			}
			cs.Add(v)
		}
		out, _ := mergeCubes(cs)
		for _, c := range cs.Cubes {
			covered := false
			for _, o := range out.Cubes {
				if compatible(o, c) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

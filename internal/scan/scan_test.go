package scan

import (
	"testing"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/circuit"
	"lzwtc/internal/sim"
)

func TestInsertSingleChain(t *testing.T) {
	d, err := Insert(circuit.S27(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Chains) != 1 || len(d.Chains[0].Cells) != 3 {
		t.Fatalf("chains = %+v", d.Chains)
	}
	if d.PatternWidth() != 7 {
		t.Fatalf("pattern width = %d", d.PatternWidth())
	}
	if d.ScanCycles() != 3 {
		t.Fatalf("scan cycles = %d", d.ScanCycles())
	}
}

func TestInsertMultiChain(t *testing.T) {
	d, err := Insert(circuit.S27(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Chains) != 2 {
		t.Fatalf("chains = %d", len(d.Chains))
	}
	if d.ScanCycles() != 2 { // 3 cells over 2 chains -> longest has 2
		t.Fatalf("scan cycles = %d", d.ScanCycles())
	}
	// More chains than flip-flops clamps.
	d2, err := Insert(circuit.S27(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Chains) != 3 {
		t.Fatalf("clamped chains = %d", len(d2.Chains))
	}
	if _, err := Insert(circuit.S27(), 0); err == nil {
		t.Fatal("zero chains accepted")
	}
}

func TestInsertCombinationalOnly(t *testing.T) {
	d, err := Insert(circuit.C17(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.PatternWidth() != 5 || d.ScanCycles() != 0 {
		t.Fatalf("width %d cycles %d", d.PatternWidth(), d.ScanCycles())
	}
}

func TestApplyCapturesResponses(t *testing.T) {
	d, err := Insert(circuit.S27(), 1)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.NewState(d.Comb)
	r, err := d.Apply(st, bitvec.MustParse("0000000"))
	if err != nil {
		t.Fatal(err)
	}
	if r.POs.Len() != 1 || r.NextState.Len() != 3 {
		t.Fatalf("response shapes: po %d ns %d", r.POs.Len(), r.NextState.Len())
	}
	if r.POs.XCount() != 0 || r.NextState.XCount() != 0 {
		t.Fatal("concrete pattern produced X responses")
	}
	if _, err := d.Apply(st, bitvec.MustParse("000")); err == nil {
		t.Fatal("bad width accepted")
	}
}

func TestApplySetAndCompatibility(t *testing.T) {
	d, err := Insert(circuit.S27(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cubes := bitvec.NewCubeSet(7)
	cubes.Add(bitvec.MustParse("1X0X01X"))
	cubes.Add(bitvec.MustParse("XXXX111"))
	cubeResp, err := d.ApplySet(cubes)
	if err != nil {
		t.Fatal(err)
	}

	filled := bitvec.NewCubeSet(7)
	for _, c := range cubes.Cubes {
		filled.Add(c.Filled(bitvec.FillZero))
	}
	filledResp, err := d.ApplySet(filled)
	if err != nil {
		t.Fatal(err)
	}
	if err := ResponsesCompatible(cubeResp, filledResp); err != nil {
		t.Fatalf("zero-fill broke responses: %v", err)
	}

	// Corrupt a specified response bit: must be flagged.
	for i := 0; i < filledResp[0].NextState.Len(); i++ {
		if cubeResp[0].NextState.Get(i) != bitvec.X {
			filledResp[0].NextState.Set(i, cubeResp[0].NextState.Get(i)^1)
			break
		}
	}
	if err := ResponsesCompatible(cubeResp, filledResp); err == nil {
		t.Fatal("corrupted response not detected")
	}
	if err := ResponsesCompatible(cubeResp, filledResp[:1]); err == nil {
		t.Fatal("length mismatch not detected")
	}
}

func TestApplySetWidthCheck(t *testing.T) {
	d, _ := Insert(circuit.S27(), 1)
	bad := bitvec.NewCubeSet(5)
	bad.Add(bitvec.MustParse("00000"))
	if _, err := d.ApplySet(bad); err == nil {
		t.Fatal("wrong-width set accepted")
	}
}

func TestChainCubesSplitMerge(t *testing.T) {
	d, err := Insert(circuit.S27(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cs := bitvec.NewCubeSet(7)
	cs.Add(bitvec.MustParse("01X10X1"))
	cs.Add(bitvec.MustParse("XXXX101"))
	chains, pis, err := d.ChainCubes(cs)
	if err != nil {
		t.Fatal(err)
	}
	if pis.Width != 4 || len(chains) != 2 {
		t.Fatalf("split shapes: PI %d, %d chains", pis.Width, len(chains))
	}
	if chains[0].Width+chains[1].Width != 3 {
		t.Fatalf("chain widths %d + %d != 3 cells", chains[0].Width, chains[1].Width)
	}
	// Total care bits are conserved.
	care := pis.TotalBits() - int(float64(pis.TotalBits())*pis.XDensity())
	for _, ch := range chains {
		care += ch.TotalBits() - int(float64(ch.TotalBits())*ch.XDensity())
	}
	orig := cs.TotalBits() - int(float64(cs.TotalBits())*cs.XDensity())
	if care != orig {
		t.Fatalf("care bits not conserved: %d vs %d", care, orig)
	}
	merged, err := d.mergeChainCubes(chains, pis)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cs.Cubes {
		if !cs.Cubes[i].Equal(merged.Cubes[i]) {
			t.Fatalf("pattern %d changed: %q vs %q", i, merged.Cubes[i], cs.Cubes[i])
		}
	}
}

func TestChainCubesErrors(t *testing.T) {
	d, _ := Insert(circuit.S27(), 2)
	bad := bitvec.NewCubeSet(5)
	bad.Add(bitvec.MustParse("00000"))
	if _, _, err := d.ChainCubes(bad); err == nil {
		t.Fatal("wrong width accepted")
	}
	cs := bitvec.NewCubeSet(7)
	cs.Add(bitvec.MustParse("0101010"))
	chains, pis, err := d.ChainCubes(cs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.mergeChainCubes(chains[:1], pis); err == nil {
		t.Fatal("missing chain accepted")
	}
	if _, err := d.mergeChainCubes(chains, bitvec.NewCubeSet(2)); err == nil {
		t.Fatal("bad PI width accepted")
	}
}

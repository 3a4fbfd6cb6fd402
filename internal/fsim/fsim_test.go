package fsim

import (
	"testing"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/circuit"
	"lzwtc/internal/fault"
)

func exhaustive(width int) *bitvec.CubeSet {
	cs := bitvec.NewCubeSet(width)
	for v := 0; v < 1<<uint(width); v++ {
		p := bitvec.New(width)
		for b := 0; b < width; b++ {
			p.Set(b, bitvec.Bit(v>>uint(b)&1))
		}
		cs.Cubes = append(cs.Cubes, p)
	}
	return cs
}

func TestC17FullCoverageExhaustive(t *testing.T) {
	cb, err := circuit.NewComb(circuit.C17())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(cb.C, fault.All(cb.C))
	res, err := Run(cb, exhaustive(5), faults)
	if err != nil {
		t.Fatal(err)
	}
	// c17 is fully testable: every collapsed stuck-at fault must fall to
	// the exhaustive set.
	if res.Coverage() != 1.0 {
		undet := []string{}
		for i, at := range res.DetectedBy {
			if at < 0 {
				undet = append(undet, faults[i].Name(cb.C))
			}
		}
		t.Fatalf("coverage %.3f, undetected: %v", res.Coverage(), undet)
	}
}

func TestDetectionIsXAware(t *testing.T) {
	cb, err := circuit.NewComb(circuit.C17())
	if err != nil {
		t.Fatal(err)
	}
	n22, _ := cb.C.ByName("N22")
	f := []fault.Fault{{Gate: n22, Pin: -1, SA: bitvec.Zero}}

	// Fully X cube: nothing can be detected fill-independently.
	cs := bitvec.NewCubeSet(5)
	cs.Add(bitvec.MustParse("XXXXX"))
	res, err := Run(cb, cs, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected != 0 {
		t.Fatal("all-X cube credited with detection")
	}

	// N22 s-a-0 needs good N22 = 1: inputs 00000 give N22=0 (no detect);
	// 11111 give N22=1 (detect). A cube specifying only what's needed:
	// N1=0 makes N10=1; N2=0,N3=0 -> N11=1, N16=1 -> N22 = NAND(1,1)=0.
	cs2 := bitvec.NewCubeSet(5)
	cs2.Add(bitvec.MustParse("000XX")) // N22 good = 0 -> s-a-0 unobservable
	res2, err := Run(cb, cs2, f)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Detected != 0 {
		t.Fatal("cube with good=stuck value credited")
	}

	cs3 := bitvec.NewCubeSet(5)
	cs3.Add(bitvec.MustParse("111XX")) // N10=0 -> N22=1 specified: detect
	res3, err := Run(cb, cs3, f)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Detected != 1 || res3.DetectedBy[0] != 0 {
		t.Fatalf("partial cube failed to detect: %+v", res3)
	}
}

func TestFaultDroppingFirstDetection(t *testing.T) {
	cb, _ := circuit.NewComb(circuit.C17())
	faults := fault.Collapse(cb.C, fault.All(cb.C))
	cs := exhaustive(5)
	res, err := Run(cb, cs, faults)
	if err != nil {
		t.Fatal(err)
	}
	// First-detection indices must point at a cube that actually detects:
	// re-run each singleton to confirm.
	for fi, at := range res.DetectedBy {
		if at < 0 {
			continue
		}
		single := bitvec.NewCubeSet(5)
		single.Add(cs.Cubes[at])
		r2, err := Run(cb, single, faults[fi:fi+1])
		if err != nil {
			t.Fatal(err)
		}
		if r2.Detected != 1 {
			t.Fatalf("fault %v: claimed detection by cube %d not reproducible", faults[fi].Name(cb.C), at)
		}
	}
}

func TestSequentialCircuitConeStopsAtDFF(t *testing.T) {
	cb, err := circuit.NewComb(circuit.S27())
	if err != nil {
		t.Fatal(err)
	}
	cc := NewConeCache(cb)
	// Fault effects are captured at DFF inputs (PPOs), not propagated
	// through them combinationally.
	for id, g := range cb.C.Gates {
		cone := cc.cone(id)
		for _, m := range cone.order {
			if cb.C.Gates[m].Type == circuit.DFF {
				t.Fatalf("cone of %s crosses DFF %s", g.Name, cb.C.Gates[m].Name)
			}
		}
	}
}

func TestS27ScanCoverage(t *testing.T) {
	cb, err := circuit.NewComb(circuit.S27())
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.Collapse(cb.C, fault.All(cb.C))
	res, err := Run(cb, exhaustive(7), faults)
	if err != nil {
		t.Fatal(err)
	}
	// Full-scan s27 is fully stuck-at testable.
	if res.Coverage() != 1.0 {
		t.Fatalf("s27 full-scan coverage %.3f", res.Coverage())
	}
}

func BenchmarkFaultSim(b *testing.B) {
	gen, _ := circuit.Generate(circuit.GenConfig{Name: "b", Inputs: 16, Outputs: 8, DFFs: 40, Comb: 500, Seed: 3})
	cb, _ := circuit.NewComb(gen)
	faults := fault.Collapse(cb.C, fault.All(cb.C))
	cs := bitvec.NewCubeSet(cb.Width())
	for i := 0; i < 64; i++ {
		p := bitvec.New(cb.Width())
		for j := 0; j < cb.Width(); j++ {
			p.Set(j, bitvec.Bit((i+j)%2))
		}
		cs.Cubes = append(cs.Cubes, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cb, cs, faults); err != nil {
			b.Fatal(err)
		}
	}
}

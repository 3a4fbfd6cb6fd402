package circuit

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseS27(t *testing.T) {
	c := S27()
	n := c.Count()
	if n.Inputs != 4 || n.Outputs != 1 || n.DFFs != 3 {
		t.Fatalf("counts = %+v", n)
	}
	if n.Gates != 4+3+10 {
		t.Fatalf("gate count = %d", n.Gates)
	}
	if _, ok := c.ByName("G11"); !ok {
		t.Fatal("G11 missing")
	}
}

func TestParseC17(t *testing.T) {
	c := C17()
	n := c.Count()
	if n.Inputs != 5 || n.Outputs != 2 || n.DFFs != 0 || n.Combinational != 6 {
		t.Fatalf("counts = %+v", n)
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c := S27()
	var buf bytes.Buffer
	if err := c.writeBench(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench("s27rt", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if c2.Count() != c.Count() {
		t.Fatalf("counts changed: %+v vs %+v", c2.Count(), c.Count())
	}
	// Same structure gate by gate (names map identically).
	for _, g := range c.Gates {
		id2, ok := c2.ByName(g.Name)
		if !ok {
			t.Fatalf("gate %s lost", g.Name)
		}
		g2 := c2.Gates[id2]
		if g2.Type != g.Type || len(g2.Fanin) != len(g.Fanin) {
			t.Fatalf("gate %s changed: %v vs %v", g.Name, g2, g)
		}
		for i := range g.Fanin {
			if c2.Gates[g2.Fanin[i]].Name != c.Gates[g.Fanin[i]].Name {
				t.Fatalf("gate %s fanin %d changed", g.Name, i)
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"G1 = NAND(G0)\n",                          // undefined net
		"INPUT(a)\nINPUT(a)\n",                     // duplicate
		"INPUT(a)\nfoo bar\n",                      // junk
		"INPUT(a)\nG2 = FROB(a, a)\n",              // unknown type
		"INPUT(a)\nOUTPUT(zz)\nG2 = NOT(a)\n",      // undefined output
		"INPUT(a)\nG1 = AND(a)\n",                  // arity
		"G1 = NOT(G2)\nG2 = NOT(G1)\nOUTPUT(G1)\n", // combinational cycle
	}
	for i, s := range bad {
		if _, err := ParseBench("bad", strings.NewReader(s)); err == nil {
			t.Errorf("case %d parsed without error:\n%s", i, s)
		}
	}
}

func TestLevelizeOrdersFaninsFirst(t *testing.T) {
	c := S27()
	order, err := c.levelize()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for id, g := range c.Gates {
		if g.Type == Input || g.Type == DFF {
			continue
		}
		for _, f := range g.Fanin {
			if pos[f] >= pos[id] {
				t.Fatalf("gate %s evaluated before fanin %s", g.Name, c.Gates[f].Name)
			}
		}
	}
}

func TestSequentialLoopIsLegal(t *testing.T) {
	// A cycle through a DFF is fine; only combinational cycles fail.
	src := "INPUT(a)\nOUTPUT(q)\nq = DFF(d)\nd = NAND(a, q)\n"
	if _, err := ParseBench("loop", strings.NewReader(src)); err != nil {
		t.Fatalf("DFF loop rejected: %v", err)
	}
}

func TestCombView(t *testing.T) {
	cb, err := NewComb(S27())
	if err != nil {
		t.Fatal(err)
	}
	if cb.Width() != 4+3 {
		t.Fatalf("width = %d", cb.Width())
	}
	if cb.ObsCount() != 1+3 {
		t.Fatalf("obs = %d", cb.ObsCount())
	}
	// Pattern bit 0..3 are PIs, 4..6 the DFFs.
	for i := 0; i < 4; i++ {
		if cb.C.Gates[cb.InputAt(i)].Type != Input {
			t.Fatalf("pattern bit %d not a PI", i)
		}
	}
	for i := 4; i < 7; i++ {
		if cb.C.Gates[cb.InputAt(i)].Type != DFF {
			t.Fatalf("pattern bit %d not a scan cell", i)
		}
	}
}

func TestGenerateValidAndDeterministic(t *testing.T) {
	cfg := GenConfig{Name: "synth", Inputs: 12, Outputs: 6, DFFs: 20, Comb: 300, Seed: 99}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb bytes.Buffer
	a.writeBench(&ab)
	b.writeBench(&bb)
	if ab.String() != bb.String() {
		t.Fatal("generator not deterministic")
	}
	n := a.Count()
	if n.Inputs != 12 || n.Outputs != 6 || n.DFFs != 20 || n.Combinational != 300 {
		t.Fatalf("counts = %+v", n)
	}
}

func TestGenerateRejectsBadConfigs(t *testing.T) {
	for i, cfg := range []GenConfig{
		{Inputs: 0, Outputs: 1, Comb: 1},
		{Inputs: 1, Outputs: 0, Comb: 1},
		{Inputs: 1, Outputs: 1, Comb: 0},
		{Inputs: 1, Outputs: 1, Comb: 1, DFFs: -1},
		{Inputs: 1, Outputs: 1, Comb: 1, MaxFanin: 1},
		{Inputs: 1, Outputs: 99, Comb: 2},
	} {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

// Property: generated circuits across seeds always validate and levelize.
func TestQuickGenerateAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		cfg := GenConfig{Name: "q", Inputs: 4, Outputs: 2, DFFs: 5, Comb: 40, Seed: seed}
		c, err := Generate(cfg)
		if err != nil {
			return false
		}
		return c.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteBenchGoldenC17(t *testing.T) {
	var buf bytes.Buffer
	if err := C17().writeBench(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	for _, want := range []string{
		"INPUT(N1)", "OUTPUT(N22)", "OUTPUT(N23)",
		"N10 = NAND(N1, N3)", "N23 = NAND(N16, N19)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

func TestFanoutLists(t *testing.T) {
	c := C17()
	n3, _ := c.ByName("N3")
	fo := c.Fanout()[n3]
	if len(fo) != 2 {
		t.Fatalf("N3 fanout = %d, want 2", len(fo))
	}
	names := map[string]bool{}
	for _, s := range fo {
		names[c.Gates[s].Name] = true
	}
	if !names["N10"] || !names["N11"] {
		t.Fatalf("N3 fans out to %v", names)
	}
}

func TestGateTypeHelpers(t *testing.T) {
	if !Not.Inverting() || !Nand.Inverting() || !Nor.Inverting() || !Xnor.Inverting() {
		t.Error("inverting types misreported")
	}
	if And.Inverting() || Or.Inverting() || Buf.Inverting() || Xor.Inverting() {
		t.Error("non-inverting types misreported")
	}
	if And.String() != "AND" || DFF.String() != "DFF" {
		t.Errorf("type names: %v %v", And, DFF)
	}
}

func TestAddGateErrors(t *testing.T) {
	c := New("t")
	if _, err := c.AddGate("a", Input); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddGate("a", Input); err == nil {
		t.Fatal("duplicate accepted")
	}
}

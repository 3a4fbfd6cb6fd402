package lzwtc

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lzwtc/internal/atpg"
	"lzwtc/internal/circuit"
	"lzwtc/internal/decomp"
	"lzwtc/internal/mem"
	"lzwtc/internal/scan"
)

func sampleSet(t *testing.T) *TestSet {
	t.Helper()
	ts, err := ReadTestSet(strings.NewReader(`# sample
01XX10XX
X1XX10X0
0XXX1XXX
01XX10XX
`))
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestCompressDecompressVerify(t *testing.T) {
	ts := sampleSet(t)
	cfg := Config{CharBits: 2, DictSize: 16, EntryBits: 8}
	res, err := Compress(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cubes) != 4 || back.Width != 8 {
		t.Fatalf("shape %dx%d", len(back.Cubes), back.Width)
	}
	for _, c := range back.Cubes {
		if c.XCount() != 0 {
			t.Fatal("decompressed pattern not fully specified")
		}
	}
	if err := Verify(ts, back); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCatchesCorruption(t *testing.T) {
	ts := sampleSet(t)
	res, err := Compress(ts, Config{CharBits: 2, DictSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(res)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a specified bit.
	back.Cubes[0].Set(0, One) // original bit 0 of pattern 0 is '0'
	if err := Verify(ts, back); err == nil {
		t.Fatal("corruption not detected")
	}
	if err := Verify(ts, NewTestSet(8)); err == nil {
		t.Fatal("shape mismatch not detected")
	}
}

func TestCompressErrors(t *testing.T) {
	if _, err := Compress(NewTestSet(4), DefaultConfig()); err == nil {
		t.Fatal("empty set accepted")
	}
	ts := sampleSet(t)
	if _, err := Compress(ts, Config{CharBits: 0, DictSize: 4}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestContainerRoundTrip(t *testing.T) {
	ts := sampleSet(t)
	cfg := Config{CharBits: 3, DictSize: 32, EntryBits: 9}
	res, err := Compress(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := res.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeWireResult(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Width != res.Width || dec.Patterns != res.Patterns || dec.OriginalBits != res.OriginalBits {
		t.Fatalf("geometry changed: %+v vs %+v", dec, res)
	}
	back, err := Decompress(dec)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(ts, back); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWireResult(enc[:4]); err == nil {
		t.Fatal("truncated container accepted")
	}
	if _, err := DecodeWireResult([]byte("xxxxxxxxxxxx")); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestRatioAccounting(t *testing.T) {
	ts := sampleSet(t)
	cfg := Config{CharBits: 2, DictSize: 16}
	res, err := Compress(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginalBits != 32 {
		t.Fatalf("OriginalBits = %d", res.OriginalBits)
	}
	want := 1 - float64(res.CompressedBits())/32
	if got := res.Ratio(); got != want {
		t.Fatalf("Ratio = %v, want %v", got, want)
	}
}

// Property: arbitrary random test sets round-trip with care bits
// preserved under the default configuration.
func TestQuickFacadeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := rng.Intn(60) + 1
		ts := NewTestSet(width)
		for p := 0; p < rng.Intn(20)+1; p++ {
			pat := MustPattern(strings.Repeat("X", width))
			for b := 0; b < width; b++ {
				if rng.Float64() < 0.4 {
					pat.Set(b, Bit(rng.Intn(2)))
				}
			}
			if err := ts.Add(pat); err != nil {
				return false
			}
		}
		cfg := Config{CharBits: 4, DictSize: 64, EntryBits: 16}
		res, err := Compress(ts, cfg)
		if err != nil {
			return false
		}
		back, err := Decompress(res)
		if err != nil {
			return false
		}
		return Verify(ts, back) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndSoCFlow runs the Figures 1+2 pipeline on a synthetic core:
// netlist -> scan insertion -> PODEM cubes -> LZW compression -> cycle-
// accurate hardware decompression on shared embedded memory -> scan
// application -> response check against the cube-level good machine.
func TestEndToEndSoCFlow(t *testing.T) {
	gen, err := circuit.Generate(circuit.GenConfig{Name: "core0", Inputs: 16, Outputs: 8, DFFs: 48, Comb: 350, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	design, err := scan.Insert(gen, 1)
	if err != nil {
		t.Fatal(err)
	}
	ares, err := atpg.Run(design.Comb, atpg.Options{Collapse: true, Seed: 42, RandomPatterns: 16})
	if err != nil {
		t.Fatal(err)
	}
	cubes := ares.Cubes
	if len(cubes.Cubes) == 0 || cubes.XDensity() < 0.1 {
		t.Fatalf("implausible cube set: %d patterns, X %.3f", len(cubes.Cubes), cubes.XDensity())
	}

	cfg := Config{CharBits: 7, DictSize: 512, EntryBits: 63}
	res, err := Compress(cubes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ratio() <= 0 {
		t.Fatalf("no compression on ATPG cubes: %.4f", res.Ratio())
	}

	// Hardware decompression into the scan stream.
	words, width := decomp.MemoryGeometry(cfg)
	sh := mem.NewShared(mem.New(words, width))
	sh.Select(mem.SrcLZW)
	hw, err := decomp.New(cfg, 8, sh)
	if err != nil {
		t.Fatal(err)
	}
	stream, _, err := hw.Run(res.Shards[0].Pack(), len(res.Shards[0].Codes), res.Shards[0].InputBits)
	if err != nil {
		t.Fatal(err)
	}
	filled, err := DecompressedSetFromStream(stream, res)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(cubes, filled); err != nil {
		t.Fatal(err)
	}

	// Scan application: filled responses must agree with every specified
	// cube response.
	cubeResp, err := design.ApplySet(cubes)
	if err != nil {
		t.Fatal(err)
	}
	filledResp, err := design.ApplySet(filled)
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.ResponsesCompatible(cubeResp, filledResp); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateDownload(t *testing.T) {
	ts := sampleSet(t)
	cfg := Config{CharBits: 2, DictSize: 16, EntryBits: 8}
	res, err := Compress(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	filled, stats, imp, err := SimulateDownload(res, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(ts, filled); err != nil {
		t.Fatal(err)
	}
	if stats.CodesDecoded != len(res.Shards[0].Codes) {
		t.Fatalf("decoded %d codes", stats.CodesDecoded)
	}
	if imp <= -1 || imp >= 1 {
		t.Fatalf("improvement = %v", imp)
	}
	// Closed-form prediction matches the simulation.
	tc, err := PredictDownloadCycles(res, 8)
	if err != nil {
		t.Fatal(err)
	}
	if tc != stats.TesterCycles {
		t.Fatalf("predicted %d cycles, simulated %d", tc, stats.TesterCycles)
	}
	// Unbounded configurations have no hardware realization.
	res2, err := Compress(ts, Config{CharBits: 2, DictSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := SimulateDownload(res2, 8); err == nil {
		t.Fatal("unbounded config accepted")
	}
}

// TestHardwareEntryPointsRefuseShards: the cycle model decodes one
// code stream, so every hardware entry point runs a one-shard Result
// and refuses a multi-shard one with an error naming the shard count.
func TestHardwareEntryPointsRefuseShards(t *testing.T) {
	ts := conformanceSet(7, 12, 20, 0.6)
	cfg := Config{CharBits: 4, DictSize: 64, EntryBits: 16}
	entries := map[string]func(*Result) error{
		"SimulateDownload": func(r *Result) error {
			_, _, _, err := SimulateDownload(r, 8)
			return err
		},
		"SimulateDownloadObserved": func(r *Result) error {
			_, _, _, err := SimulateDownloadObserved(r, 8, nil)
			return err
		},
		"PredictDownloadCycles": func(r *Result) error {
			_, err := PredictDownloadCycles(r, 8)
			return err
		},
	}
	for _, tc := range []struct {
		per, shards int
	}{{0, 1}, {4, 3}} {
		res, err := CompressSharded(context.Background(), ts, cfg, tc.per, BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Shards) != tc.shards {
			t.Fatalf("per=%d: %d shards, want %d", tc.per, len(res.Shards), tc.shards)
		}
		for name, run := range entries {
			err := run(res)
			switch {
			case tc.shards == 1 && err != nil:
				t.Errorf("%s on one shard: %v", name, err)
			case tc.shards > 1 && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d shards", tc.shards))):
				t.Errorf("%s on %d shards: got %v, want an error naming the shard count", name, tc.shards, err)
			}
		}
	}
}

package lzwtc

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"lzwtc/internal/bench"
	"lzwtc/internal/bitvec"
)

var updateConformance = flag.Bool("update", false, "regenerate the conformance corpus under testdata/conformance")

// conformanceCase is one golden corpus entry: a deterministic test-set
// builder and the configuration it is compressed under. Three files are
// committed per case: <name>.cubes (the input cubes), <name>.lzw (the
// wire container — pins the compressor's exact output together with
// the Config it was made under) and <name>.expected (the fully
// specified decompressed set).
type conformanceCase struct {
	name  string
	cfg   Config
	build func() *TestSet
}

// conformanceSet builds a deterministic cube set with the given
// don't-care density; independent of the bench generators so corpus
// inputs do not move when workload calibration does.
func conformanceSet(seed int64, patterns, width int, xDensity float64) *TestSet {
	rng := rand.New(rand.NewSource(seed))
	cs := bitvec.NewCubeSet(width)
	for p := 0; p < patterns; p++ {
		v := bitvec.New(width)
		for i := 0; i < width; i++ {
			if rng.Float64() >= xDensity {
				v.Set(i, bitvec.Bit(rng.Intn(2)))
			}
		}
		if err := cs.Add(v); err != nil {
			panic(err)
		}
	}
	return cs
}

// conformanceCases spans the configuration corners the decompressor
// hardware and the PR-1 fuzz findings care about: C_C in {2, 4, 8},
// dictionary sizes including the all-literal DictSize == 2^CharBits
// edge, both dictionary-full policies, every fill/tie policy, all-X and
// fully-specified sets, a width that does not divide the character
// size, and a paper-workload slice.
func conformanceCases() []conformanceCase {
	return []conformanceCase{
		{"cc2-minimal-dict", Config{CharBits: 2, DictSize: 4, EntryBits: 8, Full: FullReset},
			func() *TestSet { return conformanceSet(101, 12, 10, 0.6) }},
		{"cc2-reset", Config{CharBits: 2, DictSize: 32, EntryBits: 8, Full: FullReset},
			func() *TestSet { return conformanceSet(102, 20, 16, 0.7) }},
		{"cc2-freeze", Config{CharBits: 2, DictSize: 32, EntryBits: 8},
			func() *TestSet { return conformanceSet(103, 20, 16, 0.7) }},
		{"cc4-freeze", Config{CharBits: 4, DictSize: 128, EntryBits: 16},
			func() *TestSet { return conformanceSet(104, 24, 32, 0.8) }},
		{"cc4-reset", Config{CharBits: 4, DictSize: 128, EntryBits: 16, Full: FullReset},
			func() *TestSet { return conformanceSet(105, 24, 32, 0.8) }},
		{"cc4-edge-dict", Config{CharBits: 4, DictSize: 16, EntryBits: 16},
			func() *TestSet { return conformanceSet(106, 16, 20, 0.5) }},
		{"cc8-default", Config{CharBits: 8, DictSize: 1024, EntryBits: 64},
			func() *TestSet { return conformanceSet(107, 30, 64, 0.85) }},
		{"cc8-edge-dict", Config{CharBits: 8, DictSize: 256, EntryBits: 64, Full: FullReset},
			func() *TestSet { return conformanceSet(108, 16, 40, 0.6) }},
		{"all-x", Config{CharBits: 4, DictSize: 64, EntryBits: 16},
			func() *TestSet { return conformanceSet(109, 10, 24, 1.0) }},
		{"no-x", Config{CharBits: 4, DictSize: 64, EntryBits: 16},
			func() *TestSet { return conformanceSet(110, 10, 24, 0.0) }},
		{"fill-one-tie-newest", Config{CharBits: 4, DictSize: 64, EntryBits: 16, Fill: FillOne, Tie: TieNewest},
			func() *TestSet { return conformanceSet(111, 18, 28, 0.75) }},
		{"fill-repeat-tie-widest", Config{CharBits: 4, DictSize: 64, EntryBits: 16, Fill: FillRepeat, Tie: TieWidest},
			func() *TestSet { return conformanceSet(112, 18, 28, 0.75) }},
		{"unaligned-width", Config{CharBits: 8, DictSize: 512, EntryBits: 32},
			func() *TestSet { return conformanceSet(113, 14, 27, 0.7) }},
		{"paper-slice", Config{CharBits: 7, DictSize: 1024, EntryBits: 63},
			func() *TestSet {
				p, err := bench.ByName("s5378")
				if err != nil {
					panic(err)
				}
				full := p.Generate()
				return &bitvec.CubeSet{Width: full.Width, Cubes: full.Cubes[:20]}
			}},
	}
}

func conformancePath(name, ext string) string {
	return filepath.Join("testdata", "conformance", name+ext)
}

// TestConformance round-trips every committed corpus entry and pins the
// compressor's exact bit stream: the builder must reproduce the
// committed cubes, compressing them must reproduce the committed wire
// container byte for byte, and decompressing the committed container
// must reproduce the committed fully specified set while preserving
// every care bit. Run `go test -run TestConformance -update` after an
// intentional compressor change to regenerate the corpus.
func TestConformance(t *testing.T) {
	if *updateConformance {
		if err := regenerateConformance(); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ts := c.build()
			var cubesBuf bytes.Buffer
			if err := ts.WriteCubes(&cubesBuf); err != nil {
				t.Fatal(err)
			}
			wantCubes := readConformance(t, c.name, ".cubes")
			if !bytes.Equal(cubesBuf.Bytes(), wantCubes) {
				t.Fatalf("builder output differs from %s — the deterministic generator moved.\n%s", conformancePath(c.name, ".cubes"), regenHint)
			}

			res, err := Compress(context.Background(), ts, c.cfg, Options{})
			if err != nil {
				t.Fatal(err)
			}
			gotLzw := wireBytes(t, res)
			wantLzw := readConformance(t, c.name, ".lzw")
			if !bytes.Equal(gotLzw, wantLzw) {
				t.Fatalf("compressed container differs from %s — the compressor's output changed.\n%s", conformancePath(c.name, ".lzw"), regenHint)
			}

			filled, err := Decompress(context.Background(), bytes.NewReader(wantLzw), Options{})
			if err != nil {
				t.Fatalf("decompressing committed container: %v", err)
			}
			var filledBuf bytes.Buffer
			if err := filled.WriteCubes(&filledBuf); err != nil {
				t.Fatal(err)
			}
			wantFilled := readConformance(t, c.name, ".expected")
			if !bytes.Equal(filledBuf.Bytes(), wantFilled) {
				t.Fatalf("decompressed set differs from %s — the decompressor's output changed.\n%s", conformancePath(c.name, ".expected"), regenHint)
			}
			if err := Verify(ts, filled); err != nil {
				t.Fatalf("care bits not preserved: %v", err)
			}
		})
	}
}

const regenHint = "if the change is intentional, regenerate with: go test -run TestConformance -update"

func readConformance(t *testing.T, name, ext string) []byte {
	t.Helper()
	data, err := os.ReadFile(conformancePath(name, ext))
	if err != nil {
		t.Fatalf("%v\n%s", err, regenHint)
	}
	return data
}

// regenerateConformance rewrites the whole corpus from the case table.
func regenerateConformance() error {
	if err := os.MkdirAll(filepath.Join("testdata", "conformance"), 0o755); err != nil {
		return err
	}
	for _, c := range conformanceCases() {
		ts := c.build()
		var cubesBuf bytes.Buffer
		if err := ts.WriteCubes(&cubesBuf); err != nil {
			return err
		}
		if err := os.WriteFile(conformancePath(c.name, ".cubes"), cubesBuf.Bytes(), 0o644); err != nil {
			return err
		}
		res, err := Compress(context.Background(), ts, c.cfg, Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		var container bytes.Buffer
		if err := res.WriteWire(&container); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		if err := os.WriteFile(conformancePath(c.name, ".lzw"), container.Bytes(), 0o644); err != nil {
			return err
		}
		filled, err := res.Decompress(context.Background(), Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		var filledBuf bytes.Buffer
		if err := filled.WriteCubes(&filledBuf); err != nil {
			return err
		}
		if err := os.WriteFile(conformancePath(c.name, ".expected"), filledBuf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lzwtc/internal/bitvec"
)

// The old serialize path, kept as the reference for the cube-set
// bodies: the set is first copied into one aligned stream (every
// pattern padded with X bits to a character boundary), compressed as a
// bare stream, and the decoded stream is split back into patterns.

func refCompressSet(cs *bitvec.CubeSet, cfg Config, pre *Preload) (*Result, error) {
	return CompressWithPreload(cs.SerializeAligned(cfg.CharBits), cfg, pre)
}

func refDecompressSet(res *Result, width int, pre *Preload) (*bitvec.CubeSet, error) {
	stream, err := DecompressWithPreload(res.Codes, res.Cfg, pre, res.InputBits)
	if err != nil {
		return nil, err
	}
	return bitvec.DeserializeAligned(stream, width, res.Cfg.CharBits)
}

// TestCubeSetMatchesSerializePath compares compressing from and decoding
// into the cube set with the serialize path, over widths 1–130 × C_C
// 1–16 × 1, 2 and 7 patterns, cold and preloaded: the same codes, input
// length and statistics, and the same decoded cubes, plane word for
// plane word.
func TestCubeSetMatchesSerializePath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for cc := 1; cc <= 16; cc++ {
		cfg := Config{CharBits: cc, DictSize: 1<<uint(cc) + 48, EntryBits: 64}
		pre, err := TrainSet(oneCube(randomCube(rng, 40*cc+300, 0.7)), cfg, 16)
		if err != nil {
			t.Fatal(err)
		}
		for width := 1; width <= 130; width++ {
			for _, patterns := range []int{1, 2, 7} {
				cs := bitvec.NewCubeSet(width)
				for range patterns {
					cs.Cubes = append(cs.Cubes, randomCube(rng, width, 0.7))
				}
				for _, p := range []*Preload{nil, pre} {
					name := fmt.Sprintf("cc=%d width=%d patterns=%d preload=%d", cc, width, patterns, p.Entries())
					compareWithSerializePath(t, name, cs, cfg, p)
				}
			}
		}
	}
}

func compareWithSerializePath(t *testing.T, name string, cs *bitvec.CubeSet, cfg Config, pre *Preload) {
	t.Helper()
	got, err := CompressWithPreloadObservedCtx(context.Background(), cs, cfg, pre, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := refCompressSet(cs, cfg, pre)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	if !slices.Equal(got.Codes, want.Codes) || got.InputBits != want.InputBits || got.Stats != want.Stats {
		t.Fatalf("%s: compress differs from the serialize path\n got %d codes, %d bits, %+v\nwant %d codes, %d bits, %+v",
			name, len(got.Codes), got.InputBits, got.Stats, len(want.Codes), want.InputBits, want.Stats)
	}
	if cap(got.Codes) != len(got.Codes) {
		t.Fatalf("%s: code column has capacity %d for %d codes", name, cap(got.Codes), len(got.Codes))
	}
	set, err := DecompressWithPreloadObservedCtx(context.Background(), got.Codes, cfg, pre, cs.Width, len(cs.Cubes), nil)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	ref, err := refDecompressSet(want, cs.Width, pre)
	if err != nil {
		t.Fatalf("%s: reference decode: %v", name, err)
	}
	if set.Width != ref.Width || len(set.Cubes) != len(ref.Cubes) {
		t.Fatalf("%s: decoded %d×%d, reference %d×%d", name, len(set.Cubes), set.Width, len(ref.Cubes), ref.Width)
	}
	for i, c := range set.Cubes {
		gv, gc := c.Planes()
		wv, wc := ref.Cubes[i].Planes()
		if c.Len() != ref.Cubes[i].Len() || !slices.Equal(gv, wv) || !slices.Equal(gc, wc) {
			t.Fatalf("%s: cube %d decoded %s, reference %s", name, i, c, ref.Cubes[i])
		}
		if !cs.Cubes[i].CompatibleWith(c) {
			t.Fatalf("%s: cube %d lost a care bit", name, i)
		}
	}
}

// TestCubeSetDecodeLengthErrors: a code stream that does not fill the
// patterns exactly fails, and the pattern count and width are checked.
func TestCubeSetDecodeLengthErrors(t *testing.T) {
	cfg := Config{CharBits: 3, DictSize: 64, EntryBits: 12}
	cs := bitvec.NewCubeSet(5) // 6-bit slots
	for _, s := range []string{"01X1X", "1XX00", "X0X1X"} {
		if err := cs.Add(bitvec.MustParse(s)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := CompressWithPreloadObservedCtx(context.Background(), cs, cfg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.InputBits != 18 {
		t.Fatalf("InputBits = %d, want 3 patterns × 6 padded bits", res.InputBits)
	}
	for _, tc := range []struct{ width, patterns int }{{5, 2}, {5, 4}, {2, 3}, {8, 3}, {-1, 3}, {5, -1}} {
		if _, err := DecompressWithPreloadObservedCtx(context.Background(), res.Codes, cfg, nil, tc.width, tc.patterns, nil); err == nil {
			t.Errorf("%d patterns of width %d: decoded codes made for 3 of width 5", tc.patterns, tc.width)
		}
	}
	if _, err := CompressWithPreloadObservedCtx(context.Background(),
		&bitvec.CubeSet{Width: 5, Cubes: []*bitvec.Vector{bitvec.New(6)}}, cfg, nil, nil); err == nil {
		t.Error("compressed a cube wider than its set")
	}
}

// TestCodeColumnRecycled: the compressor's code column rides the
// dictionary arena, and a column above maxPooledCodes is dropped on
// release rather than kept.
func TestCodeColumnRecycled(t *testing.T) {
	d := newDict(DefaultConfig())
	d.emit = make([]Code, 0, maxPooledCodes+1)
	releaseDict(d)
	if d.emit != nil {
		t.Fatalf("released a %d-code column into the arena", maxPooledCodes+1)
	}
	d = newDict(DefaultConfig())
	d.emit = make([]Code, 0, 64)
	releaseDict(d)
	if cap(d.emit) != 64 {
		t.Fatalf("a small column was not kept: capacity %d", cap(d.emit))
	}
}

// TestMaxOutputBitsBoundsDecode: every decoded stream stays within
// MaxOutputBits of its code count, cold and preloaded, and a request
// beyond the bound fails with the full decoder's own error.
func TestMaxOutputBitsBoundsDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, cfg := range []Config{
		DefaultConfig(),
		{CharBits: 1, DictSize: 64},                  // unbounded entries
		{CharBits: 2, DictSize: 16, EntryBits: 6},    // short entries, FullFreeze
		{CharBits: 4, DictSize: 32, Full: FullReset}, // resets
	} {
		pres := []*Preload{nil}
		if cfg.Full == FullFreeze {
			pre, err := TrainSet(oneCube(randomCube(rng, 400, 0.9)), cfg, 8)
			if err != nil {
				t.Fatal(err)
			}
			pres = append(pres, pre)
		}
		for _, pre := range pres {
			for _, xd := range []float64{0, 0.9, 1} {
				stream := randomCube(rng, 500, xd)
				res, err := CompressWithPreload(stream, cfg, pre)
				if err != nil {
					t.Fatal(err)
				}
				most := cfg.MaxOutputBits(len(res.Codes), pre.longest())
				if padded := cfg.PaddedWidth(stream.Len()); padded > most {
					t.Fatalf("%+v x=%.1f: %d codes decoded to %d bits, bound %d", cfg, xd, len(res.Codes), padded, most)
				}
				_, err = DecompressWithPreload(res.Codes, cfg, pre, most+1)
				if want := fmt.Sprintf("core: code stream produced %d bits, need %d", cfg.PaddedWidth(stream.Len()), most+1); fmt.Sprint(err) != want {
					t.Fatalf("%+v: beyond the bound got %v, want %s", cfg, err, want)
				}
			}
		}
	}
}

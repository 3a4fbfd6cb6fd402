package core

import (
	"math/rand"
	"testing"
)

// Edge-case coverage for the bit-sliced child index: chain lengths
// around the 64-lane block boundary, all-X and zero-X cubes, the
// direct vs dense block layouts, reinit stride reuse across CharBits,
// and the per-block match kernel lane for lane. The map-based
// refMatcher is the behavioral reference throughout.

// slicedCfg is the common shape: cc8 so chains can exceed 64 children.
func slicedCfg(dictSize int, tie TieBreak) Config {
	return Config{CharBits: 8, DictSize: dictSize, Fill: FillRepeat, Tie: tie, Full: FullFreeze}
}

// mirroredDict builds a dict and its refMatcher shadow with `children`
// consecutive-character children under literal parent 1.
func mirroredDict(t *testing.T, cfg Config, children int) (*dict, *refMatcher) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	d := newDict(cfg)
	ref := newRefMatcher(cfg)
	for i := 0; i < children; i++ {
		c, ok := d.add(1, uint64(i))
		if !ok {
			t.Fatalf("add child %d failed", i)
		}
		ref.add(1, uint64(i), c)
	}
	return d, ref
}

// TestChainBlockBoundaries drives chains whose lane counts straddle the
// 64-lane block width — including exact multiples, where the tail block
// is full and TieNewest's (count-1) mod 64 lane arithmetic wraps — and
// checks every tie policy against the reference over a query sweep.
func TestChainBlockBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 200} {
		for _, tie := range []TieBreak{TieOldest, TieNewest, TieWidest} {
			d, ref := mirroredDict(t, slicedCfg(1024, tie), n)
			fullMask := uint64(0xff)
			queries := [][2]uint64{
				{0, 0},                     // all-X
				{0, 0xff},                  // exact zero
				{uint64(n-1) & 0xff, 0xff}, // exact last child
				{0, 0x80},                  // single cared bit, zero
				{0x80, 0x80},               // single cared bit, one
				{0x01, 0x0f},               // low nibble cared
				{0x40, 0xc0},               // cared bits demand a miss for small chains
			}
			for i := 0; i < 64; i++ {
				care := rng.Uint64() & 0xff
				queries = append(queries, [2]uint64{rng.Uint64() & care, care})
			}
			for _, q := range queries {
				val, care := q[0], q[1]
				got, gok := d.findChild(1, val, care, fullMask)
				want, wok := ref.findChild(1, val, care, fullMask)
				if gok != wok || (gok && got != want) {
					t.Fatalf("n=%d tie=%v val=%#x care=%#x: flat=(%d,%v) ref=(%d,%v)",
						n, tie, val, care, got, gok, want, wok)
				}
			}
			// Childless parent and literal without children: clean misses.
			if _, ok := d.findChild(2, 0, 0, fullMask); ok {
				t.Fatalf("n=%d tie=%v: childless parent matched", n, tie)
			}
		}
	}
}

// TestAllXAndZeroXCubes pins the two degenerate query masks: care == 0
// must resolve positionally per policy (oldest child, newest child,
// widest child) and care == fullMask must agree with the exact probe
// table, both across block boundaries.
func TestAllXAndZeroXCubes(t *testing.T) {
	for _, n := range []int{1, 64, 65, 130} {
		for _, tie := range []TieBreak{TieOldest, TieNewest, TieWidest} {
			d, ref := mirroredDict(t, slicedCfg(1024, tie), n)
			fullMask := uint64(0xff)
			got, gok := d.findChild(1, 0, 0, fullMask)
			want, wok := ref.findChild(1, 0, 0, fullMask)
			if gok != wok || got != want {
				t.Fatalf("n=%d tie=%v all-X: flat=(%d,%v) ref=(%d,%v)", n, tie, got, gok, want, wok)
			}
			for i := 0; i < n; i++ {
				ec, eok := d.findChild(1, uint64(i), fullMask, fullMask)
				mc, mok := d.findChildMasked(1, uint64(i), fullMask, fullMask)
				if !eok || !mok || ec != mc {
					t.Fatalf("n=%d tie=%v zero-X char %d: exact=(%d,%v) masked=(%d,%v)",
						n, tie, i, ec, eok, mc, mok)
				}
			}
		}
	}
}

// TestLiteralsOnlyDictionaryMasked covers DictSize == 2^CharBits for the
// masked path: the dictionary is born full and permanently frozen, and a
// masked lookup must miss cleanly (no plane blocks exist to sync).
func TestLiteralsOnlyDictionaryMasked(t *testing.T) {
	cfg := Config{CharBits: 4, DictSize: 16, Fill: FillRepeat, Tie: TieOldest, Full: FullReset}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	d := newDict(cfg)
	for _, q := range [][2]uint64{{0, 0}, {3, 0xf}, {1, 0x3}} {
		if c, ok := d.findChildMasked(5, q[0], q[1], 0xf); ok {
			t.Fatalf("masked lookup (%#x,%#x) found %d in a literals-only dictionary", q[0], q[1], c)
		}
	}
	if d.resets != 0 {
		t.Fatalf("literals-only dictionary reset %d times", d.resets)
	}
}

// TestDenseLayoutEquivalence repeats the boundary sweep on a dictionary
// past maxDirectBlocks, where first blocks come from the on-demand
// arena instead of the code-indexed region.
func TestDenseLayoutEquivalence(t *testing.T) {
	cfg := slicedCfg(2*maxDirectBlocks, TieOldest)
	if directLayout(cfg) {
		t.Fatalf("DictSize %d unexpectedly uses the direct layout", cfg.DictSize)
	}
	rng := rand.New(rand.NewSource(7))
	for _, tie := range []TieBreak{TieOldest, TieNewest, TieWidest} {
		cfg.Tie = tie
		d, ref := mirroredDict(t, cfg, 150)
		for i := 0; i < 200; i++ {
			care := rng.Uint64() & 0xff
			val := rng.Uint64() & care
			got, gok := d.findChild(1, val, care, 0xff)
			want, wok := ref.findChild(1, val, care, 0xff)
			if gok != wok || (gok && got != want) {
				t.Fatalf("dense tie=%v val=%#x care=%#x: flat=(%d,%v) ref=(%d,%v)",
					tie, val, care, got, gok, want, wok)
			}
		}
	}
}

// TestReinitStrideReuse recycles one dict through CharBits and DictSize
// changes — including direct → dense → direct transitions, which leave
// stale headers and stale lane codes in the arenas — and checks the
// recycled dictionary against a fresh reference each time.
func TestReinitStrideReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// Largest first: reinit reuses backing arrays and cannot grow them
	// (the arena checks fits() before recycling), so the sequence shrinks
	// — dense cc8 → direct cc8 → direct cc4 → direct cc8 — leaving stale
	// headers and stale lane codes from the bigger epochs in the arenas.
	cfgs := []Config{
		slicedCfg(2*maxDirectBlocks, TieOldest),                                         // dense, cc8
		slicedCfg(1024, TieOldest),                                                      // direct, cc8 (shrunk)
		{CharBits: 4, DictSize: 64, Fill: FillRepeat, Tie: TieNewest, Full: FullFreeze}, // direct, cc4
		slicedCfg(1024, TieWidest),                                                      // direct, cc8 again
	}
	var d *dict
	for ci, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		if d == nil {
			d = newDict(cfg)
		} else {
			if !d.fits(cfg) {
				t.Fatalf("cfg %d does not fit the recycled dictionary", ci)
			}
			d.reinit(cfg)
		}
		ref := newRefMatcher(cfg)
		fullMask := uint64(1)<<uint(cfg.CharBits) - 1
		lits := uint64(cfg.Literals())
		for i := 0; i < 120; i++ {
			parent := Code(rng.Intn(int(d.next)))
			char := uint64(rng.Intn(int(lits)))
			if _, dup := d.lookupChild(parent, char); dup {
				continue
			}
			if c, ok := d.add(parent, char); ok {
				ref.add(parent, char, c)
			}
		}
		for i := 0; i < 300; i++ {
			code := Code(rng.Intn(int(d.next)))
			care := rng.Uint64() & fullMask
			val := rng.Uint64() & care
			got, gok := d.findChild(code, val, care, fullMask)
			want, wok := ref.findChild(code, val, care, fullMask)
			if gok != wok || (gok && got != want) {
				t.Fatalf("cfg %d code=%d val=%#x care=%#x: flat=(%d,%v) ref=(%d,%v)",
					ci, code, val, care, got, gok, want, wok)
			}
		}
	}
}

// TestBlockMatchAgainstReference fills a block with distinct random
// concrete characters over the character widths 1–16 and checks the
// match kernel lane for lane against a per-lane reference over random
// queries, including care = 0 (every lane survives) and full-care exact
// queries. A lane bound below the fill must keep the excluded lanes out
// whatever the query.
func TestBlockMatchAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, width := range []int{1, 2, 7, 8, 13, 16} {
		mask := uint64(1)<<uint(width) - 1
		for _, fill := range []int{1, 3, 63, 64} {
			fill = min(fill, 1<<uint(width))
			cfg := Config{CharBits: width, DictSize: 2 << uint(width), Tie: TieOldest, Full: FullFreeze}
			d := newDict(cfg)
			chars := make([]uint64, 0, fill)
			for len(chars) < fill {
				ch := rng.Uint64() & mask
				if _, dup := d.lookupChild(1, ch); dup {
					continue
				}
				if _, ok := d.add(1, ch); !ok {
					t.Fatalf("width=%d: add %d failed", width, len(chars))
				}
				chars = append(chars, ch)
			}
			d.findChildMasked(1, 0, 1, mask) // sync the planes
			b := int(d.chain[1].head)
			queries := [][2]uint64{{0, 0}, {0, mask}, {mask, mask}, {chars[0], mask}}
			for q := 0; q < 200; q++ {
				care := rng.Uint64() & mask
				queries = append(queries, [2]uint64{rng.Uint64() & care, care})
			}
			for _, q := range queries {
				val, care := q[0], q[1]
				want := uint64(0)
				for i, ch := range chars {
					if ch&care == val {
						want |= 1 << uint(i)
					}
				}
				if got := d.blockMatch(b, val, care, fill); got != want {
					t.Fatalf("width=%d fill=%d val=%#x care=%#x: blockMatch=%#x, reference %#x",
						width, fill, val, care, got, want)
				}
			}
			if fill > 1 {
				partial := uint64(1)<<uint(fill-1) - 1
				if got := d.blockMatch(b, 0, 0, fill-1); got != partial {
					t.Fatalf("width=%d fill=%d: all-X over %d lanes = %#x, want %#x",
						width, fill, fill-1, got, partial)
				}
			}
		}
	}
}

package core

import (
	"fmt"
	"math/rand"
	"testing"

	"lzwtc/internal/bitvec"
)

// refDecompress is the historical per-character decoder, kept as the
// differential reference for the production decoder (dict.decode): it
// materializes every code's string by walking parent links and writes
// it one character at a time through SetChunk. It never reads the
// packed-string column, so it pins the column and the word-wide output
// stage against the walk it replaced.
func refDecompress(codes []Code, cfg Config, pre *Preload, outBits int) (*bitvec.Vector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pre.Entries() != 0 && cfg.Full == FullReset {
		return nil, fmt.Errorf("core: FullReset would discard the preloaded dictionary inconsistently")
	}
	if outBits < 0 {
		return nil, fmt.Errorf("core: negative output length %d", outBits)
	}
	out := bitvec.New(outBits)
	if len(codes) == 0 {
		if outBits != 0 {
			return nil, fmt.Errorf("core: empty code stream for %d output bits", outBits)
		}
		return out, nil
	}
	cc := cfg.CharBits
	d := newDict(cfg)
	if err := d.preload(pre); err != nil {
		return nil, err
	}
	pos := 0
	prev := noCode
	var scratch []uint64
	for step, c := range codes {
		pending := false
		if prev != noCode {
			pending = d.prepareAdd(prev)
		}
		special := false
		scratch = scratch[:0]
		switch {
		case d.defined(c):
			scratch = d.stringOf(c, scratch)
		case pending && c == d.next:
			scratch = d.stringOf(prev, scratch)
			scratch = append(scratch, d.firstChar[prev])
			special = true
		default:
			return nil, fmt.Errorf("core: code %d at position %d is undefined (next free %d)", c, step, d.next)
		}
		if pending {
			nc := d.commitAdd(prev, scratch[0])
			if special && nc != c {
				return nil, fmt.Errorf("core: special-case entry mismatch: created %d, referenced %d", nc, c)
			}
		}
		if pos+len(scratch)*cc < pos {
			return nil, fmt.Errorf("core: output overflow")
		}
		for _, ch := range scratch {
			out.SetChunk(pos, cc, ch)
			pos += cc
		}
		prev = c
	}
	if pos < outBits {
		return nil, fmt.Errorf("core: code stream produced %d bits, need %d", pos, outBits)
	}
	if pos-outBits >= cc {
		return nil, fmt.Errorf("core: code stream produced %d bits, more than a character beyond %d", pos, outBits)
	}
	return out, nil
}

// decodeBoth runs the production decoder and the reference on the same
// input and fails unless they agree: the same error text, or
// bit-identical output.
func decodeBoth(t *testing.T, codes []Code, cfg Config, pre *Preload, outBits int) *bitvec.Vector {
	t.Helper()
	got, gerr := DecompressWithPreload(codes, cfg, pre, outBits)
	want, werr := refDecompress(codes, cfg, pre, outBits)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%+v outBits=%d: error %v, reference %v", cfg, outBits, gerr, werr)
	}
	if werr != nil {
		return nil
	}
	if !got.Equal(want) {
		t.Fatalf("%+v outBits=%d: output differs from the reference\n got %s\nwant %s", cfg, outBits, got, want)
	}
	gv, gc := got.Planes()
	wv, wc := want.Planes()
	for i := range gv {
		if gv[i] != wv[i] || gc[i] != wc[i] {
			t.Fatalf("%+v outBits=%d: plane word %d = %#x/%#x, reference %#x/%#x", cfg, outBits, i, gv[i], gc[i], wv[i], wc[i])
		}
	}
	return got
}

// TestDecodeMatchesReference compares the production decoder with the
// per-character reference over every character width, entry widths on
// both sides of the one-word column cutoff (C_C, 63, 64, 65, unbounded),
// both full policies, with and without a preload, and stream lengths
// that end mid-character.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for cc := 1; cc <= 16; cc++ {
		for _, eb := range []int{cc, 63, 64, 65, 0} {
			for _, full := range []FullPolicy{FullFreeze, FullReset} {
				cfg := Config{CharBits: cc, DictSize: 1<<uint(cc) + 48, EntryBits: eb, Full: full}
				pres := []*Preload{nil}
				if full == FullFreeze {
					pre, err := TrainSet(oneCube(randomCube(rng, 40*cc+300, 0.8)), cfg, 16)
					if err != nil {
						t.Fatal(err)
					}
					pres = append(pres, pre)
				}
				for _, p := range pres {
					// A remainder of 1..C_C-1 bits leaves an X-padded
					// final character to clip (C_C=1 has none).
					n := cc*(60+rng.Intn(40)) + 1 + rng.Intn(max(cc-1, 1))
					stream := randomCube(rng, n, 0.85)
					res, err := CompressWithPreload(stream, cfg, p)
					if err != nil {
						t.Fatal(err)
					}
					out := decodeBoth(t, res.Codes, cfg, p, n)
					if out == nil || !stream.CompatibleWith(out) {
						t.Fatalf("%+v preload=%d: round trip lost a care bit", cfg, p.Entries())
					}
				}
			}
		}
	}
}

// TestDecodeHostileStreamsMatchReference feeds malformed code streams to
// both decoders and requires the same error text: an undefined code, a
// code naming the next free entry when no entry is being created (the
// special case with nothing to create), streams too short and too long
// for outBits, and random code soup.
func TestDecodeHostileStreamsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, cfg := range []Config{
		DefaultConfig(), // one-word column
		{CharBits: 4, DictSize: 64, EntryBits: 64}, // exactly 64-bit entries
		{CharBits: 5, DictSize: 64, EntryBits: 65}, // 65-bit entries: parent walk
		{CharBits: 2, DictSize: 16},                // unbounded: parent walk
		{CharBits: 2, DictSize: 8, EntryBits: 8, Full: FullReset},
	} {
		lit := Code(cfg.Literals())
		stream := randomCube(rng, 700, 0.8)
		res, err := Compress(stream, cfg)
		if err != nil {
			t.Fatal(err)
		}
		codes, n := res.Codes, stream.Len()
		decodeBoth(t, codes, cfg, nil, n)                  // well-formed
		decodeBoth(t, []Code{lit}, cfg, nil, cfg.CharBits) // undefined first code
		decodeBoth(t, []Code{0, lit + 1}, cfg, nil, 2*cfg.CharBits)
		decodeBoth(t, codes, cfg, nil, n+cfg.CharBits)                // too short
		decodeBoth(t, codes, cfg, nil, n-cfg.CharBits-n%cfg.CharBits) // too long
		decodeBoth(t, append(codes[:len(codes):len(codes)], 0), cfg, nil, n)
		decodeBoth(t, codes, cfg, nil, -1)
		decodeBoth(t, nil, cfg, nil, 3)

		// The special case with nothing to create: a literal followed by
		// the next free code when the entry bound forbids the add.
		one := cfg
		one.EntryBits = cfg.CharBits
		decodeBoth(t, []Code{1, lit}, one, nil, 2*cfg.CharBits)
		// ... and when a frozen dictionary is full.
		frozen := Config{CharBits: cfg.CharBits, DictSize: cfg.Literals() + 1, EntryBits: cfg.EntryBits}
		decodeBoth(t, []Code{1, 1, lit, lit + 1}, frozen, nil, 6*cfg.CharBits)

		for trial := 0; trial < 200; trial++ {
			soup := make([]Code, 1+rng.Intn(40))
			for i := range soup {
				soup[i] = Code(rng.Intn(int(lit) + 24))
			}
			decodeBoth(t, soup, cfg, nil, rng.Intn(60*cfg.CharBits))
		}
	}
}

// TestOrBitsPerBit pins the word-wide output stage bit by bit: a run of
// chunks written with orBits into zeroed planes, then finished by
// markSpecified, must equal the same chunks written through SetChunk,
// word for word, and every stream bit pos+j must carry bit j of its
// chunk (LSB-first). Chunks straddle word boundaries and the last one
// runs past Len.
func TestOrBitsPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 63, 64, 65, 127, 128, 129, 200, 511} {
		for trial := 0; trial < 50; trial++ {
			got, want := bitvec.New(n), bitvec.New(n)
			val, care := got.Planes()
			expect := make([]bitvec.Bit, n)
			for pos := 0; pos < n; {
				w := 1 + rng.Intn(64)
				s := rng.Uint64()
				if w < 64 {
					s &= 1<<uint(w) - 1
				}
				orBits(val, pos, s)
				want.SetChunk(pos, w, s)
				for j := 0; j < w && pos+j < n; j++ {
					expect[pos+j] = bitvec.Bit(s >> uint(j) & 1)
				}
				pos += w
			}
			markSpecified(val, care, n)
			if !got.Equal(want) {
				t.Fatalf("n=%d: orBits output %s, SetChunk %s", n, got, want)
			}
			for i, b := range expect {
				if got.Get(i) != b {
					t.Fatalf("n=%d: bit %d = %v, want %v", n, i, got.Get(i), b)
				}
			}
			// Equal and Get mask value bits by care, so compare the raw
			// words too: both planes must be zero at and beyond Len.
			wval, wcare := want.Planes()
			for i := range val {
				if val[i] != wval[i] || care[i] != wcare[i] {
					t.Fatalf("n=%d: word %d = %#x/%#x, SetChunk %#x/%#x", n, i, val[i], care[i], wval[i], wcare[i])
				}
			}
		}
	}
}

// TestPackedColumnMatchesWalk checks the column itself: wherever the
// dictionary keeps it, every live code's word must pack exactly the
// characters the parent walk yields.
func TestPackedColumnMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, cfg := range []Config{
		DefaultConfig(),
		{CharBits: 1, DictSize: 256, EntryBits: 64},
		{CharBits: 16, DictSize: 1<<16 + 64, EntryBits: 64},
		{CharBits: 3, DictSize: 128, EntryBits: 65},
	} {
		res, err := Compress(randomCube(rng, 3000, 0.85), cfg)
		if err != nil {
			t.Fatal(err)
		}
		d := newDict(cfg)
		if _, err := d.decode(res.Codes, nil, nil); err != nil {
			t.Fatal(err)
		}
		if got, want := len(d.str) != 0, cfg.MaxChars()*cfg.CharBits <= 64; got != want {
			t.Fatalf("%+v: column present = %v, want %v", cfg, got, want)
		}
		for c := Code(0); len(d.str) != 0 && c < d.next; c++ {
			var w uint64
			for i, ch := range d.stringOf(c, nil) {
				w |= ch << uint(i*cfg.CharBits)
			}
			if d.str[c] != w {
				t.Fatalf("%+v: str[%d] = %#x, walk packs %#x", cfg, c, d.str[c], w)
			}
		}
	}
}

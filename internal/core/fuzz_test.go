package core

import (
	"bytes"
	"testing"

	"lzwtc/internal/bitio"
	"lzwtc/internal/bitvec"
)

// fuzzConfig derives a valid Config from six seed bytes, covering every
// fill/tie/full policy, character widths 1..16, bounded and unbounded
// entries on both sides of the one-word packed-string cutoff, and
// dictionary sizes from the literal minimum up to minimum+255. Seed
// bytes below 4 (b[0]) and 8 (b[2]) map to the configurations the
// original narrow derivation produced, so older corpus entries keep
// their meaning.
func fuzzConfig(seed []byte) Config {
	var b [6]byte
	copy(b[:], seed)
	cc := int(b[0]%4) + 1 + 4*int((b[0]>>2)%4)
	cfg := Config{
		CharBits: cc,
		DictSize: 1<<uint(cc) + int(b[1]),
		Fill:     FillPolicy(b[3] % 3),
		Tie:      TieBreak(b[4] % 3),
		Full:     FullPolicy(b[5] % 2),
	}
	if b[2]%2 == 1 {
		// Bounded decompressor memory.
		switch (b[2] >> 3) % 4 {
		case 0: // a small multiple of C_C
			cfg.EntryBits = cc * (2 + int(b[2]%8))
		case 1: // 64 bits: exactly one column word when C_C divides 64
			cfg.EntryBits = 64
		case 2: // one character past the word: always the parent walk
			cfg.EntryBits = 64 + cc
		case 3: // 65 bits: the walk when C_C divides 65 (1, 5, 13), one word otherwise
			cfg.EntryBits = 65
		}
	}
	return cfg
}

// fuzzStream decodes the remaining input as a three-valued stream, two
// bits per symbol: 00 -> 0, 01 -> 1, anything else -> X. 0xff bytes
// therefore decode to all-X cubes, the case the paper's dynamic
// assignment exists for.
func fuzzStream(data []byte) *bitvec.Vector {
	const maxBits = 2048
	n := 4 * len(data)
	if n > maxBits {
		n = maxBits
	}
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		switch data[i/4] >> uint(2*(i%4)) & 3 {
		case 0:
			v.Set(i, bitvec.Zero)
		case 1:
			v.Set(i, bitvec.One)
		default:
			v.Set(i, bitvec.X)
		}
	}
	return v
}

// FuzzRoundTrip checks the full pipeline on arbitrary streams and
// configurations: Compress -> Pack -> unpackCodes must reproduce the
// code sequence bit-exactly, and Decompress must yield a fully
// specified stream compatible with every care bit of the input and
// identical to the per-character reference decoder's.
func FuzzRoundTrip(f *testing.F) {
	cfgPrefix := func(b ...byte) []byte { return b }
	f.Add(append(cfgPrefix(1, 0, 0, 0, 0, 0), 0x00, 0x11, 0x44, 0x00)) // 2-bit chars, fully specified
	f.Add(append(cfgPrefix(2, 8, 3, 1, 1, 1), bytes.Repeat([]byte{0xff}, 32)...) /* all-X cubes */)
	f.Add(append(cfgPrefix(3, 255, 0, 2, 2, 0), bytes.Repeat([]byte{0x1b}, 64)...))       // repeating pattern, big dict
	f.Add(append(cfgPrefix(0, 1, 1, 0, 0, 1), 0xf0, 0x0f, 0xcc, 0x33, 0x55))              // mixed X and care
	f.Add(append(cfgPrefix(3, 0, 5, 1, 0, 1), bytes.Repeat([]byte{0x44, 0xff}, 40)...))   // reset-prone
	f.Add(cfgPrefix(1, 2, 3, 4, 5, 6))                                                    // empty stream
	f.Add(append(cfgPrefix(7, 40, 9, 0, 0, 0), bytes.Repeat([]byte{0x3c, 0xff}, 48)...))  // C_C=8, 64-bit entries (one word)
	f.Add(append(cfgPrefix(0, 30, 17, 1, 1, 1), bytes.Repeat([]byte{0xf0, 0xff}, 48)...)) // C_C=1, 65-bit entries (walk)
	f.Add(append(cfgPrefix(12, 9, 25, 2, 2, 0), bytes.Repeat([]byte{0x01, 0xfc}, 64)...)) // C_C=13, 65-bit entries

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			return
		}
		cfg := fuzzConfig(data[:6])
		if err := cfg.Validate(); err != nil {
			t.Fatalf("derived config invalid: %v", err)
		}
		stream := fuzzStream(data[6:])

		res, err := Compress(stream, cfg)
		if err != nil {
			t.Fatalf("Compress: %v", err)
		}

		packed := res.Pack()
		codes, err := unpackCodes(packed, len(res.Codes), cfg)
		if err != nil {
			t.Fatalf("unpackCodes: %v", err)
		}
		if len(codes) != len(res.Codes) {
			t.Fatalf("unpackCodes returned %d codes, want %d", len(codes), len(res.Codes))
		}
		for i := range codes {
			if codes[i] != res.Codes[i] {
				t.Fatalf("code %d: packed round trip gave %d, want %d", i, codes[i], res.Codes[i])
			}
		}

		out, err := Decompress(res.Codes, cfg, res.InputBits)
		if err != nil {
			t.Fatalf("Decompress: %v", err)
		}
		if out.Len() != stream.Len() {
			t.Fatalf("Decompress length %d, want %d", out.Len(), stream.Len())
		}
		if !stream.CompatibleWith(out) {
			t.Fatalf("decompressed stream violates a care bit of the input")
		}
		if ref, err := refDecompress(res.Codes, cfg, nil, res.InputBits); err != nil || !ref.Equal(out) {
			t.Fatalf("Decompress disagrees with the per-character reference (reference error %v)", err)
		}
	})
}

// FuzzUnpackCodes feeds arbitrary bytes to the code-stream parser: it
// must never panic, and whenever it succeeds, re-packing the parsed
// codes must reproduce the consumed prefix of the input bit-exactly.
func FuzzUnpackCodes(f *testing.F) {
	f.Add([]byte{}, uint16(0), byte(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint16(4), byte(3))     // max-width all-ones codes
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, uint16(7), byte(1))     // all-zero codes
	f.Add(bytes.Repeat([]byte{0xa5}, 16), uint16(12), byte(255))  // patterned stream
	f.Add([]byte{0x12}, uint16(9), byte(2))                       // truncated stream
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint16(500), byte(129)) // long all-X-shaped input

	f.Fuzz(func(t *testing.T, data []byte, n uint16, seed byte) {
		cfg := fuzzConfig([]byte{seed, seed >> 3, 0, 0, 0, 0})
		if err := cfg.Validate(); err != nil {
			t.Fatalf("derived config invalid: %v", err)
		}
		want := int(n) % 1024
		codes, err := unpackCodes(data, want, cfg)
		if err != nil {
			return // truncated input: rejection is the correct outcome
		}
		if len(codes) != want {
			t.Fatalf("unpackCodes returned %d codes, want %d", len(codes), want)
		}
		repacked := (&Result{Cfg: cfg, Codes: codes}).Pack()
		nbits := want * cfg.CodeBits()
		a := bitio.NewReader(data, nbits)
		b := bitio.NewReader(repacked, nbits)
		for off := 0; off < nbits; off += 64 {
			w := nbits - off
			if w > 64 {
				w = 64
			}
			av, aerr := a.ReadBits(w)
			bv, berr := b.ReadBits(w)
			if aerr != nil || berr != nil {
				t.Fatalf("re-read at bit %d: %v / %v", off, aerr, berr)
			}
			if av != bv {
				t.Fatalf("re-packed stream diverges at bit %d: %#x != %#x", off, bv, av)
			}
		}
	})
}

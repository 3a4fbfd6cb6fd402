package huffman

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lzwtc/internal/bitvec"
)

func TestRoundTripConcrete(t *testing.T) {
	stream := bitvec.MustParse("0101010101010101111111110000000001010101")
	cfg := Config{BlockBits: 4, Coded: 4}
	res, err := Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decompress(res, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Equal(out) {
		t.Fatalf("round trip: %q vs %q", out, stream)
	}
	if res.Stats.CodedBlocks == 0 {
		t.Fatal("repetitive stream produced no coded blocks")
	}
}

func TestXAssignmentMapsToFrequentPatterns(t *testing.T) {
	// Train a dominant pattern, then feed X-laden blocks: they must be
	// concretized onto it and coded.
	s := "10101010" + "10101010" + "1010XXXX" + "XXXX1010" + "XXXXXXXX"
	stream := bitvec.MustParse(s)
	cfg := Config{BlockBits: 8, Coded: 2}
	res, err := Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AssignedToFreq != 3 {
		t.Fatalf("AssignedToFreq = %d, want 3", res.Stats.AssignedToFreq)
	}
	out, err := decompress(res, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !stream.CompatibleWith(out) {
		t.Fatalf("care bits violated: %q", out)
	}
	if out.String() != "1010101010101010101010101010101010101010" {
		t.Fatalf("X blocks not mapped onto the frequent pattern: %q", out)
	}
}

func TestConfigValidate(t *testing.T) {
	for i, c := range []Config{
		{BlockBits: 0},
		{BlockBits: 17},
		{BlockBits: 4, Coded: 17},
		{BlockBits: 4, Coded: -1},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyStream(t *testing.T) {
	res, err := Compress(bitvec.New(0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := decompress(res, 0)
	if err != nil || out.Len() != 0 {
		t.Fatalf("empty: %v %v", out, err)
	}
}

func TestDecompressTruncation(t *testing.T) {
	stream := bitvec.MustParse("0101010101010101")
	res, err := Compress(stream, Config{BlockBits: 4, Coded: 2})
	if err != nil {
		t.Fatal(err)
	}
	res.BitLen = 3 // corrupt
	if _, err := decompress(res, stream.Len()); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

func TestCanonicalCodesArePrefixFree(t *testing.T) {
	lens := codeLengths([]int{50, 20, 10, 10, 5, 5})
	codes := canonicalCodes(lens)
	for i := range codes {
		for j := range codes {
			if i == j {
				continue
			}
			li, lj := lens[i], lens[j]
			if li > lj {
				continue
			}
			if codes[j]>>(uint(lj-li)) == codes[i] {
				t.Fatalf("code %d (%b/%d) is a prefix of %d (%b/%d)", i, codes[i], li, j, codes[j], lj)
			}
		}
	}
}

func TestKraftInequality(t *testing.T) {
	f := func(ws []uint8) bool {
		if len(ws) < 2 {
			return true
		}
		weights := make([]int, len(ws))
		for i, w := range ws {
			weights[i] = int(w) + 1
		}
		lens := codeLengths(weights)
		sum := 0.0
		for _, l := range lens {
			if l < 1 {
				return false
			}
			sum += 1 / float64(uint64(1)<<uint(l))
		}
		return sum <= 1.0+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary cube streams round-trip with care bits preserved.
func TestQuickRoundTripCompatibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(1500)
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.7 {
				continue
			}
			v.Set(i, bitvec.Bit(rng.Intn(2)))
		}
		cfg := Config{BlockBits: 8, Coded: 16}
		res, err := Compress(v, cfg)
		if err != nil {
			return false
		}
		out, err := decompress(res, n)
		if err != nil {
			return false
		}
		return n == 0 || v.CompatibleWith(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestHighXStreamCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 40000
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.9 {
			continue
		}
		v.Set(i, bitvec.Bit(rng.Intn(2)))
	}
	res, err := Compress(v, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Stats.Ratio(); r < 0.3 {
		t.Fatalf("ratio %.3f on 90%% X stream", r)
	}
}

func BenchmarkCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 15
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.85 {
			continue
		}
		v.Set(i, bitvec.Bit(rng.Intn(2)))
	}
	b.SetBytes(int64(n / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(v, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

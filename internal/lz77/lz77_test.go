package lz77

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lzwtc/internal/bitvec"
)

func smallCfg() Config {
	return Config{OffsetBits: 6, LenBits: 4, MinMatch: 3}
}

func TestRoundTripConcrete(t *testing.T) {
	stream := bitvec.MustParse("0101010101010101000000000000111100001111")
	res, err := Compress(stream, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	out, err := decompress(res.Data, res.BitLen, res.Cfg, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Equal(out) {
		t.Fatalf("round trip: got %q want %q", out, stream)
	}
	if res.Stats.CopyTokens == 0 {
		t.Fatal("periodic stream produced no copy tokens")
	}
}

func TestXBitsAssignedByHistory(t *testing.T) {
	// "0011" trains the history; the X block should be copied from it.
	stream := bitvec.MustParse("00110011XXXXXXXX0011")
	res, err := Compress(stream, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.AssignedByCopy == 0 {
		t.Fatalf("no X bits assigned by copy: %+v", res.Stats)
	}
	out, err := decompress(res.Data, res.BitLen, res.Cfg, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !stream.CompatibleWith(out) {
		t.Fatalf("output %q violates cube %q", out, stream)
	}
}

func TestOverlappingCopy(t *testing.T) {
	// A long constant run can only be covered by a self-referential copy
	// (offset smaller than length).
	stream := bitvec.MustParse("10" + ones(40))
	res, err := Compress(stream, smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxMatchBits <= 1 {
		t.Fatalf("run not captured by a copy: %+v", res.Stats)
	}
	out, err := decompress(res.Data, res.BitLen, res.Cfg, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !stream.Equal(out) {
		t.Fatalf("overlap round trip: %q", out)
	}
}

func TestLiteralFillPolicies(t *testing.T) {
	stream := bitvec.MustParse("X1X")
	for _, fill := range []bitvec.FillPolicy{bitvec.FillZero, bitvec.FillOne, bitvec.FillRepeat} {
		cfg := smallCfg()
		cfg.Fill = fill
		res, err := Compress(stream, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := decompress(res.Data, res.BitLen, cfg, stream.Len())
		if err != nil {
			t.Fatal(err)
		}
		if !stream.CompatibleWith(out) {
			t.Errorf("fill=%v output %q violates cube", fill, out)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{OffsetBits: 0, LenBits: 4, MinMatch: 2},
		{OffsetBits: 30, LenBits: 4, MinMatch: 2},
		{OffsetBits: 8, LenBits: 0, MinMatch: 2},
		{OffsetBits: 8, LenBits: 4, MinMatch: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d validated", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default invalid: %v", err)
	}
	if got := DefaultConfig().maxMatch(); got != 10+63 {
		t.Errorf("maxMatch = %d", got)
	}
	if got := DefaultConfig().Window(); got != 2048 {
		t.Errorf("Window = %d", got)
	}
}

func TestDecompressErrors(t *testing.T) {
	cfg := smallCfg()
	if _, err := decompress(nil, 0, cfg, 4); err == nil {
		t.Error("empty stream accepted")
	}
	// A copy token with offset past the start.
	var res *Result
	stream := bitvec.MustParse("0000000000")
	res, err := Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: ask for more output than the stream encodes.
	if _, err := decompress(res.Data, res.BitLen, cfg, stream.Len()+100); err == nil {
		t.Error("overlong output accepted")
	}
}

func TestQuickRoundTripCompatibility(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(800)
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			if rng.Float64() < 0.7 {
				continue // X
			}
			v.Set(i, bitvec.Bit(rng.Intn(2)))
		}
		cfg := smallCfg()
		res, err := Compress(v, cfg)
		if err != nil {
			return false
		}
		out, err := decompress(res.Data, res.BitLen, cfg, n)
		if err != nil {
			return false
		}
		return n == 0 || v.CompatibleWith(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickLosslessConcrete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(600) + 1
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			v.Set(i, bitvec.Bit(rng.Intn(2)))
		}
		cfg := DefaultConfig()
		res, err := Compress(v, cfg)
		if err != nil {
			return false
		}
		out, err := decompress(res.Data, res.BitLen, cfg, n)
		return err == nil && v.Equal(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func ones(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = '1'
	}
	return string(b)
}

func BenchmarkCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 14
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.9 {
			continue
		}
		v.Set(i, bitvec.Bit(rng.Intn(2)))
	}
	cfg := DefaultConfig()
	b.SetBytes(int64(n / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(v, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

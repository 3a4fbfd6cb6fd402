package core

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"lzwtc/internal/bitvec"
)

func cfg1bit(n int) Config {
	return Config{CharBits: 1, DictSize: n}
}

func TestHandWorkedExample(t *testing.T) {
	// 1-bit characters, 16-code dictionary. Hand-simulated LZW:
	// input 0 0 1 0 0 1 0 0 1 -> codes 0,0,1,2,4,3 building entries
	// 2=(0,0) 3=(0,1) 4=(1,0) 5=(2,1) 6=(4,0).
	stream := bitvec.MustParse("001001001")
	res, err := Compress(stream, cfg1bit(16))
	if err != nil {
		t.Fatal(err)
	}
	want := []Code{0, 0, 1, 2, 4, 3}
	if !reflect.DeepEqual(res.Codes, want) {
		t.Fatalf("codes = %v, want %v", res.Codes, want)
	}
	out, err := Decompress(res.Codes, res.Cfg, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "001001001" {
		t.Fatalf("decompressed %q", out)
	}
	if res.Stats.DictEntries != 5 || res.Stats.MaxEntryChars != 3 {
		t.Fatalf("stats = %+v", res.Stats)
	}
}

func TestSpecialCaseCode(t *testing.T) {
	// "000": encoder emits code 2 immediately after creating it, so the
	// decoder sees a code one ahead of its dictionary (Figure 4f).
	stream := bitvec.MustParse("000")
	res, err := Compress(stream, cfg1bit(8))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Code{0, 2}; !reflect.DeepEqual(res.Codes, want) {
		t.Fatalf("codes = %v, want %v", res.Codes, want)
	}
	rec, steps := stepRecorder[DecompressTraceEvent](EventDecompressStep)
	set, err := DecompressWithPreloadObservedCtx(context.Background(), res.Codes, res.Cfg, nil, 3, 1, rec)
	sawSpecial := false
	for _, ev := range *steps {
		if ev.Special {
			sawSpecial = true
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if out := set.Cubes[0]; out.String() != "000" {
		t.Fatalf("decompressed %q", out)
	}
	if !sawSpecial {
		t.Fatal("special case not exercised")
	}
}

func TestDynamicAssignmentFollowsDictionary(t *testing.T) {
	// After "0101" trains entries, an all-X tail must be assigned to ride
	// existing dictionary strings, not fall back to the fill policy.
	stream := bitvec.MustParse("0101XXXXXX")
	res, err := Compress(stream, Config{CharBits: 1, DictSize: 32, Fill: FillOne})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DynamicFills == 0 {
		t.Fatalf("expected dynamic fills, stats %+v", res.Stats)
	}
	out, err := Decompress(res.Codes, res.Cfg, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !stream.CompatibleWith(out) {
		t.Fatalf("output %q incompatible with cube %q", out, stream)
	}
}

func TestXHeavyStreamCompressesWell(t *testing.T) {
	// 90% X with clustered care bits: the dynamic assignment should push
	// the ratio far above what literal emission alone would allow.
	rng := rand.New(rand.NewSource(7))
	stream := randomCube(rng, 20000, 0.9)
	res, err := Compress(stream, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Stats.Ratio(); r < 0.5 {
		t.Fatalf("ratio = %.3f, want > 0.5 on 90%% X stream", r)
	}
	out, err := Decompress(res.Codes, res.Cfg, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !stream.CompatibleWith(out) {
		t.Fatal("decompressed stream violates care bits")
	}
}

func TestDegenerateNoStringCodes(t *testing.T) {
	// DictSize == 2^C_C leaves no compressed codes: every character is a
	// literal and the ratio is exactly 0 (Table 4's collapse column).
	rng := rand.New(rand.NewSource(3))
	stream := randomCube(rng, 7000, 0.8)
	res, err := Compress(stream, Config{CharBits: 7, DictSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.StringCodes != 0 {
		t.Fatalf("got %d string codes from an empty code space", res.Stats.StringCodes)
	}
	if r := res.Stats.Ratio(); r != 0 {
		t.Fatalf("ratio = %v, want 0", r)
	}
}

func TestEntryBoundRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	stream := randomCube(rng, 15000, 0.85)
	cfg := Config{CharBits: 4, DictSize: 512, EntryBits: 12} // max 3 chars
	res, err := Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxEntryChars > 3 || res.Stats.MaxMatchChars > 3 {
		t.Fatalf("bound violated: %+v", res.Stats)
	}
	out, err := Decompress(res.Codes, cfg, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !stream.CompatibleWith(out) {
		t.Fatal("bounded-entry round trip violates care bits")
	}
}

func TestLargerEntriesNeverHurt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	stream := randomCube(rng, 30000, 0.9)
	prev := -1.0
	for _, eb := range []int{63, 127, 255, 511} {
		res, err := Compress(stream, Config{CharBits: 7, DictSize: 1024, EntryBits: eb})
		if err != nil {
			t.Fatal(err)
		}
		r := res.Stats.Ratio()
		if r+1e-9 < prev {
			t.Fatalf("ratio decreased from %.4f to %.4f at EntryBits=%d", prev, r, eb)
		}
		prev = r
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{CharBits: 0, DictSize: 2},
		{CharBits: 17, DictSize: 1 << 17},
		{CharBits: 7, DictSize: 100},                // < 2^7
		{CharBits: 1, DictSize: 1 << 25},            // too large
		{CharBits: 7, DictSize: 1024, EntryBits: 3}, // entry < char
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) validated", i, c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigDerived(t *testing.T) {
	c := DefaultConfig() // C_C=7, N=1024, C_MDATA=63
	if c.CodeBits() != 10 {
		t.Errorf("CodeBits = %d, want 10", c.CodeBits())
	}
	if c.Literals() != 128 {
		t.Errorf("Literals = %d", c.Literals())
	}
	if c.MaxChars() != 9 {
		t.Errorf("MaxChars = %d, want 9", c.MaxChars())
	}
	if c.LenBits() != 4 {
		t.Errorf("LenBits = %d, want 4", c.LenBits())
	}
	if got := c.MemoryBits(); got != 1024*(4+63) {
		t.Errorf("MemoryBits = %d", got)
	}
	// The paper's s13207 sizing example: N=1024, C_C=7, C_MDATA=483
	// needs a 1024 x 490 memory.
	s := Config{CharBits: 7, DictSize: 1024, EntryBits: 483}
	if s.MemoryBits() != 1024*490 {
		t.Errorf("s13207 memory = %d bits, want %d", s.MemoryBits(), 1024*490)
	}
}

func TestEmptyAndTinyStreams(t *testing.T) {
	res, err := Compress(bitvec.New(0), cfg1bit(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Codes) != 0 {
		t.Fatalf("codes = %v", res.Codes)
	}
	out, err := Decompress(nil, cfg1bit(4), 0)
	if err != nil || out.Len() != 0 {
		t.Fatalf("empty decompress: %v %v", out, err)
	}
	// Single character.
	res, err = Compress(bitvec.MustParse("1"), cfg1bit(4))
	if err != nil {
		t.Fatal(err)
	}
	if want := []Code{1}; !reflect.DeepEqual(res.Codes, want) {
		t.Fatalf("codes = %v", res.Codes)
	}
}

func TestDecompressErrors(t *testing.T) {
	cfg := cfg1bit(8)
	if _, err := Decompress(nil, cfg, 5); err == nil {
		t.Error("empty codes for nonzero output accepted")
	}
	if _, err := Decompress([]Code{5}, cfg, 1); err == nil {
		t.Error("undefined leading code accepted")
	}
	if _, err := Decompress([]Code{0, 7}, cfg, 3); err == nil {
		t.Error("far-future code accepted")
	}
	if _, err := Decompress([]Code{0}, cfg, 9); err == nil {
		t.Error("short stream accepted")
	}
	if _, err := Decompress([]Code{0, 0, 0}, cfg, 1); err == nil {
		t.Error("overlong stream accepted")
	}
}

func TestCharPadding(t *testing.T) {
	// 10 bits at C_C=7 pads the second character with 4 X bits; the
	// decompressed stream must truncate back to 10.
	stream := bitvec.MustParse("1010101010")
	res, err := Compress(stream, Config{CharBits: 7, DictSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decompress(res.Codes, res.Cfg, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 || !stream.CompatibleWith(out) {
		t.Fatalf("padded round trip: %q", out)
	}
}

func TestPackUnpack(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	stream := randomCube(rng, 5000, 0.7)
	res, err := Compress(stream, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	packed := res.Pack()
	if got, want := len(packed), (len(res.Codes)*res.Cfg.CodeBits()+7)/8; got != want {
		t.Fatalf("packed %d bytes, want %d", got, want)
	}
	codes, err := unpackCodes(packed, len(res.Codes), res.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(codes, res.Codes) {
		t.Fatal("unpacked codes differ")
	}
	if _, err := unpackCodes(packed[:1], len(res.Codes), res.Cfg); err == nil {
		t.Error("truncated stream accepted")
	}
}

func TestDeterminism(t *testing.T) {
	// Map iteration order must not leak into code selection for any
	// tie-break policy.
	rng := rand.New(rand.NewSource(21))
	stream := randomCube(rng, 8000, 0.92)
	for _, tie := range []TieBreak{TieOldest, TieNewest, TieWidest} {
		cfg := Config{CharBits: 7, DictSize: 512, EntryBits: 63, Tie: tie}
		a, err := Compress(stream, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 3; run++ {
			b, err := Compress(stream, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Codes, b.Codes) {
				t.Fatalf("tie=%v nondeterministic", tie)
			}
		}
	}
}

// Property: for arbitrary cubes and configurations, decompression yields a
// fully specified stream compatible with every care bit.
func TestQuickRoundTripCompatibility(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfgs := []Config{
			{CharBits: 1, DictSize: 16},
			{CharBits: 2, DictSize: 32, EntryBits: 8},
			{CharBits: 4, DictSize: 64, Fill: FillOne},
			{CharBits: 7, DictSize: 256, EntryBits: 63, Fill: FillRepeat},
			{CharBits: 7, DictSize: 1024, EntryBits: 63, Tie: TieNewest},
			{CharBits: 3, DictSize: 16, EntryBits: 9, Full: FullReset},
			{CharBits: 5, DictSize: 40, EntryBits: 20, Full: FullReset, Tie: TieWidest},
			{CharBits: 8, DictSize: 512},
		}
		cfg := cfgs[int(pick)%len(cfgs)]
		stream := randomCube(rng, rng.Intn(3000), rng.Float64())
		res, err := Compress(stream, cfg)
		if err != nil {
			return false
		}
		out, err := Decompress(res.Codes, cfg, stream.Len())
		if err != nil {
			return false
		}
		return stream.CompatibleWith(out) || stream.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: a fully specified stream round-trips exactly (classic LZW
// losslessness), for every policy combination.
func TestQuickLosslessOnConcreteStreams(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			CharBits:  []int{1, 2, 3, 7}[int(pick)%4],
			DictSize:  1 << uint(4+int(pick)%4*2),
			EntryBits: 0,
			Full:      FullPolicy(int(pick) % 2),
		}
		if cfg.DictSize < cfg.Literals() {
			cfg.DictSize = cfg.Literals() * 4
		}
		n := rng.Intn(2000)
		stream := bitvec.New(n)
		for i := 0; i < n; i++ {
			stream.Set(i, bitvec.Bit(rng.Intn(2)))
		}
		res, err := Compress(stream, cfg)
		if err != nil {
			return false
		}
		out, err := Decompress(res.Codes, cfg, n)
		if err != nil {
			return false
		}
		return stream.Equal(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: compressed size equals CodesEmitted * C_E and stats are
// internally consistent.
func TestQuickStatsConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stream := randomCube(rng, rng.Intn(4000)+1, 0.8)
		cfg := Config{CharBits: 7, DictSize: 512, EntryBits: 63}
		res, err := Compress(stream, cfg)
		if err != nil {
			return false
		}
		s := res.Stats
		return s.CompressedBits == len(res.Codes)*cfg.CodeBits() &&
			s.LiteralCodes+s.StringCodes == s.CodesEmitted &&
			s.CodesEmitted == len(res.Codes) &&
			s.Chars == (stream.Len()+6)/7 &&
			s.MaxEntryChars <= cfg.MaxChars() &&
			s.MaxMatchChars <= cfg.MaxChars()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// randomCube builds a test-cube-like stream: clustered care bits over an
// X background, with some repeated structure across "patterns".
func randomCube(rng *rand.Rand, n int, xDensity float64) *bitvec.Vector {
	v := bitvec.New(n)
	if n == 0 {
		return v
	}
	carePerCluster := 6
	clusters := int(float64(n) * (1 - xDensity) / float64(carePerCluster))
	for c := 0; c < clusters; c++ {
		start := rng.Intn(n)
		for j := 0; j < carePerCluster && start+j < n; j++ {
			v.Set(start+j, bitvec.Bit(rng.Intn(2)))
		}
	}
	return v
}

func BenchmarkCompress90X(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	stream := randomCube(rng, 1<<17, 0.9)
	cfg := DefaultConfig()
	b.SetBytes(int64(stream.Len() / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(stream, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecompress times the decoder on both of its string-fetch
// paths: the paper default, whose entries fit one 64-bit word (one
// packed-string load per code), and a >64-bit and an unbounded
// configuration, which walk parent links.
func BenchmarkDecompress(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	stream := randomCube(rng, 1<<17, 0.9)
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"one_word", DefaultConfig()},
		{"wide", Config{CharBits: 7, DictSize: 1024, EntryBits: 490}},
		{"unbounded", Config{CharBits: 7, DictSize: 1024}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			res, err := Compress(stream, bc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(stream.Len() / 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decompress(res.Codes, res.Cfg, stream.Len()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestPolicyStrings(t *testing.T) {
	cases := map[string]string{
		FillZero.String(): "zero", FillOne.String(): "one", FillRepeat.String(): "repeat",
		TieOldest.String(): "oldest", TieNewest.String(): "newest", TieWidest.String(): "widest",
		FullFreeze.String(): "freeze", FullReset.String(): "reset",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("policy string %q != %q", got, want)
		}
	}
	if FillPolicy(9).String() == "" || TieBreak(9).String() == "" || FullPolicy(9).String() == "" {
		t.Error("unknown policies must still render")
	}
}

func TestFillPoliciesAtCharLevel(t *testing.T) {
	// All-X stream: the first character is concretized by the residual
	// policy; FillOne must produce ones, FillRepeat propagates the last
	// concrete bit.
	stream := bitvec.MustParse("1XXXXXXX")
	res, err := Compress(stream, Config{CharBits: 8, DictSize: 512, Fill: FillRepeat})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decompress(res.Codes, res.Cfg, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "11111111" {
		t.Fatalf("FillRepeat = %q", out)
	}
	res, err = Compress(bitvec.MustParse("0XXXXXXX"), Config{CharBits: 8, DictSize: 512, Fill: FillOne})
	if err != nil {
		t.Fatal(err)
	}
	out, err = Decompress(res.Codes, res.Cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != "01111111" {
		t.Fatalf("FillOne = %q", out)
	}
}

func TestCompressTraceEventCount(t *testing.T) {
	stream := bitvec.MustParse("001001001")
	rec, steps := stepRecorder[TraceEvent](EventCompressStep)
	if _, err := compressObserved(stream, cfg1bit(16), rec); err != nil {
		t.Fatal(err)
	}
	// One event per character plus the final flush.
	if n := len(*steps); n != 10 {
		t.Fatalf("events = %d, want 10", n)
	}
}

func TestFullResetStatsCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	stream := randomCube(rng, 6000, 0.5)
	res, err := Compress(stream, Config{CharBits: 2, DictSize: 8, Full: FullReset})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DictResets == 0 {
		t.Fatalf("tiny dictionary never reset: %+v", res.Stats)
	}
	out, err := Decompress(res.Codes, res.Cfg, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !stream.CompatibleWith(out) {
		t.Fatal("reset round trip violates care bits")
	}
}

func TestLiteralOnlyDictResetRoundTrip(t *testing.T) {
	// DictSize == 2^CharBits leaves no string slots at all; with the
	// FullReset policy this used to overrun the dictionary arrays on
	// the first add attempt (found by FuzzRoundTrip). The stream must
	// instead round-trip as pure literal codes.
	cfg := Config{CharBits: 2, DictSize: 4, Full: FullReset}
	stream := bitvec.MustParse("0110XX010110")
	res, err := Compress(stream, cfg)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	if res.Stats.DictEntries != 0 || res.Stats.StringCodes != 0 {
		t.Fatalf("literal-only dictionary produced string entries: %+v", res.Stats)
	}
	out, err := Decompress(res.Codes, cfg, res.InputBits)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if !stream.CompatibleWith(out) {
		t.Fatal("round trip violates a care bit")
	}
}

// TestCompressDictSizedByInput: a one-pattern compress announcing the
// largest N the format allows sizes its dictionary by the input, not by
// N, and emits the codes a small dictionary emits, at the requested
// C_E.
func TestCompressDictSizedByInput(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	stream := randomCube(rng, 64, 0.5)
	huge := Config{CharBits: 8, DictSize: 1 << 24, EntryBits: 64}
	small := huge
	small.DictSize = 1 << 12
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Compress(stream, huge)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 4<<20 {
		t.Fatalf("compressing 64 bits at N=2^24 allocated %d bytes", n)
	}
	if res.Cfg.DictSize != huge.DictSize || res.Cfg.CodeBits() != 24 {
		t.Fatalf("result config N=%d C_E=%d, want N=2^24 C_E=24", res.Cfg.DictSize, res.Cfg.CodeBits())
	}
	want, err := Compress(stream, small)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Codes, want.Codes) {
		t.Fatalf("codes at N=2^24 %v, at N=2^12 %v", res.Codes, want.Codes)
	}
	out, err := Decompress(res.Codes, res.Cfg, res.InputBits)
	if err != nil || !stream.CompatibleWith(out) {
		t.Fatalf("round trip at N=2^24 failed (err %v)", err)
	}
}

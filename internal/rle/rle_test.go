package rle

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lzwtc/internal/bitio"
	"lzwtc/internal/bitvec"
)

func TestGolombKnownCodewords(t *testing.T) {
	// M=4: run r encodes as unary(r/4) + 0 + 2-bit remainder.
	cases := []struct {
		r    int
		bits string
	}{
		{0, "000"},
		{3, "011"},
		{4, "1000"},
		{7, "1011"},
		{9, "11001"},
	}
	for _, c := range cases {
		var w writerShim
		encodeGolomb(&w.w, c.r, 4)
		if got := w.String(); got != c.bits {
			t.Errorf("golomb(%d) = %s, want %s", c.r, got, c.bits)
		}
	}
}

func TestFDRKnownCodewords(t *testing.T) {
	// Group A_1 = {0,1}: 00, 01. A_2 = {2..5}: 10xx. A_3 = {6..13}: 110xxx.
	cases := []struct {
		r    int
		bits string
	}{
		{0, "00"},
		{1, "01"},
		{2, "1000"},
		{5, "1011"},
		{6, "110000"},
		{13, "110111"},
	}
	for _, c := range cases {
		var w writerShim
		encodeFDR(&w.w, c.r)
		if got := w.String(); got != c.bits {
			t.Errorf("fdr(%d) = %s, want %s", c.r, got, c.bits)
		}
	}
}

func TestFDRGroupBoundaries(t *testing.T) {
	for _, c := range []struct{ r, k int }{
		{0, 1}, {1, 1}, {2, 2}, {5, 2}, {6, 3}, {13, 3}, {14, 4}, {29, 4}, {30, 5},
	} {
		if got := fdrGroup(c.r); got != c.k {
			t.Errorf("fdrGroup(%d) = %d, want %d", c.r, got, c.k)
		}
	}
}

func TestExtractRuns(t *testing.T) {
	v := bitvec.MustParse("0X01X000100")
	runs, maxRun := extractRuns(v)
	// 0-filled: 00010000100 -> runs 3, 4, 2(trailing)
	want := []int{3, 4, 2}
	if len(runs) != len(want) {
		t.Fatalf("runs = %v, want %v", runs, want)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", runs, want)
		}
	}
	if maxRun != 4 {
		t.Fatalf("maxRun = %d", maxRun)
	}
}

func TestRoundTripEdges(t *testing.T) {
	for _, s := range []string{"1", "0", "01", "10", "0000000", "1111", "001001001", "X", "0X1"} {
		for _, kind := range []Kind{Golomb, FDR} {
			stream := bitvec.MustParse(s)
			res, err := Compress(stream, Config{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			dcfg := res.Cfg
			dcfg.M = res.Stats.ChosenM
			out, err := decompress(res.Data, res.BitLen, dcfg, stream.Len())
			if err != nil {
				t.Fatalf("%s %v: %v", s, kind, err)
			}
			if !stream.Filled(bitvec.FillZero).Equal(out) {
				t.Fatalf("%s %v: got %q", s, kind, out)
			}
		}
	}
}

func TestBestMSelection(t *testing.T) {
	// Uniform long runs of ~32 should select a larger M than short runs.
	long := bitvec.New(33 * 20)
	for i := 32; i < long.Len(); i += 33 {
		long.Set(i, bitvec.One)
	}
	resLong, err := Compress(long, Config{Kind: Golomb})
	if err != nil {
		t.Fatal(err)
	}
	short := bitvec.New(4 * 20)
	for i := 3; i < short.Len(); i += 4 {
		short.Set(i, bitvec.One)
	}
	resShort, err := Compress(short, Config{Kind: Golomb})
	if err != nil {
		t.Fatal(err)
	}
	if resLong.Stats.ChosenM <= resShort.Stats.ChosenM {
		t.Fatalf("M(long runs)=%d <= M(short runs)=%d", resLong.Stats.ChosenM, resShort.Stats.ChosenM)
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{Kind: Golomb, M: 3}).Validate(); err == nil {
		t.Error("non-power-of-two M accepted")
	}
	if err := (Config{Kind: Golomb, M: 1}).Validate(); err == nil {
		t.Error("M=1 accepted")
	}
	if err := (Config{Kind: Kind(9)}).Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := (Config{Kind: FDR}).Validate(); err != nil {
		t.Errorf("FDR config rejected: %v", err)
	}
}

func TestDecompressErrors(t *testing.T) {
	if _, err := decompress(nil, 0, Config{Kind: Golomb}, 4); err == nil {
		t.Error("Golomb decode without M accepted")
	}
	if _, err := decompress(nil, 0, Config{Kind: Golomb, M: 4}, 4); err == nil {
		t.Error("empty stream accepted")
	}
}

// Property: both coders invert to the FillZero concretization for
// arbitrary cubes.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, useFDR bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(2000)
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			r := rng.Float64()
			switch {
			case r < 0.8: // X
			case r < 0.95:
				v.Set(i, bitvec.Zero)
			default:
				v.Set(i, bitvec.One)
			}
		}
		cfg := Config{Kind: Golomb}
		if useFDR {
			cfg.Kind = FDR
		}
		res, err := Compress(v, cfg)
		if err != nil {
			return false
		}
		dcfg := cfg
		dcfg.M = res.Stats.ChosenM
		out, err := decompress(res.Data, res.BitLen, dcfg, n)
		if err != nil {
			return false
		}
		// CompatibleWith is vacuously true for n = 0, so it holds for
		// every drawn length.
		return v.Filled(bitvec.FillZero).Equal(out) && v.CompatibleWith(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestEmptyRoundTrip pins the n = 0 corner quick only sometimes draws:
// an empty stream compresses and decompresses to an empty stream.
func TestEmptyRoundTrip(t *testing.T) {
	for _, kind := range []Kind{FDR, Golomb} {
		cfg := Config{Kind: kind}
		res, err := Compress(bitvec.New(0), cfg)
		if err != nil {
			t.Fatalf("%v: compress: %v", kind, err)
		}
		dcfg := cfg
		dcfg.M = res.Stats.ChosenM
		out, err := decompress(res.Data, res.BitLen, dcfg, 0)
		if err != nil {
			t.Fatalf("%v: decompress: %v", kind, err)
		}
		if out.Len() != 0 {
			t.Fatalf("%v: empty stream decompressed to %d bits", kind, out.Len())
		}
	}
}

// Property: Golomb codeword length is r/M + 1 + log2(M).
func TestQuickGolombLength(t *testing.T) {
	f := func(r uint16, mExp uint8) bool {
		m := 1 << (uint(mExp)%9 + 1)
		var w writerShim
		encodeGolomb(&w.w, int(r), m)
		logM := 0
		for 1<<uint(logM) < m {
			logM++
		}
		return w.w.BitLen() == int(r)/m+1+logM
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGolomb(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 16
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.05 {
			v.Set(i, bitvec.One)
		}
	}
	b.SetBytes(int64(n / 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(v, Config{Kind: Golomb}); err != nil {
			b.Fatal(err)
		}
	}
}

// writerShim renders a bitio.Writer's content as a '0'/'1' string for
// codeword golden tests.
type writerShim struct{ w bitio.Writer }

func (s *writerShim) String() string {
	r := bitio.NewReader(s.w.Bytes(), s.w.BitLen())
	var sb strings.Builder
	for range s.w.BitLen() {
		b, _ := r.ReadBit()
		sb.WriteByte('0' + byte(b))
	}
	return sb.String()
}

func TestAlternatingKnownStream(t *testing.T) {
	// 000 111 0 11 -> alternating runs 3,3,1,2 starting with a 0-run.
	v := bitvec.MustParse("000111011")
	runs, maxRun := extractAlternatingRuns(v.Filled(bitvec.FillRepeat))
	want := []int{3, 3, 1, 2}
	if len(runs) != len(want) || maxRun != 3 {
		t.Fatalf("runs = %v maxRun = %d", runs, maxRun)
	}
	for i := range want {
		if runs[i] != want[i] {
			t.Fatalf("runs = %v, want %v", runs, want)
		}
	}
	// Leading 1 forces an empty first 0-run.
	runs, _ = extractAlternatingRuns(bitvec.MustParse("110"))
	if len(runs) != 3 || runs[0] != 0 || runs[1] != 2 || runs[2] != 1 {
		t.Fatalf("leading-one runs = %v", runs)
	}
}

func TestAlternatingRoundTrip(t *testing.T) {
	for _, s := range []string{"1", "0", "000111011", "1111", "X0X1XX", "01010101", ""} {
		stream := bitvec.MustParse(s)
		res, err := Compress(stream, Config{Kind: Alternating})
		if err != nil {
			t.Fatal(err)
		}
		out, err := decompress(res.Data, res.BitLen, Config{Kind: Alternating}, stream.Len())
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if !stream.Filled(bitvec.FillRepeat).Equal(out) {
			t.Fatalf("%q: got %q", s, out)
		}
	}
}

// Property: alternating code round-trips to the repeat-filled stream and
// respects care bits.
func TestQuickAlternatingRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(1500)
		v := bitvec.New(n)
		for i := 0; i < n; i++ {
			r := rng.Float64()
			switch {
			case r < 0.7: // X
			case r < 0.9:
				v.Set(i, bitvec.Zero)
			default:
				v.Set(i, bitvec.One)
			}
		}
		res, err := Compress(v, Config{Kind: Alternating})
		if err != nil {
			return false
		}
		out, err := decompress(res.Data, res.BitLen, Config{Kind: Alternating}, n)
		if err != nil {
			return false
		}
		return v.Filled(bitvec.FillRepeat).Equal(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

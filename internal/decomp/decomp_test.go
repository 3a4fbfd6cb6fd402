package decomp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lzwtc/internal/ate"
	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/mem"
	"lzwtc/internal/telemetry"
)

func build(t *testing.T, cfg core.Config, ratio int) (*Decompressor, *mem.Shared) {
	t.Helper()
	words, width := MemoryGeometry(cfg)
	sh := mem.NewShared(mem.New(words, width))
	sh.Select(mem.SrcLZW)
	d, err := New(cfg, ratio, sh)
	if err != nil {
		t.Fatal(err)
	}
	return d, sh
}

func randomCube(rng *rand.Rand, n int, xDensity float64) *bitvec.Vector {
	v := bitvec.New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < xDensity {
			continue
		}
		v.Set(i, bitvec.Bit(rng.Intn(2)))
	}
	return v
}

func TestMatchesSoftwareDecompressor(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := core.Config{CharBits: 7, DictSize: 512, EntryBits: 63}
	stream := randomCube(rng, 20000, 0.85)
	res, err := core.Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Decompress(res.Codes, cfg, stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := build(t, cfg, 8)
	got, st, err := d.Run(res.Pack(), len(res.Codes), stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatal("hardware output differs from software decompressor")
	}
	if st.CodesDecoded != len(res.Codes) {
		t.Fatalf("decoded %d codes, want %d", st.CodesDecoded, len(res.Codes))
	}
	if !stream.CompatibleWith(got) {
		t.Fatal("hardware output violates cube care bits")
	}
}

func TestSpecialCaseViaCMLAST(t *testing.T) {
	// "000" at 1-bit chars forces the not-yet-written-code merge path.
	cfg := core.Config{CharBits: 1, DictSize: 8, EntryBits: 4}
	stream := bitvec.MustParse("000")
	res, err := core.Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := build(t, cfg, 4)
	sawMerge := false
	d.SetRecorder(telemetry.New(nil, telemetry.SinkFunc(func(e telemetry.Event) {
		v, _ := e.Field("event")
		if ev, ok := v.(Event); ok && e.Kind == EventStep &&
			ev.Kind == "decode" && len(ev.Detail) > 5 && ev.Detail[:5] == "merge" {
			sawMerge = true
		}
	})))
	got, _, err := d.Run(res.Pack(), len(res.Codes), 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "000" {
		t.Fatalf("output %q", got)
	}
	if !sawMerge {
		t.Fatal("C_MLAST merge path not exercised")
	}
}

func TestImprovementGrowsWithClockRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := core.Config{CharBits: 7, DictSize: 1024, EntryBits: 63}
	stream := randomCube(rng, 40000, 0.9)
	res, err := core.Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, ratio := range []int{1, 4, 8, 10, 1000} {
		d, _ := build(t, cfg, ratio)
		_, st, err := d.Run(res.Pack(), len(res.Codes), stream.Len())
		if err != nil {
			t.Fatal(err)
		}
		imp := ate.Improvement(stream.Len(), st.TesterCycles)
		if imp < prev {
			t.Fatalf("improvement fell from %.4f to %.4f at ratio %d", prev, imp, ratio)
		}
		prev = imp
	}
	// At an extreme ratio, download time approaches the compressed volume:
	// the improvement converges to the compression ratio (Section 6).
	if diff := res.Stats.Ratio() - prev; diff > 0.02 || diff < -0.02 {
		t.Fatalf("ratio %.4f vs limit improvement %.4f", res.Stats.Ratio(), prev)
	}
}

func TestCycleAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := core.Config{CharBits: 4, DictSize: 64, EntryBits: 16}
	stream := randomCube(rng, 2000, 0.7)
	res, err := core.Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := build(t, cfg, 4)
	_, st, err := d.Run(res.Pack(), len(res.Codes), stream.Len())
	if err != nil {
		t.Fatal(err)
	}
	if st.InternalCycles != st.LoadStalls+st.DecodeCycles+st.WriteCycles+st.ShiftCycles {
		t.Fatalf("cycle ledger does not balance: %+v", st)
	}
	if st.ShiftCycles != st.CodesDecoded*0+st.ShiftCycles || st.ShiftCycles < stream.Len() {
		t.Fatalf("shift cycles %d < output bits %d", st.ShiftCycles, stream.Len())
	}
	if st.TesterCycles != (st.InternalCycles+3)/4 {
		t.Fatalf("tester cycles %d vs internal %d", st.TesterCycles, st.InternalCycles)
	}
	if st.MemWrites == 0 || st.MemReads == 0 {
		t.Fatalf("dictionary unused: %+v", st)
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	good := core.Config{CharBits: 4, DictSize: 64, EntryBits: 16}
	words, width := MemoryGeometry(good)
	sh := mem.NewShared(mem.New(words, width))

	if _, err := New(core.Config{CharBits: 4, DictSize: 64}, 4, sh); err == nil {
		t.Error("unbounded entries accepted")
	}
	if _, err := New(core.Config{CharBits: 4, DictSize: 64, EntryBits: 16, Full: core.FullReset}, 4, sh); err == nil {
		t.Error("reset policy accepted")
	}
	if _, err := New(good, 0, sh); err == nil {
		t.Error("zero clock ratio accepted")
	}
	small := mem.NewShared(mem.New(words-1, width))
	if _, err := New(good, 4, small); err == nil {
		t.Error("undersized memory (words) accepted")
	}
	narrow := mem.NewShared(mem.New(words, width-1))
	if _, err := New(good, 4, narrow); err == nil {
		t.Error("undersized memory (width) accepted")
	}
}

func TestPortOwnershipEnforced(t *testing.T) {
	cfg := core.Config{CharBits: 1, DictSize: 8, EntryBits: 4}
	words, width := MemoryGeometry(cfg)
	sh := mem.NewShared(mem.New(words, width)) // functional owns the port
	d, err := New(cfg, 4, sh)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Compress(bitvec.MustParse("010101"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Run(res.Pack(), len(res.Codes), 6); err == nil {
		t.Fatal("dictionary access allowed without port ownership")
	}
}

func TestRunErrors(t *testing.T) {
	cfg := core.Config{CharBits: 1, DictSize: 8, EntryBits: 4}
	d, _ := build(t, cfg, 4)
	// Garbage stream: code 7 is undefined at position 0.
	if _, _, err := d.Run([]byte{0xFF}, 1, 1); err == nil {
		t.Fatal("undefined code accepted")
	}
	d2, _ := build(t, cfg, 4)
	if _, _, err := d2.Run(nil, 1, 1); err == nil {
		t.Fatal("truncated stream accepted")
	}
}

// Property: for arbitrary cubes and ratios, the hardware model emits
// exactly what the software decompressor emits, and the care bits hold.
func TestQuickHardwareEquivalence(t *testing.T) {
	f := func(seed int64, r uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := core.Config{CharBits: 3, DictSize: 32, EntryBits: 12}
		ratio := int(r%16) + 1
		stream := randomCube(rng, rng.Intn(1500)+1, 0.8)
		res, err := core.Compress(stream, cfg)
		if err != nil {
			return false
		}
		want, err := core.Decompress(res.Codes, cfg, stream.Len())
		if err != nil {
			return false
		}
		words, width := MemoryGeometry(cfg)
		sh := mem.NewShared(mem.New(words, width))
		sh.Select(mem.SrcLZW)
		d, err := New(cfg, ratio, sh)
		if err != nil {
			return false
		}
		got, st, err := d.Run(res.Pack(), len(res.Codes), stream.Len())
		if err != nil {
			return false
		}
		return want.Equal(got) && st.TesterCycles > 0 && stream.CompatibleWith(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFieldPacking(t *testing.T) {
	word := make([]uint64, 3)
	setField(word, 60, 10, 0x2AB) // crosses the first limb boundary
	if got := getField(word, 60, 10); got != 0x2AB {
		t.Fatalf("cross-limb field = %#x", got)
	}
	setField(word, 0, 7, 0x55)
	setField(word, 7, 7, 0x2A)
	if getField(word, 0, 7) != 0x55 || getField(word, 7, 7) != 0x2A {
		t.Fatal("adjacent fields interfere")
	}
	// Overwrite must clear old bits.
	setField(word, 7, 7, 0)
	if getField(word, 7, 7) != 0 || getField(word, 0, 7) != 0x55 {
		t.Fatal("overwrite leaked bits")
	}
}

func BenchmarkHardwareRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := core.Config{CharBits: 7, DictSize: 1024, EntryBits: 63}
	stream := randomCube(rng, 1<<16, 0.9)
	res, err := core.Compress(stream, cfg)
	if err != nil {
		b.Fatal(err)
	}
	packed := res.Pack()
	words, width := MemoryGeometry(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh := mem.NewShared(mem.New(words, width))
		sh.Select(mem.SrcLZW)
		d, _ := New(cfg, 10, sh)
		if _, _, err := d.Run(packed, len(res.Codes), stream.Len()); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: the closed-form Predict agrees exactly with the cycle-level
// simulation across configurations and clock ratios.
func TestQuickPredictMatchesSimulation(t *testing.T) {
	f := func(seed int64, r uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := core.Config{CharBits: 3, DictSize: 64, EntryBits: 15}
		ratio := int(r%12) + 1
		stream := randomCube(rng, rng.Intn(2000)+1, 0.8)
		res, err := core.Compress(stream, cfg)
		if err != nil {
			return false
		}
		words, width := MemoryGeometry(cfg)
		sh := mem.NewShared(mem.New(words, width))
		sh.Select(mem.SrcLZW)
		d, err := New(cfg, ratio, sh)
		if err != nil {
			return false
		}
		_, st, err := d.Run(res.Pack(), len(res.Codes), stream.Len())
		if err != nil {
			return false
		}
		tc, ic, err := Predict(res.Codes, cfg, ratio)
		if err != nil {
			return false
		}
		return tc == st.TesterCycles && ic == st.InternalCycles
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictErrors(t *testing.T) {
	if _, _, err := Predict(nil, core.Config{CharBits: 1, DictSize: 8}, 4); err == nil {
		t.Error("unbounded config accepted")
	}
	if _, _, err := Predict(nil, core.Config{CharBits: 1, DictSize: 8, EntryBits: 4}, 0); err == nil {
		t.Error("zero ratio accepted")
	}
	if _, _, err := Predict([]core.Code{7}, core.Config{CharBits: 1, DictSize: 8, EntryBits: 4}, 4); err == nil {
		t.Error("undefined code accepted")
	}
}

func TestHardwarePreloadMatchesSoftware(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	cfg := core.Config{CharBits: 4, DictSize: 128, EntryBits: 32}
	train := randomCube(rng, 6000, 0.85)
	payload := randomCube(rng, 4000, 0.85)
	pre, err := core.TrainSet(&bitvec.CubeSet{Width: train.Len(), Cubes: []*bitvec.Vector{train}}, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.CompressWithPreload(payload, cfg, pre)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DecompressWithPreload(res.Codes, cfg, pre, payload.Len())
	if err != nil {
		t.Fatal(err)
	}
	d, _ := build(t, cfg, 8)
	if err := d.Preload(pre); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.Run(res.Pack(), len(res.Codes), payload.Len())
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatal("warm hardware output differs from warm software decompressor")
	}
	if !payload.CompatibleWith(got) {
		t.Fatal("warm hardware output violates care bits")
	}
}

func TestPreloadOrderingEnforced(t *testing.T) {
	cfg := core.Config{CharBits: 1, DictSize: 8, EntryBits: 4}
	stream := bitvec.MustParse("0101")
	res, err := core.Compress(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := build(t, cfg, 4)
	if _, _, err := d.Run(res.Pack(), len(res.Codes), 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Preload(&core.Preload{Strings: [][]uint64{{0, 1}}}); err == nil {
		t.Fatal("Preload after Run accepted")
	}
	d2, _ := build(t, cfg, 4)
	if err := d2.Preload(&core.Preload{Strings: [][]uint64{{0, 1, 0, 1, 0}}}); err == nil {
		t.Fatal("overlong preload string accepted")
	}
}

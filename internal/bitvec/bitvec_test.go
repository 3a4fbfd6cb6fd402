package bitvec

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewAllX(t *testing.T) {
	v := New(100)
	if v.Len() != 100 {
		t.Fatalf("Len = %d", v.Len())
	}
	for i := 0; i < 100; i++ {
		if v.Get(i) != X {
			t.Fatalf("bit %d = %v, want X", i, v.Get(i))
		}
	}
	if v.XCount() != 100 || v.careCount() != 0 {
		t.Fatalf("XCount=%d CareCount=%d", v.XCount(), v.careCount())
	}
}

func TestSetGet(t *testing.T) {
	v := New(130) // spans three words
	cases := map[int]Bit{0: One, 1: Zero, 63: One, 64: Zero, 65: One, 127: One, 128: Zero, 129: X}
	for i, b := range cases {
		v.Set(i, b)
	}
	for i, b := range cases {
		if got := v.Get(i); got != b {
			t.Errorf("bit %d = %v, want %v", i, got, b)
		}
	}
	// Overwrite: One -> X -> Zero.
	v.Set(63, X)
	if v.Get(63) != X {
		t.Errorf("bit 63 after X = %v", v.Get(63))
	}
	v.Set(63, Zero)
	if v.Get(63) != Zero {
		t.Errorf("bit 63 after Zero = %v", v.Get(63))
	}
}

func TestParseString(t *testing.T) {
	s := "01X10x-1"
	v, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.String(); got != "01X10XX1" {
		t.Fatalf("String = %q", got)
	}
	if _, err := Parse("012"); err == nil {
		t.Fatal("Parse accepted invalid char")
	}
}

func TestChunkAcrossWords(t *testing.T) {
	v := New(140)
	// Set bits 60..70 to a known pattern: bit 60+j = j%2.
	for j := 0; j <= 10; j++ {
		v.Set(60+j, Bit(j%2))
	}
	val, care := v.Chunk(60, 11)
	if care != (1<<11)-1 {
		t.Fatalf("care = %011b", care)
	}
	if val != 0b10101010101&^1 { // bit j = j%2 -> 0,1,0,1,... LSB-first = 0b...10101010
		// build expected explicitly
		var want uint64
		for j := 0; j <= 10; j++ {
			want |= uint64(j%2) << uint(j)
		}
		if val != want {
			t.Fatalf("val = %011b, want %011b", val, want)
		}
	}
}

func TestChunkPadding(t *testing.T) {
	v := MustParse("101")
	val, care := v.Chunk(2, 7)
	if care != 0b1 {
		t.Fatalf("care = %07b, want 0000001", care)
	}
	if val != 0b1 {
		t.Fatalf("val = %07b, want 0000001", val)
	}
	// Entirely past the end: all X.
	val, care = v.Chunk(10, 64)
	if val != 0 || care != 0 {
		t.Fatalf("past-end chunk: val=%x care=%x", val, care)
	}
}

func TestSetChunk(t *testing.T) {
	v := New(10)
	v.SetChunk(3, 4, 0b1011)
	if got := v.String(); got != "XXX1101XXX" {
		t.Fatalf("String = %q", got)
	}
	// Beyond end is dropped.
	v.SetChunk(8, 4, 0b1111)
	if v.Len() != 10 || v.Get(9) != One {
		t.Fatalf("tail write: %q", v.String())
	}
}

func TestCompatibleWith(t *testing.T) {
	cube := MustParse("1X0X")
	ok := MustParse("1100")
	bad := MustParse("0100")
	partial := MustParse("110X")
	if !cube.CompatibleWith(ok) {
		t.Error("1100 should be compatible with 1X0X")
	}
	if cube.CompatibleWith(bad) {
		t.Error("0100 should not be compatible with 1X0X")
	}
	if cube.CompatibleWith(partial) {
		t.Error("partially specified vector is not a valid fill")
	}
	if cube.CompatibleWith(MustParse("1X0")) {
		t.Error("length mismatch must be incompatible")
	}
}

func TestEqual(t *testing.T) {
	a := MustParse("01X")
	if !a.Equal(MustParse("01X")) || a.Equal(MustParse("011")) || a.Equal(MustParse("01")) {
		t.Fatal("Equal misbehaves")
	}
}

func TestFilledPolicies(t *testing.T) {
	v := MustParse("X1XX0X")
	if got := v.Filled(FillZero).String(); got != "010000" {
		t.Errorf("FillZero = %q", got)
	}
	if got := v.Filled(FillOne).String(); got != "111101" {
		t.Errorf("FillOne = %q", got)
	}
	if got := v.Filled(FillRepeat).String(); got != "011100" {
		t.Errorf("FillRepeat = %q", got)
	}
}

func TestFilledIsCompatible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomVector(rng, rng.Intn(300)+1, 0.5)
		for _, p := range []FillPolicy{FillZero, FillOne, FillRepeat} {
			c := v.Filled(p)
			if c.XCount() != 0 || !v.CompatibleWith(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConcat(t *testing.T) {
	v := concat(MustParse("01"), MustParse("X1"), MustParse(""), MustParse("0"))
	if got := v.String(); got != "01X10" {
		t.Fatalf("Concat = %q", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustParse("0101")
	b := a.Clone()
	b.Set(0, One)
	if a.Get(0) != Zero {
		t.Fatal("Clone shares storage")
	}
}

func TestCubeSetSerializeDeserialize(t *testing.T) {
	cs := NewCubeSet(4)
	for _, s := range []string{"01XX", "1X10", "XXXX"} {
		if err := cs.Add(MustParse(s)); err != nil {
			t.Fatal(err)
		}
	}
	if cs.TotalBits() != 12 {
		t.Fatalf("TotalBits = %d", cs.TotalBits())
	}
	stream := cs.Serialize()
	if got := stream.String(); got != "01XX1X10XXXX" {
		t.Fatalf("Serialize = %q", got)
	}
	back, err := DeserializeAligned(stream, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cs.Cubes {
		if !cs.Cubes[i].Equal(back.Cubes[i]) {
			t.Fatalf("cube %d: %q != %q", i, cs.Cubes[i], back.Cubes[i])
		}
	}
	if _, err := DeserializeAligned(stream, 5, 1); err == nil {
		t.Fatal("DeserializeAligned accepted bad width")
	}
}

func TestCubeSetAddWidthMismatch(t *testing.T) {
	cs := NewCubeSet(4)
	if err := cs.Add(MustParse("011")); err == nil {
		t.Fatal("Add accepted wrong width")
	}
}

func TestReadWriteCubes(t *testing.T) {
	in := "# comment\n01XX\n\n1X10\n"
	cs, err := ReadCubes(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Cubes) != 2 || cs.Width != 4 {
		t.Fatalf("parsed %d cubes width %d", len(cs.Cubes), cs.Width)
	}
	var sb strings.Builder
	if err := cs.WriteCubes(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "01XX\n1X10\n" {
		t.Fatalf("WriteCubes = %q", sb.String())
	}
	if _, err := ReadCubes(strings.NewReader("")); err == nil {
		t.Fatal("ReadCubes accepted empty input")
	}
	if _, err := ReadCubes(strings.NewReader("01\n011\n")); err == nil {
		t.Fatal("ReadCubes accepted ragged widths")
	}
}

func TestXDensity(t *testing.T) {
	cs := NewCubeSet(4)
	cs.Add(MustParse("01XX"))
	cs.Add(MustParse("XXXX"))
	if d := cs.XDensity(); d != 0.75 {
		t.Fatalf("XDensity = %v", d)
	}
	if d := NewCubeSet(4).XDensity(); d != 0 {
		t.Fatalf("empty XDensity = %v", d)
	}
}

// Property: String/Parse round-trips.
func TestQuickStringParse(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomVector(rng, rng.Intn(200), 0.3)
		u, err := Parse(v.String())
		return err == nil && v.Equal(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Chunk agrees with per-bit Get at arbitrary positions.
func TestQuickChunkGetAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomVector(rng, rng.Intn(300)+1, 0.4)
		for trial := 0; trial < 20; trial++ {
			pos := rng.Intn(v.Len() + 10)
			n := rng.Intn(65)
			val, care := v.Chunk(pos, n)
			for j := 0; j < n; j++ {
				var want Bit = X
				if pos+j < v.Len() {
					want = v.Get(pos + j)
				}
				gotCare := care >> uint(j) & 1
				gotVal := val >> uint(j) & 1
				switch want {
				case X:
					if gotCare != 0 {
						return false
					}
				default:
					if gotCare != 1 || gotVal != uint64(want) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: XCount + careCount == Len.
func TestQuickCounts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		v := randomVector(rng, rng.Intn(500), 0.5)
		return v.XCount()+v.careCount() == v.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func randomVector(rng *rand.Rand, n int, xProb float64) *Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < xProb {
			continue
		}
		v.Set(i, Bit(rng.Intn(2)))
	}
	return v
}

func BenchmarkChunk(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := randomVector(rng, 1<<16, 0.9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Chunk(i%(1<<16), 7)
	}
}

func TestSerializeAligned(t *testing.T) {
	cs := NewCubeSet(5)
	cs.Add(MustParse("01X10"))
	cs.Add(MustParse("1XXX0"))
	s := cs.SerializeAligned(3) // padded width 6
	if got := s.String(); got != "01X10X1XXX0X" {
		t.Fatalf("aligned = %q", got)
	}
	// Width already aligned: no padding.
	cs2 := NewCubeSet(6)
	cs2.Add(MustParse("010101"))
	if got := cs2.SerializeAligned(3).String(); got != "010101" {
		t.Fatalf("no-pad aligned = %q", got)
	}
	// charBits <= 1 short-circuits.
	if got := cs.SerializeAligned(1).Len(); got != 10 {
		t.Fatalf("charBits=1 len = %d", got)
	}
}

func TestDeserializeAligned(t *testing.T) {
	cs := NewCubeSet(5)
	cs.Add(MustParse("01110"))
	cs.Add(MustParse("10010"))
	concrete := cs.SerializeAligned(3).Filled(FillZero)
	back, err := DeserializeAligned(concrete, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cubes) != 2 {
		t.Fatalf("got %d cubes", len(back.Cubes))
	}
	for i := range cs.Cubes {
		if !cs.Cubes[i].Equal(back.Cubes[i]) {
			t.Fatalf("cube %d: %q != %q", i, back.Cubes[i], cs.Cubes[i])
		}
	}
	if _, err := DeserializeAligned(concrete, 7, 3); err == nil {
		t.Fatal("bad width accepted")
	}
}

func TestBitByte(t *testing.T) {
	cases := map[Bit]byte{Zero: '0', One: '1', X: 'X'}
	for b, want := range cases {
		if got := b.Byte(); got != want {
			t.Errorf("Bit(%v).Byte() = %q, want %q", b, got, want)
		}
		if s := b.String(); s != string(want) {
			t.Errorf("Bit(%v).String() = %q, want %q", b, s, string(want))
		}
	}
	// Out-of-range values render as X, matching String.
	if got := Bit(99).Byte(); got != 'X' {
		t.Errorf("out-of-range Bit.Byte() = %q, want 'X'", got)
	}
}

// TestSetChunkMatchesPerBit drives the word-parallel SetChunk against a
// per-bit Set reference over random positions, widths and word
// boundaries, including writes clipped by the vector end.
func TestSetChunkMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(200)
		got, want := New(n), New(n)
		// Random starting state so SetChunk also proves it overwrites.
		for i := 0; i < n; i++ {
			b := Bit(rng.Intn(3))
			got.Set(i, b)
			want.Set(i, b)
		}
		for op := 0; op < 8; op++ {
			pos := rng.Intn(n)
			w := 1 + rng.Intn(64)
			val := rng.Uint64()
			if w < 64 {
				val &= uint64(1)<<uint(w) - 1
			}
			got.SetChunk(pos, w, val)
			for j := 0; j < w && pos+j < n; j++ {
				if val>>uint(j)&1 == 1 {
					want.Set(pos+j, One)
				} else {
					want.Set(pos+j, Zero)
				}
			}
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d: SetChunk diverges from per-bit reference:\n got %s\nwant %s", trial, got, want)
		}
	}
}

package signature

import (
	"math/rand"
	"testing"
	"testing/quick"

	"lzwtc/internal/bitvec"
)

func TestLFSRMaximalLength(t *testing.T) {
	// A primitive polynomial cycles through all 2^w - 1 nonzero states.
	l, err := newLFSR(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.Seed(1)
	seen := map[uint64]bool{}
	for i := 0; i < 255; i++ {
		if seen[l.State()] {
			t.Fatalf("state repeated after %d steps", i)
		}
		seen[l.State()] = true
		l.Step(0)
	}
	if l.State() != 1 {
		t.Fatalf("period != 255: ended at %#x", l.State())
	}
}

func TestLFSRZeroStaysZeroWithoutInput(t *testing.T) {
	l, _ := newLFSR(16, 0)
	for i := 0; i < 10; i++ {
		l.Step(0)
	}
	if l.State() != 0 {
		t.Fatalf("autonomous zero state moved: %#x", l.State())
	}
	l.Step(1) // serial input perturbs it
	if l.State() == 0 {
		t.Fatal("input bit ignored")
	}
}

func TestNewLFSRErrors(t *testing.T) {
	if _, err := newLFSR(1, 0); err == nil {
		t.Error("width 1 accepted")
	}
	if _, err := newLFSR(65, 0); err == nil {
		t.Error("width 65 accepted")
	}
	if _, err := newLFSR(13, 0); err == nil {
		t.Error("width without built-in polynomial accepted with taps=0")
	}
	if _, err := newLFSR(13, 1<<13); err == nil {
		t.Error("oversized taps accepted")
	}
	if _, err := newLFSR(13, 0x1B); err != nil {
		t.Errorf("custom taps rejected: %v", err)
	}
}

func TestMISRDeterministicAndOrderSensitive(t *testing.T) {
	m, err := NewMISR(16, 0)
	if err != nil {
		t.Fatal(err)
	}
	a := bitvec.MustParse("0101010101010101")
	b := bitvec.MustParse("1111000011110000")

	m.Capture(a)
	m.Capture(b)
	s1 := m.Signature()

	m.Reset()
	m.Capture(a)
	m.Capture(b)
	if m.Signature() != s1 {
		t.Fatal("signature not deterministic")
	}

	m.Reset()
	m.Capture(b)
	m.Capture(a)
	if m.Signature() == s1 {
		t.Fatal("signature insensitive to response order")
	}
}

func TestMISRRejectsUnknowns(t *testing.T) {
	m, _ := NewMISR(8, 0)
	if err := m.Capture(bitvec.MustParse("01X00101")); err == nil {
		t.Fatal("X response accepted")
	}
}

func TestMISRCycleCount(t *testing.T) {
	m, _ := NewMISR(8, 0)
	m.Capture(bitvec.MustParse("0101010101010101")) // 16 bits -> 2 words
	if m.Cycles() != 2 {
		t.Fatalf("cycles = %d", m.Cycles())
	}
	if p := m.AliasingProbability(); p != 1.0/256 {
		t.Fatalf("aliasing = %v", p)
	}
}

// Property: a single flipped response bit always changes the signature
// (single-bit errors never alias in a linear compactor).
func TestQuickSingleBitErrorDetected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(300) + 1
		resp := bitvec.New(n)
		for i := 0; i < n; i++ {
			resp.Set(i, bitvec.Bit(rng.Intn(2)))
		}
		good, _ := NewMISR(16, 0)
		if err := good.Capture(resp); err != nil {
			return false
		}
		bad, _ := NewMISR(16, 0)
		flipped := resp.Clone()
		i := rng.Intn(n)
		flipped.Set(i, resp.Get(i)^1)
		if err := bad.Capture(flipped); err != nil {
			return false
		}
		return good.Signature() != bad.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: signatures distribute — two random distinct response
// sequences collide with roughly 2^-16 probability; over 200 trials we
// should essentially never see a collision.
func TestQuickNoEasyCollisions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(200) + 20
		a := bitvec.New(n)
		b := bitvec.New(n)
		same := true
		for i := 0; i < n; i++ {
			av, bv := bitvec.Bit(rng.Intn(2)), bitvec.Bit(rng.Intn(2))
			a.Set(i, av)
			b.Set(i, bv)
			if av != bv {
				same = false
			}
		}
		if same {
			return true
		}
		ma, _ := NewMISR(32, 0)
		mb, _ := NewMISR(32, 0)
		ma.Capture(a)
		mb.Capture(b)
		return ma.Signature() != mb.Signature()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

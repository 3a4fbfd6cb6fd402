package ate

import (
	"testing"
	"time"
)

func TestValidate(t *testing.T) {
	if err := DefaultTester().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Tester{ClockHz: 0}).Validate(); err == nil {
		t.Fatal("zero clock accepted")
	}
	if err := (Tester{ClockHz: 1e6, VectorMemBits: -1}).Validate(); err == nil {
		t.Fatal("negative memory accepted")
	}
}

func TestFits(t *testing.T) {
	tr := Tester{ClockHz: 1e6, VectorMemBits: 1000}
	if !tr.fits(1000) || tr.fits(1001) {
		t.Fatal("Fits boundary wrong")
	}
	if !(Tester{ClockHz: 1e6}).fits(1 << 40) {
		t.Fatal("unlimited memory should always fit")
	}
}

func TestTiming(t *testing.T) {
	tr := Tester{ClockHz: 1e6}
	if got := tr.DownloadTime(2_000_000); got != 2*time.Second {
		t.Fatalf("DownloadTime = %v", got)
	}
}

func TestImprovement(t *testing.T) {
	if got := Improvement(100, 30); got != 0.7 {
		t.Fatalf("Improvement = %v", got)
	}
	if got := Improvement(0, 5); got != 0 {
		t.Fatalf("Improvement(0,·) = %v", got)
	}
	if got := Improvement(100, 120); got > -0.199 || got < -0.201 {
		t.Fatalf("expansion Improvement = %v", got)
	}
}

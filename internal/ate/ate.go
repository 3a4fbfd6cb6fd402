// Package ate models the automated test equipment side of the paper's
// Figure 2: a tester with a clock, a vector memory, and one serial
// channel feeding the device under test. Test economics (Section 1) are
// driven by two quantities this package computes: the vector-memory
// volume a test set occupies and the wall-clock download time at the
// tester clock rate.
package ate

import (
	"fmt"
	"time"
)

// Tester describes one ATE channel.
type Tester struct {
	// ClockHz is the tester cycle rate; one bit crosses the channel per
	// cycle.
	ClockHz float64
	// VectorMemBits is the per-channel vector memory capacity (0 =
	// unlimited).
	VectorMemBits int
}

// DefaultTester returns a 20 MHz channel, the class of low-cost tester
// the paper's economics argument targets.
func DefaultTester() Tester {
	return Tester{ClockHz: 20e6}
}

// Validate reports whether the tester description is usable.
func (t Tester) Validate() error {
	if t.ClockHz <= 0 {
		return fmt.Errorf("ate: non-positive clock %v", t.ClockHz)
	}
	if t.VectorMemBits < 0 {
		return fmt.Errorf("ate: negative vector memory %d", t.VectorMemBits)
	}
	return nil
}

// DownloadTime returns the wall-clock time to deliver the given number
// of tester cycles (for raw scan-in, cycles == bits).
func (t Tester) DownloadTime(cycles int) time.Duration {
	return time.Duration(float64(cycles) * float64(time.Second) / t.ClockHz)
}

// Improvement returns the paper's download-performance metric:
// 1 - compressedCycles/rawCycles. With an infinitely fast internal clock
// it converges to the compression ratio (Section 6, Table 2).
func Improvement(rawCycles, compressedCycles int) float64 {
	if rawCycles == 0 {
		return 0
	}
	return 1 - float64(compressedCycles)/float64(rawCycles)
}

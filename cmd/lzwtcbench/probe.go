package main

import (
	"bufio"
	"bytes"
	"compress/lzw"
	"io"
	"sort"
	"time"
)

// The host this benchmark was calibrated on shares its last-level cache
// and memory bandwidth with other tenants, whose load moves this
// program's speed by 15–40% from one minute to the next. Every run
// therefore times a fixed kernel, concurrently with the load, and scales
// its time-valued metrics to a reference kernel speed. The kernel uses
// only the standard library and this file, so a change to the program
// under test cannot change it. It does the kind of work the workloads do
// (render 0/1/X text, scan it back into bit planes, LZW-code it), so it
// slows down when they do; the README records how much this narrows the
// run-to-run spread, and what it cannot correct.

// probeRefNs is the reference kernel time: the median over the runs the
// bounds were set from, on a 2-vCPU Sapphire Rapids VM under load. A run
// whose kernel takes probeRefNs reports its times unscaled.
const probeRefNs = 0.85e6

// probePeriod is how often the probe runs its kernel; one call takes
// under a millisecond, so the probe uses about 1% of one CPU.
const probePeriod = 100 * time.Millisecond

// probeLines is the kernel's text: 64 patterns of 700 bits at 75% X.
var probeLines = func() [][]byte {
	x := uint32(99)
	out := make([][]byte, 64)
	for l := range out {
		b := make([]byte, 700)
		for i := range b {
			x = x*1664525 + 1013904223
			switch {
			case x>>28 < 12:
				b[i] = 'X'
			case x>>27&1 == 0:
				b[i] = '0'
			default:
				b[i] = '1'
			}
		}
		out[l] = b
	}
	return out
}()

// kernel holds the probe's buffers, allocated once so that a call
// allocates next to nothing and GC assists owed by the load seldom land
// in its time.
type kernel struct {
	text   bytes.Buffer
	bw     *bufio.Writer
	scan   []byte
	planes []uint64
	packed bytes.Buffer
	lw     *lzw.Writer
	lr     *lzw.Reader
	out    []byte
	sink   int
}

func newKernel() *kernel {
	k := &kernel{
		scan:   make([]byte, 64<<10),
		planes: make([]uint64, 0, 2*len(probeLines)*11),
		out:    make([]byte, 64<<10),
	}
	k.bw = bufio.NewWriter(&k.text)
	k.lw = lzw.NewWriter(&k.packed, lzw.LSB, 8).(*lzw.Writer)
	k.lr = lzw.NewReader(bytes.NewReader(nil), lzw.LSB, 8).(*lzw.Reader)
	return k
}

// run does one fixed unit of work. Writes to bytes.Buffer and reads
// from bytes.Reader cannot fail, so their errors are not checked.
func (k *kernel) run() {
	k.text.Reset()
	k.bw.Reset(&k.text)
	for _, l := range probeLines {
		k.bw.Write(l)        //nolint:errcheck // see above
		k.bw.WriteByte('\n') //nolint:errcheck // see above
	}
	k.bw.Flush() //nolint:errcheck // see above

	sc := bufio.NewScanner(bytes.NewReader(k.text.Bytes()))
	sc.Buffer(k.scan, len(k.scan))
	k.planes = k.planes[:0]
	for sc.Scan() {
		line := sc.Bytes()
		words := (len(line) + 63) / 64
		base := len(k.planes)
		for i := 0; i < 2*words; i++ {
			k.planes = append(k.planes, 0)
		}
		val, care := k.planes[base:base+words], k.planes[base+words:]
		for i, c := range line {
			switch c {
			case '1':
				val[i>>6] |= 1 << (i & 63)
				care[i>>6] |= 1 << (i & 63)
			case '0':
				care[i>>6] |= 1 << (i & 63)
			}
		}
	}

	k.packed.Reset()
	k.lw.Reset(&k.packed, lzw.LSB, 8)
	k.lw.Write(k.text.Bytes()) //nolint:errcheck // see above
	k.lw.Close()               //nolint:errcheck // see above
	k.lr.Reset(bytes.NewReader(k.packed.Bytes()), lzw.LSB, 8)
	for {
		n, err := k.lr.Read(k.out)
		k.sink += n
		if err == io.EOF {
			break
		}
	}
}

// probe runs the kernel every probePeriod in its own goroutine until
// stopped, and samples the process's live heap and goroutine count on
// the same tick.
type probe struct {
	stop, done chan struct{}
	// Written by the probe goroutine, read only after done closes.
	samples   []float64 // kernel wall times, ns
	liveBytes uint64    // peak /gc/heap/live:bytes
	routines  uint64    // peak /sched/goroutines:goroutines
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		k := newKernel()
		t := time.NewTicker(probePeriod)
		defer t.Stop()
		for {
			start := time.Now()
			k.run()
			p.samples = append(p.samples, float64(time.Since(start).Nanoseconds()))
			m := readMetrics(metricLiveBytes, metricGoroutines)
			p.liveBytes = max(p.liveBytes, m[0].Value.Uint64())
			p.routines = max(p.routines, m[1].Value.Uint64())
			select {
			case <-p.stop:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// end stops the probe, waits for it, and returns the median kernel time
// in ns. The peak fields are final once it returns.
func (p *probe) end() float64 {
	close(p.stop)
	<-p.done
	sort.Float64s(p.samples)
	return percentile(p.samples, 0.5)
}

// scaleToReference converts a metric measured at a kernel time of
// kernelNs to the reference speed: times shrink and rates grow when the
// host ran slow. Metrics in other units are returned unchanged.
func scaleToReference(v float64, unit string, kernelNs float64) float64 {
	s := ratio(probeRefNs, kernelNs)
	switch unit {
	case "s", "ms", "us", "ns", "ns/bit", "ns/char", "ns/code":
		return v * s
	case "ops/s":
		return ratio(v, s)
	}
	return v
}

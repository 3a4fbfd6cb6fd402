package main

import (
	"context"
	"fmt"
	"runtime/metrics"
	"sync"
	"time"

	"lzwtc/internal/telemetry"
)

// hangSlack bounds how long an op may run past the end of the measured
// period before the run gives up on it.
const hangSlack = 60 * time.Second

// loadResult is one measured period of the closed loop.
type loadResult struct {
	ops, failed int
	elapsed     time.Duration
	allocBytes  uint64 // heap bytes allocated by the whole process
	// comp and decomp hold call latencies in ms, by input index.
	comp, decomp [][]float64
	firstErr     error
}

// load runs the closed loop for d: each client takes the inputs round
// robin (the two starting half-way apart), and starts a new op only
// once the last one has been checked. Failed ops count in failed and
// are left out of the latency samples. rec, when non-nil, traces every
// op.
func (e *env) load(ctx context.Context, d time.Duration, rec *telemetry.Recorder) loadResult {
	n := len(e.inputs)
	res := loadResult{comp: make([][]float64, n), decomp: make([][]float64, n)}
	ctx, cancel := context.WithTimeout(ctx, d+hangSlack)
	defer cancel()

	type clientLog struct {
		ops, failed  int
		comp, decomp [][]float64
		err          error
	}
	logs := make([]clientLog, clients)
	allocs0 := heapAllocBytes()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			defer wg.Done()
			cl := e.client(c, rec)
			lg := &logs[c]
			lg.comp, lg.decomp = make([][]float64, n), make([][]float64, n)
			for k := c * n / clients; time.Now().Before(deadline) && ctx.Err() == nil; k++ {
				i := k % n
				comp, decomp, err := e.op(ctx, cl, rec, e.inputs[i])
				if err != nil {
					lg.failed++
					if lg.err == nil {
						lg.err = err
					}
					continue
				}
				lg.ops++
				lg.comp[i] = append(lg.comp[i], ms(comp))
				lg.decomp[i] = append(lg.decomp[i], ms(decomp))
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.allocBytes = heapAllocBytes() - allocs0
	for _, lg := range logs {
		res.ops += lg.ops
		res.failed += lg.failed
		if res.firstErr == nil {
			res.firstErr = lg.err
		}
		for i := range lg.comp {
			res.comp[i] = append(res.comp[i], lg.comp[i]...)
			res.decomp[i] = append(res.decomp[i], lg.decomp[i]...)
		}
	}
	if ctx.Err() != nil && res.firstErr == nil {
		res.firstErr = fmt.Errorf("ops still running %s after the measured period", hangSlack)
		res.failed++
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// opsPerSecond is completed, checked round trips per second of wall
// time.
func (r loadResult) opsPerSecond() float64 {
	return ratio(float64(r.ops), r.elapsed.Seconds())
}

// Runtime metrics read by the benchmark.
const (
	metricAllocBytes = "/gc/heap/allocs:bytes"
	metricLiveBytes  = "/gc/heap/live:bytes"
	metricGoroutines = "/sched/goroutines:goroutines"
	metricGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	metricTotalCPU   = "/cpu/classes/total:cpu-seconds"
)

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	return readMetrics(metricAllocBytes)[0].Value.Uint64()
}

// cpuSeconds returns the process's cumulative GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	s := readMetrics(metricGCCPU, metricTotalCPU)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

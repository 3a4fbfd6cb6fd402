// Package parallel is the worker pool: a bounded pool that fans a
// queue of independent jobs across GOMAXPROCS-scaled workers with
// deterministic, input-ordered results.
//
// The paper's compressor is inherently sequential per stream (the
// dynamic don't-care walk threads dictionary state through every
// character), so single-stream latency is fixed by the algorithm.
// Throughput over many streams is not: test sets for different cores,
// configurator points and shards share nothing, exactly like the
// independent blocks a hardware LZ4 accelerator pipelines. This package
// supplies that outer loop once, with the properties every caller
// needs:
//
//   - results land at the index of their job, regardless of worker
//     count or completion order, so parallel output is byte-identical
//     to a sequential loop;
//   - context cancellation stops dispatch promptly and every goroutine
//     exits before Map returns;
//   - a worker panic is recovered into that job's error (a *PanicError
//     carrying the stack), never a process crash;
//   - the error policy is a knob: FailFast cancels remaining jobs on
//     the first failure, CollectAll runs everything and reports per-job
//     errors.
//
// The pool knows nothing of compression: the root package's one
// compression body runs on it for Compress (one job per shard) and
// CompressBatch (one job per batch entry), and the experiment sweeps
// run their grids on it. shard.go splits a set into shards.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"lzwtc/internal/telemetry"
)

// ErrorPolicy selects how the pool reacts to a failing job.
type ErrorPolicy uint8

// Error policies.
const (
	// FailFast cancels the remaining queue on the first job error; jobs
	// never started report ErrSkipped.
	FailFast ErrorPolicy = iota
	// CollectAll runs every job and leaves each error in its Outcome;
	// the pool itself only fails on context cancellation.
	CollectAll
)

// String names the policy.
func (p ErrorPolicy) String() string {
	switch p {
	case FailFast:
		return "failfast"
	case CollectAll:
		return "collect"
	default:
		return fmt.Sprintf("ErrorPolicy(%d)", uint8(p))
	}
}

// Options configures one pool run.
type Options struct {
	// Workers bounds concurrent jobs; <= 0 means GOMAXPROCS.
	Workers int
	// Policy selects fail-fast or collect-all error handling.
	Policy ErrorPolicy
	// Recorder receives pool telemetry (queue depth, jobs in flight,
	// per-job events) and is threaded into instrumented job bodies.
	// nil runs uninstrumented.
	Recorder *telemetry.Recorder
}

// workerCount resolves the worker bound for n queued jobs.
func (o Options) workerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ErrSkipped marks a job that never ran because an earlier failure
// canceled the queue under FailFast.
var ErrSkipped = errors.New("parallel: job skipped after earlier failure")

// PanicError is a worker panic converted to a job error.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: job panic: %v", e.Value)
}

// Outcome is one job's result slot: the value produced or the error
// (job failure, *PanicError, ErrSkipped, or the context's error).
type Outcome[R any] struct {
	Value R
	Err   error
}

// Map runs fn over every item through a bounded worker pool and returns
// one Outcome per item, at the item's index. The overall error is the
// context's error if the run was canceled, else (under FailFast) the
// first job error; under CollectAll per-job errors stay in the
// outcomes. The calling goroutine is one of the workers, so a one-item
// batch runs with no goroutine handoff; Map does not return until every
// other worker goroutine has exited.
func Map[T, R any](ctx context.Context, items []T, opts Options, fn func(ctx context.Context, index int, item T) (R, error)) ([]Outcome[R], error) {
	out := make([]Outcome[R], len(items))
	if len(items) == 0 {
		return out, ctx.Err()
	}

	inner, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		firstErr error
		errOnce  sync.Once
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			cancel()
		})
	}

	m := newPoolMetrics(opts.Recorder, len(items))
	var next atomic.Int64            // index of the next job to claim
	done := make([]bool, len(items)) // done[i] written only by i's worker
	work := func(ctx context.Context) {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(items) {
				return
			}
			m.dispatched()
			jctx, sp := m.jobStart(ctx)
			r, err := runRecovered(jctx, i, items[i], fn)
			m.jobEnd(sp, i, err)
			out[i] = Outcome[R]{Value: r, Err: err}
			done[i] = true
			if err != nil && opts.Policy == FailFast {
				fail(err)
			}
		}
	}

	var wg sync.WaitGroup
	workers := opts.workerCount(len(items))
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(inner)
		}()
	}
	work(inner)
	wg.Wait()

	// Jobs the cancellation stopped before they were claimed: report
	// why they did not run.
	if inner.Err() != nil {
		skip := ErrSkipped
		if ctx.Err() != nil {
			skip = ctx.Err()
		}
		for i := range done {
			if !done[i] {
				out[i].Err = skip
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if opts.Policy == FailFast && firstErr != nil {
		return out, firstErr
	}
	return out, nil
}

// runRecovered invokes fn with panic containment: a panicking job
// yields a *PanicError instead of unwinding the worker.
func runRecovered[T, R any](ctx context.Context, i int, item T, fn func(context.Context, int, T) (R, error)) (r R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, i, item)
}

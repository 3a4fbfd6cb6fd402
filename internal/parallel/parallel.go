// Package parallel is the batch compression engine: a bounded worker
// pool that fans a queue of independent jobs — test set × configuration
// points of the paper's parameter grid — across GOMAXPROCS-scaled
// workers with deterministic, input-ordered results.
//
// The paper's compressor is inherently sequential per stream (the
// dynamic don't-care walk threads dictionary state through every
// character), so single-stream latency is fixed by the algorithm.
// Batch throughput is not: test sets for different cores and different
// configurator points share nothing, exactly like the independent
// blocks a hardware LZ4 accelerator pipelines. This package supplies
// that outer loop once, with the properties every caller needs:
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
// On top of the generic pool sit CompressJobs (test set × Config
// batches) and, in shard.go, the sharded single-set mode.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
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

// ParsePolicy parses a policy name as printed by String.
func ParsePolicy(s string) (ErrorPolicy, error) {
	switch s {
	case "failfast":
		return FailFast, nil
	case "collect":
		return CollectAll, nil
	}
	return 0, fmt.Errorf("parallel: unknown error policy %q (want failfast or collect)", s)
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
// outcomes. Map does not return until every worker goroutine has
// exited.
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
	queue := make(chan int)
	done := make([]bool, len(items)) // done[i] written only by i's worker
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // feeder
		defer wg.Done()
		defer close(queue)
		for i := range items {
			select {
			case queue <- i:
				m.dispatched()
			case <-inner.Done():
				return
			}
		}
	}()

	workers := opts.workerCount(len(items))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				if inner.Err() != nil {
					// Canceled after dispatch: leave the slot for the
					// post-wait sweep so it reports the cancellation
					// cause, not a partial run.
					continue
				}
				jctx, sp := m.jobStart(inner)
				r, err := runRecovered(jctx, i, items[i], fn)
				m.jobEnd(sp, i, err)
				out[i] = Outcome[R]{Value: r, Err: err}
				done[i] = true
				if err != nil && opts.Policy == FailFast {
					fail(err)
				}
			}
		}()
	}
	wg.Wait()

	// Jobs the cancellation raced past: report why they did not run.
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

// Job is one batch compression unit: a test set under a configuration.
type Job struct {
	// Name labels the job in results, telemetry and batch records.
	Name string
	// Set is the test set; it is only read, so one set may back many
	// jobs (a parameter sweep over a single circuit).
	Set *bitvec.CubeSet
	// Cfg is the LZW configuration for this job.
	Cfg core.Config
}

// JobResult is one finished compression job in a batch.
type JobResult struct {
	Job Job
	// Res is the compressed stream; nil when Err is set.
	Res *core.Result
	// OriginalBits is the unpadded test-set volume ratios are computed
	// against, mirroring the root API.
	OriginalBits int
	Err          error
}

// Ratio returns the job's compression ratio against the unpadded
// volume, 0 for failed or empty jobs.
func (r JobResult) Ratio() float64 {
	if r.Res == nil || r.OriginalBits == 0 {
		return 0
	}
	return 1 - float64(r.Res.Stats.CompressedBits)/float64(r.OriginalBits)
}

// CompressJobs compresses a batch of jobs across the pool. Each job
// serializes its set aligned to its own character size and compresses
// it exactly as the sequential root API does, so results are
// byte-identical to a one-job-at-a-time loop. The returned slice always
// has one entry per job, in job order.
func CompressJobs(ctx context.Context, jobs []Job, opts Options) ([]JobResult, error) {
	outcomes, err := Map(ctx, jobs, opts, func(jctx context.Context, _ int, j Job) (JobResult, error) {
		res, e := compressJob(jctx, j, opts.Recorder)
		if e != nil {
			return JobResult{}, e
		}
		return JobResult{Job: j, Res: res, OriginalBits: j.Set.TotalBits()}, nil
	})
	results := make([]JobResult, len(jobs))
	for i, o := range outcomes {
		results[i] = o.Value
		if o.Err != nil {
			results[i] = JobResult{Job: jobs[i], Err: o.Err}
		}
	}
	return results, err
}

// compressJob runs one job body: validate, serialize aligned, compress.
// ctx carries the job's trace span, so serialization and the core
// phases attribute under it.
func compressJob(ctx context.Context, j Job, rec *telemetry.Recorder) (*core.Result, error) {
	if err := j.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("parallel: job %q: %w", j.Name, err)
	}
	if j.Set == nil || len(j.Set.Cubes) == 0 {
		return nil, fmt.Errorf("parallel: job %q: empty test set", j.Name)
	}
	_, ssp := rec.StartSpan(ctx, core.SpanSerialize)
	stream := j.Set.SerializeAligned(j.Cfg.CharBits)
	ssp.End(telemetry.F("bits", stream.Len()))
	res, err := core.CompressWithPreloadObservedCtx(ctx, stream, j.Cfg, nil, rec)
	if err != nil {
		return nil, fmt.Errorf("parallel: job %q: %w", j.Name, err)
	}
	return res, nil
}

package lzwtc

import (
	"context"

	"lzwtc/internal/core"
	"lzwtc/internal/parallel"
)

// BatchOptions configures a concurrent batch run (the same in-module
// aliasing as Recorder): a worker bound, an error policy and an
// optional telemetry recorder.
type BatchOptions = parallel.Options

// ErrorPolicy selects how a batch reacts to a failing job.
type ErrorPolicy = parallel.ErrorPolicy

// Batch error policies.
const (
	// FailFast cancels the remaining queue on the first job error.
	FailFast = parallel.FailFast
	// CollectAll runs every job and reports per-job errors.
	CollectAll = parallel.CollectAll
)

// ErrSkipped marks a job that never ran because an earlier failure
// canceled the batch under FailFast.
var ErrSkipped = parallel.ErrSkipped

// PanicError is a batch worker panic converted to that job's error,
// carrying the recovered value and stack.
type PanicError = parallel.PanicError

// BatchJob is one unit of a concurrent batch: a test set under a
// configuration. Jobs only read their sets, so one set may back many
// jobs (a parameter sweep).
type BatchJob struct {
	Name string
	Set  *TestSet
	Cfg  Config
}

// BatchResult is one finished batch job: the job, its Result (nil on
// failure) and its error.
type BatchResult struct {
	Job    BatchJob
	Result *Result
	Err    error
}

// CompressBatch compresses jobs across a bounded worker pool. Results
// land in job order and each is byte-identical to what Compress returns
// for the same (set, config) pair — the batch engine only supplies the
// outer loop. The context cancels the batch; the overall error is the
// context's error, or (under FailFast) the first job error.
func CompressBatch(ctx context.Context, jobs []BatchJob, opts BatchOptions) ([]BatchResult, error) {
	pjobs := make([]parallel.Job, len(jobs))
	for i, j := range jobs {
		pjobs[i] = parallel.Job{Name: j.Name, Set: j.Set, Cfg: j.Cfg}
	}
	results, err := parallel.CompressJobs(ctx, pjobs, opts)
	out := make([]BatchResult, len(jobs))
	for i, r := range results {
		out[i] = BatchResult{Job: jobs[i], Err: r.Err}
		if r.Err == nil {
			out[i].Result = newResult(jobs[i].Set, jobs[i].Cfg, []*core.Result{r.Res}, []int{len(jobs[i].Set.Cubes)})
		}
	}
	return out, err
}

// CompressSharded splits one test set into shards of at most
// patternsPerShard consecutive patterns and compresses them
// concurrently, each with a fresh dictionary. A shard boundary is
// semantically a FullReset — decompression is exact — at a measured
// ratio cost (each shard re-learns its dictionary). patternsPerShard
// <= 0 compresses the whole set as one shard.
func CompressSharded(ctx context.Context, ts *TestSet, cfg Config, patternsPerShard int, opts BatchOptions) (*Result, error) {
	return CompressShardedPreloaded(ctx, ts, cfg, nil, patternsPerShard, opts)
}

// newResult assembles the Result of compressing ts as the given shards.
func newResult(ts *TestSet, cfg Config, shards []*core.Result, patterns []int) *Result {
	return &Result{
		Cfg:           cfg,
		Width:         ts.Width,
		Patterns:      len(ts.Cubes),
		OriginalBits:  ts.TotalBits(),
		Shards:        shards,
		ShardPatterns: patterns,
	}
}

package lzwtc

import (
	"context"
	"fmt"

	"lzwtc/internal/core"
	"lzwtc/internal/parallel"
	"lzwtc/internal/telemetry"
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
// for the same (set, config) pair: both run compressGroups. The context
// cancels the batch; the overall error is the context's error, or
// (under FailFast) the first job error.
func CompressBatch(ctx context.Context, jobs []BatchJob, opts BatchOptions) ([]BatchResult, error) {
	outcomes, err := compressGroups(ctx, jobs, nil, opts, func(i int) string {
		return fmt.Sprintf("job %q", jobs[i].Name)
	})
	out := make([]BatchResult, len(jobs))
	for i, o := range outcomes {
		out[i] = BatchResult{Job: jobs[i], Err: o.Err}
		if o.Err == nil {
			out[i].Result = newResult(jobs[i].Set, jobs[i].Cfg, []*core.Result{o.Value}, []int{len(jobs[i].Set.Cubes)})
		}
	}
	return out, err
}

// Registry metric names of compressGroups: every compressed group
// counts as one shard, and its ratio is observed, so the cost of
// shard-boundary dictionary resets shows as a distribution.
const (
	metricShards     = "lzwtc_batch_shards_total"
	metricShardRatio = "lzwtc_batch_shard_ratio"
)

// shardRatioBuckets returns the histogram bounds for per-shard
// compression ratios: the paper's Table 3 spans 23–89%, and sharding
// can push small shards negative (expansion), hence the low tail.
func shardRatioBuckets() []float64 {
	return []float64{-0.5, -0.25, 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
}

// compressGroups is the one compression body on the pool: parallel.Map
// runs it once per group, and each group is compressed from pre (nil is
// a cold start; the core validates the Config) and counted as one
// shard, its ratio observed. Compress hands it its shards,
// CompressBatch one group per job. A group's error names it by
// label(i).
func compressGroups(ctx context.Context, groups []BatchJob, pre *Preload, opts BatchOptions, label func(i int) string) ([]parallel.Outcome[*core.Result], error) {
	var shards *telemetry.Counter
	var ratios *telemetry.Histogram
	if reg := opts.Recorder.Registry(); reg != nil {
		shards = reg.Counter(metricShards, "shards compressed")
		ratios = reg.Histogram(metricShardRatio, "per-shard compression ratio", shardRatioBuckets())
	}
	return parallel.Map(ctx, groups, opts, func(jctx context.Context, i int, g BatchJob) (*core.Result, error) {
		if g.Set == nil || len(g.Set.Cubes) == 0 {
			return nil, fmt.Errorf("lzwtc: %s: empty test set", label(i))
		}
		res, err := core.CompressWithPreloadObservedCtx(jctx, g.Set, g.Cfg, pre, opts.Recorder)
		if err != nil {
			return nil, fmt.Errorf("lzwtc: %s: %w", label(i), err)
		}
		shards.Inc()
		if bits := g.Set.TotalBits(); bits > 0 {
			ratios.Observe(1 - float64(res.Stats.CompressedBits)/float64(bits))
		}
		return res, nil
	})
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

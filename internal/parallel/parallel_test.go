package parallel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/telemetry"
)

// testSet builds a deterministic cube set with the given don't-care
// density; the generator is intentionally independent of bench's so the
// differential tests do not share a code path with the workloads.
func testSet(seed int64, patterns, width int, xDensity float64) *bitvec.CubeSet {
	rng := rand.New(rand.NewSource(seed))
	cs := bitvec.NewCubeSet(width)
	for p := 0; p < patterns; p++ {
		v := bitvec.New(width)
		for i := 0; i < width; i++ {
			if rng.Float64() >= xDensity {
				v.Set(i, bitvec.Bit(rng.Intn(2)))
			}
		}
		if err := cs.Add(v); err != nil {
			panic(err)
		}
	}
	return cs
}

// testJobs builds a job grid: a few seeded sets crossed with a few
// configurations, including FullReset and the DictSize==2^CharBits
// edge.
func testJobs() []Job {
	sets := []*bitvec.CubeSet{
		testSet(1, 40, 61, 0.8),
		testSet(2, 25, 33, 0.5),
		testSet(3, 10, 97, 0.95),
		testSet(4, 17, 24, 0.0),
	}
	cfgs := []core.Config{
		{CharBits: 4, DictSize: 64, EntryBits: 16},
		{CharBits: 2, DictSize: 16, EntryBits: 8, Full: core.FullReset},
		{CharBits: 3, DictSize: 8, EntryBits: 9, Full: core.FullReset}, // literal-only edge
		{CharBits: 7, DictSize: 256, EntryBits: 63, Tie: core.TieNewest},
	}
	var jobs []Job
	for si, s := range sets {
		for ci, cfg := range cfgs {
			jobs = append(jobs, Job{Name: fmt.Sprintf("set%d/cfg%d", si, ci), Set: s, Cfg: cfg})
		}
	}
	return jobs
}

// sequentialResults compresses the jobs one at a time through the same
// public entry points the root API uses.
func sequentialResults(t *testing.T, jobs []Job) []*core.Result {
	t.Helper()
	out := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		res, err := core.Compress(j.Set.SerializeAligned(j.Cfg.CharBits), j.Cfg)
		if err != nil {
			t.Fatalf("sequential %s: %v", j.Name, err)
		}
		out[i] = res
	}
	return out
}

// TestParallelMatchesSequential is the differential property: for every
// worker count and job order, the pool's output is byte-identical to
// the sequential loop, result i always belonging to job i.
func TestParallelMatchesSequential(t *testing.T) {
	jobs := testJobs()
	want := sequentialResults(t, jobs)

	workerCounts := []int{1, runtime.NumCPU(), 2 * runtime.NumCPU()}
	for _, workers := range workerCounts {
		for trial := 0; trial < 3; trial++ {
			// Shuffle the submission order; expectations follow the
			// permutation, so this also proves order-independence.
			perm := rand.New(rand.NewSource(int64(workers*100 + trial))).Perm(len(jobs))
			shuffled := make([]Job, len(jobs))
			for i, p := range perm {
				shuffled[i] = jobs[p]
			}
			results, err := CompressJobs(context.Background(), shuffled, Options{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d trial=%d: %v", workers, trial, err)
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("workers=%d job %s: %v", workers, r.Job.Name, r.Err)
				}
				exp := want[perm[i]]
				if !bytes.Equal(r.Res.Pack(), exp.Pack()) {
					t.Fatalf("workers=%d job %s: packed stream differs from sequential", workers, r.Job.Name)
				}
				if r.Res.Stats != exp.Stats {
					t.Fatalf("workers=%d job %s: stats differ: %+v vs %+v", workers, r.Job.Name, r.Res.Stats, exp.Stats)
				}
				if r.OriginalBits != shuffled[i].Set.TotalBits() {
					t.Fatalf("workers=%d job %s: OriginalBits %d, want %d", workers, r.Job.Name, r.OriginalBits, shuffled[i].Set.TotalBits())
				}
			}
		}
	}
}

// waitGoroutines polls until the goroutine count settles back to at
// most base, failing after the deadline — the leak guard for
// cancellation paths.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

func TestMapContextCancelMidBatch(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())

	items := make([]int, 64)
	var started atomic.Int32
	outcomes, err := Map(ctx, items, Options{Workers: 2}, func(ctx context.Context, i int, _ int) (int, error) {
		if started.Add(1) == 3 {
			cancel() // cancel from inside the batch, mid-flight
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(time.Millisecond):
			return i, nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("overall error = %v, want context.Canceled", err)
	}
	if len(outcomes) != len(items) {
		t.Fatalf("got %d outcomes, want %d", len(outcomes), len(items))
	}
	// Every job either completed or reports the cancellation; none hang.
	skipped := 0
	for i, o := range outcomes {
		if o.Err != nil {
			if !errors.Is(o.Err, context.Canceled) {
				t.Fatalf("outcome %d: %v, want context.Canceled lineage", i, o.Err)
			}
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("cancellation canceled nothing — test raced to completion")
	}
	waitGoroutines(t, base)
}

func TestMapPreCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int32{}
	_, err := Map(ctx, []int{1, 2, 3}, Options{}, func(context.Context, int, int) (int, error) {
		ran.Add(1)
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d jobs ran under a pre-canceled context", n)
	}
}

func TestWorkerPanicBecomesJobError(t *testing.T) {
	base := runtime.NumGoroutine()
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	outcomes, err := Map(context.Background(), items, Options{Workers: 3, Policy: CollectAll},
		func(_ context.Context, _ int, v int) (int, error) {
			if v == 4 {
				panic("boom")
			}
			return v * 2, nil
		})
	if err != nil {
		t.Fatalf("collect-all overall error: %v", err)
	}
	for i, o := range outcomes {
		if i == 4 {
			var pe *PanicError
			if !errors.As(o.Err, &pe) {
				t.Fatalf("outcome 4 error = %v, want *PanicError", o.Err)
			}
			if pe.Value != "boom" || len(pe.Stack) == 0 {
				t.Fatalf("panic payload not preserved: %+v", pe)
			}
			continue
		}
		if o.Err != nil || o.Value != i*2 {
			t.Fatalf("outcome %d = (%d, %v), want (%d, nil)", i, o.Value, o.Err, i*2)
		}
	}
	waitGoroutines(t, base)
}

func TestFailFastSkipsRemaining(t *testing.T) {
	boom := errors.New("job 0 failed")
	items := make([]int, 128)
	outcomes, err := Map(context.Background(), items, Options{Workers: 1, Policy: FailFast},
		func(_ context.Context, i int, _ int) (int, error) {
			if i == 0 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("overall error = %v, want the first job error", err)
	}
	skipped := 0
	for i := 1; i < len(outcomes); i++ {
		if errors.Is(outcomes[i].Err, ErrSkipped) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("fail-fast did not skip any remaining job")
	}
}

func TestCollectAllRunsEverything(t *testing.T) {
	boom := errors.New("odd jobs fail")
	items := make([]int, 20)
	var ran atomic.Int32
	outcomes, err := Map(context.Background(), items, Options{Workers: 4, Policy: CollectAll},
		func(_ context.Context, i int, _ int) (int, error) {
			ran.Add(1)
			if i%2 == 1 {
				return 0, boom
			}
			return i, nil
		})
	if err != nil {
		t.Fatalf("collect-all overall error: %v", err)
	}
	if int(ran.Load()) != len(items) {
		t.Fatalf("ran %d of %d jobs", ran.Load(), len(items))
	}
	for i, o := range outcomes {
		wantErr := i%2 == 1
		if (o.Err != nil) != wantErr {
			t.Fatalf("outcome %d error = %v, want error: %v", i, o.Err, wantErr)
		}
	}
}

func TestCompressJobsReportsBadJobs(t *testing.T) {
	good := testSet(9, 5, 16, 0.5)
	jobs := []Job{
		{Name: "ok", Set: good, Cfg: core.Config{CharBits: 4, DictSize: 32, EntryBits: 8}},
		{Name: "bad-cfg", Set: good, Cfg: core.Config{CharBits: 0, DictSize: 32}},
		{Name: "empty", Set: bitvec.NewCubeSet(16), Cfg: core.Config{CharBits: 4, DictSize: 32, EntryBits: 8}},
	}
	results, err := CompressJobs(context.Background(), jobs, Options{Policy: CollectAll})
	if err != nil {
		t.Fatalf("collect-all: %v", err)
	}
	if results[0].Err != nil || results[0].Res == nil {
		t.Fatalf("good job failed: %v", results[0].Err)
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Fatalf("bad jobs did not error: %v / %v", results[1].Err, results[2].Err)
	}
	if results[1].Res != nil || results[2].Res != nil {
		t.Fatal("failed jobs carry results")
	}
}

func TestPoolTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.New(reg)
	jobs := testJobs()
	if _, err := CompressJobs(context.Background(), jobs, Options{Workers: 4, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters[MetricJobs] != int64(len(jobs)) {
		t.Fatalf("%s = %d, want %d", MetricJobs, counters[MetricJobs], len(jobs))
	}
	if counters[MetricJobErrors] != 0 {
		t.Fatalf("%s = %d, want 0", MetricJobErrors, counters[MetricJobErrors])
	}
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges[MetricQueueDepth] != 0 || gauges[MetricInFlight] != 0 {
		t.Fatalf("queue/in-flight gauges did not drain: %v / %v", gauges[MetricQueueDepth], gauges[MetricInFlight])
	}
	if counters[MetricJobPanics] != 0 {
		t.Fatalf("%s = %d, want 0 on a clean run", MetricJobPanics, counters[MetricJobPanics])
	}
}

// TestPoolPanicTelemetry: a recovered worker panic must surface on the
// panic counter, not vanish into the job-error count alone.
func TestPoolPanicTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	rec := telemetry.New(reg)
	items := []int{0, 1, 2, 3}
	if _, err := Map(context.Background(), items, Options{Workers: 2, Policy: CollectAll, Recorder: rec},
		func(_ context.Context, _ int, v int) (int, error) {
			if v == 2 {
				panic("boom")
			}
			return v, nil
		}); err != nil {
		t.Fatalf("collect-all: %v", err)
	}
	var got int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == MetricJobPanics {
			got = c.Value
		}
	}
	if got != 1 {
		t.Fatalf("%s = %d, want 1", MetricJobPanics, got)
	}
}

// TestMapSingleJob: a one-item Map, which runs entirely on the caller's
// goroutine, keeps the pool's contract — value, policy-dependent error,
// panic containment, pre-canceled context and pool telemetry.
func TestMapSingleJob(t *testing.T) {
	boom := errors.New("job failed")
	for _, tc := range []struct {
		name    string
		policy  ErrorPolicy
		job     func() (int, error)
		wantErr error // overall error
		panics  bool
	}{
		{"ok", FailFast, func() (int, error) { return 7, nil }, nil, false},
		{"failfast", FailFast, func() (int, error) { return 0, boom }, boom, false},
		{"collect", CollectAll, func() (int, error) { return 0, boom }, nil, false},
		{"panic", CollectAll, func() (int, error) { panic("boom") }, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.NewRegistry()
			rec := telemetry.New(reg)
			outcomes, err := Map(context.Background(), []int{0}, Options{Policy: tc.policy, Recorder: rec},
				func(context.Context, int, int) (int, error) { return tc.job() })
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("overall error = %v, want %v", err, tc.wantErr)
			}
			var pe *PanicError
			if got := errors.As(outcomes[0].Err, &pe); got != tc.panics {
				t.Fatalf("outcome error = %v, panic wanted: %v", outcomes[0].Err, tc.panics)
			}
			counters := map[string]int64{}
			for _, c := range reg.Snapshot().Counters {
				counters[c.Name] = c.Value
			}
			if counters[MetricJobs] != 1 || (counters[MetricJobPanics] == 1) != tc.panics {
				t.Fatalf("jobs/panics counters = %d/%d", counters[MetricJobs], counters[MetricJobPanics])
			}
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	outcomes, err := Map(ctx, []int{0}, Options{}, func(context.Context, int, int) (int, error) {
		ran = true
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) || !errors.Is(outcomes[0].Err, context.Canceled) || ran {
		t.Fatalf("pre-canceled single job: err %v, outcome %v, ran %v", err, outcomes[0].Err, ran)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []ErrorPolicy{FailFast, CollectAll} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("ParsePolicy accepted garbage")
	}
}

// TestBatchRecyclesDictArena pins the arena contract for the pool: every
// job acquires exactly one dictionary (recycles + misses == jobs), and a
// batch with more jobs than workers reuses dictionaries released by
// earlier jobs rather than allocating fresh ones throughout.
func TestBatchRecyclesDictArena(t *testing.T) {
	// Many copies of the same moderate config so released dictionaries
	// always fit the next acquisition.
	set := testSet(9, 12, 48, 0.7)
	cfg := core.Config{CharBits: 4, DictSize: 128, EntryBits: 20}
	var jobs []Job
	for i := 0; i < 48; i++ {
		jobs = append(jobs, Job{Name: fmt.Sprintf("job%d", i), Set: set, Cfg: cfg})
	}

	reg := telemetry.NewRegistry()
	opts := Options{Workers: 2, Recorder: telemetry.New(reg)}
	if _, err := CompressJobs(context.Background(), jobs, opts); err != nil {
		t.Fatal(err)
	}

	var recycles, misses int64
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case core.MetricDictPoolRecycles:
			recycles = c.Value
		case core.MetricDictPoolMisses:
			misses = c.Value
		}
	}
	if recycles+misses != int64(len(jobs)) {
		t.Fatalf("recycles(%d) + misses(%d) = %d, want one acquisition per job (%d)",
			recycles, misses, recycles+misses, len(jobs))
	}
	// 48 jobs over 2 workers: at most a handful of dictionaries can be
	// live at once, so the vast majority of acquisitions must recycle.
	// (sync.Pool may shed entries under GC pressure, hence > 0 rather
	// than an exact count.)
	if recycles == 0 {
		t.Fatalf("no dictionary recycled across %d same-config jobs (misses=%d)", len(jobs), misses)
	}
}

package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lzwtc/internal/telemetry"
)

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

// TestPoolTelemetry: a clean run counts every job, drains the queue
// and in-flight gauges, and closes one batch.job span per job with
// status ok.
func TestPoolTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	var mu sync.Mutex
	var jobSpans []telemetry.SpanRecord
	rec := telemetry.New(reg, telemetry.SinkFunc(func(ev telemetry.Event) {
		if sp, ok := telemetry.SpanRecordFromEvent(ev); ok && sp.Name == EventJob {
			mu.Lock()
			jobSpans = append(jobSpans, sp)
			mu.Unlock()
		}
	}))
	jobs := make([]int, 16)
	if _, err := Map(context.Background(), jobs, Options{Workers: 4, Recorder: rec},
		func(_ context.Context, i int, _ int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if len(jobSpans) != len(jobs) {
		t.Fatalf("%q spans = %d, want %d", EventJob, len(jobSpans), len(jobs))
	}
	for _, sp := range jobSpans {
		if sp.Attrs["status"] != "ok" {
			t.Fatalf("job span status = %q: %+v", sp.Attrs["status"], sp)
		}
	}
	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters[metricJobs] != int64(len(jobs)) {
		t.Fatalf("%s = %d, want %d", metricJobs, counters[metricJobs], len(jobs))
	}
	if counters[metricJobErrors] != 0 {
		t.Fatalf("%s = %d, want 0", metricJobErrors, counters[metricJobErrors])
	}
	gauges := map[string]float64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges[MetricQueueDepth] != 0 || gauges[metricInFlight] != 0 {
		t.Fatalf("queue/in-flight gauges did not drain: %v / %v", gauges[MetricQueueDepth], gauges[metricInFlight])
	}
	if counters[metricJobPanics] != 0 {
		t.Fatalf("%s = %d, want 0 on a clean run", metricJobPanics, counters[metricJobPanics])
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
		if c.Name == metricJobPanics {
			got = c.Value
		}
	}
	if got != 1 {
		t.Fatalf("%s = %d, want 1", metricJobPanics, got)
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
			if counters[metricJobs] != 1 || (counters[metricJobPanics] == 1) != tc.panics {
				t.Fatalf("jobs/panics counters = %d/%d", counters[metricJobs], counters[metricJobPanics])
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

package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lzwtc/internal/parallel"
	"lzwtc/internal/telemetry"
)

// fakeClock is an injectable manager clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// newTestManager builds a manager over a fresh registry, closing it
// with the test.
func newTestManager(t *testing.T, cfg Config) (*Manager, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg.Recorder = telemetry.New(reg)
	m := NewManager(cfg)
	t.Cleanup(m.Close)
	return m, reg
}

// waitTerminal polls until the job leaves the live states.
func waitTerminal(t *testing.T, m *Manager, id string) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

func quickJob(payload *Payload, err error) RunFunc {
	return func(ctx context.Context, pr *Progress) (*Payload, error) {
		pr.SetTotal(1)
		pr.Add(1)
		return payload, err
	}
}

// blockingJob returns a run function parked until release is closed
// (or the job context is canceled), plus a channel closed once the
// body is running.
func blockingJob(release <-chan struct{}) (RunFunc, <-chan struct{}) {
	started := make(chan struct{})
	return func(ctx context.Context, pr *Progress) (*Payload, error) {
		close(started)
		select {
		case <-release:
			return &Payload{Data: []byte("late")}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, started
}

func TestJobLifecycleDone(t *testing.T) {
	m, reg := newTestManager(t, Config{Concurrent: 1})
	st, err := m.Submit(context.Background(), "t1", quickJob(&Payload{Data: []byte("abc"), Patterns: 7, Ratio: 2.5}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.ID == "" || st.Tenant != "t1" {
		t.Fatalf("bad initial snapshot: %+v", st)
	}
	fin := waitTerminal(t, m, st.ID)
	if fin.State != StateDone {
		t.Fatalf("want done, got %s (%s)", fin.State, fin.Error)
	}
	if fin.Patterns != 7 || fin.Ratio != 2.5 || fin.ResultBytes != 3 {
		t.Fatalf("payload summary not reflected: %+v", fin)
	}
	if fin.FramesDone != 1 || fin.FramesTotal != 1 {
		t.Fatalf("progress not fed: %d/%d", fin.FramesDone, fin.FramesTotal)
	}
	if fin.Started.IsZero() || fin.Finished.IsZero() || fin.Expires.IsZero() {
		t.Fatalf("lifecycle timestamps missing: %+v", fin)
	}
	payload, _, err := m.Result(st.ID)
	if err != nil || string(payload.Data) != "abc" {
		t.Fatalf("result fetch: %v / %v", payload, err)
	}

	snap := reg.Snapshot()
	if got := snap.CounterValue(MetricJobsSubmitted); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricJobsSubmitted, got)
	}
	if got := snap.CounterValue(MetricJobsCompleted); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricJobsCompleted, got)
	}
	for _, name := range []string{MetricJobsFailed, MetricJobsCanceled, MetricJobsExpired, MetricJobsRejected} {
		if got := snap.CounterValue(name); got != 0 {
			t.Fatalf("%s = %d, want 0", name, got)
		}
	}
	if got := snap.GaugeValue(MetricJobsQueueDepth); got != 0 {
		t.Fatalf("%s = %v, want 0", MetricJobsQueueDepth, got)
	}
	if got := snap.GaugeValue(MetricJobsRunning); got != 0 {
		t.Fatalf("%s = %v, want 0", MetricJobsRunning, got)
	}
	if got := snap.GaugeValue(MetricJobsRetained); got != 1 {
		t.Fatalf("%s = %v, want 1", MetricJobsRetained, got)
	}
	for _, h := range snap.Histograms {
		if h.Name == MetricJobDuration && h.Count == 1 {
			return
		}
	}
	t.Fatalf("%s histogram did not observe the job", MetricJobDuration)
}

func TestJobFailureAndPanicContainment(t *testing.T) {
	m, _ := newTestManager(t, Config{Concurrent: 1})
	boom := errors.New("boom")
	st, err := m.Submit(context.Background(), "t", quickJob(nil, boom))
	if err != nil {
		t.Fatal(err)
	}
	fin := waitTerminal(t, m, st.ID)
	if fin.State != StateFailed || fin.Error != "boom" {
		t.Fatalf("want failed/boom, got %s/%q", fin.State, fin.Error)
	}
	if _, _, err := m.Result(st.ID); !errors.Is(err, boom) {
		t.Fatalf("Result of failed job: %v", err)
	}

	st2, err := m.Submit(context.Background(), "t", func(ctx context.Context, pr *Progress) (*Payload, error) {
		panic("kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	fin2 := waitTerminal(t, m, st2.ID)
	if fin2.State != StateFailed {
		t.Fatalf("panicking job state %s", fin2.State)
	}
	// The runner survived the panic: a third job still executes.
	st3, err := m.Submit(context.Background(), "t", quickJob(&Payload{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if fin3 := waitTerminal(t, m, st3.ID); fin3.State != StateDone {
		t.Fatalf("runner did not survive panic: %s", fin3.State)
	}
}

func TestCancelWhileQueued(t *testing.T) {
	m, reg := newTestManager(t, Config{Concurrent: 1})
	release := make(chan struct{})
	blocker, started := blockingJob(release)
	if _, err := m.Submit(context.Background(), "t", blocker); err != nil {
		t.Fatal(err)
	}
	<-started

	victim, err := m.Submit(context.Background(), "t", quickJob(&Payload{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Cancel(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCanceled {
		t.Fatalf("queued cancel: want canceled now, got %s", st.State)
	}
	if _, _, err := m.Result(victim.ID); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result of canceled job: %v", err)
	}
	close(release)
	// The runner dequeues the tombstoned entry and must not resurrect it.
	time.Sleep(10 * time.Millisecond)
	if st, _ := m.Get(victim.ID); st.State != StateCanceled {
		t.Fatalf("canceled job resurrected to %s", st.State)
	}
	if got := reg.Snapshot().CounterValue(MetricJobsCanceled); got != 1 {
		t.Fatalf("canceled counter = %d", got)
	}
}

func TestCancelWhileRunning(t *testing.T) {
	m, _ := newTestManager(t, Config{Concurrent: 1})
	release := make(chan struct{})
	defer close(release)
	blocker, started := blockingJob(release)
	st, err := m.Submit(context.Background(), "t", blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	mid, err := m.Cancel(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.State != StateRunning {
		t.Fatalf("cancel of running job should report running until the body returns, got %s", mid.State)
	}
	fin := waitTerminal(t, m, st.ID)
	if fin.State != StateCanceled {
		t.Fatalf("want canceled, got %s (%s)", fin.State, fin.Error)
	}
	// Idempotent: canceling a terminal job is a no-op.
	again, err := m.Cancel(st.ID)
	if err != nil || again.State != StateCanceled {
		t.Fatalf("re-cancel: %v %s", err, again.State)
	}
}

func TestResultNotDone(t *testing.T) {
	m, _ := newTestManager(t, Config{Concurrent: 1})
	release := make(chan struct{})
	defer close(release)
	blocker, started := blockingJob(release)
	st, err := m.Submit(context.Background(), "t", blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, _, err := m.Result(st.ID); !errors.Is(err, ErrNotDone) {
		t.Fatalf("want ErrNotDone, got %v", err)
	}
}

func TestTTLSweepAndTombstones(t *testing.T) {
	clock := newFakeClock()
	m, reg := newTestManager(t, Config{Concurrent: 1, ResultTTL: time.Minute, SweepInterval: time.Hour, now: clock.Now})
	st, err := m.Submit(context.Background(), "t", quickJob(&Payload{Data: []byte("x")}, nil))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, m, st.ID)

	// Inside the TTL nothing is swept.
	clock.Advance(30 * time.Second)
	if n := m.Sweep(); n != 0 {
		t.Fatalf("premature sweep removed %d", n)
	}
	clock.Advance(31 * time.Second)
	if n := m.Sweep(); n != 1 {
		t.Fatalf("sweep removed %d, want 1", n)
	}
	if _, err := m.Get(st.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("swept job Get: %v", err)
	}
	if _, _, err := m.Result(st.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("swept job Result: %v", err)
	}
	if _, err := m.Cancel(st.ID); !errors.Is(err, ErrExpired) {
		t.Fatalf("swept job Cancel: %v", err)
	}
	if _, err := m.Get("00000000deadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job: %v", err)
	}
	if got := reg.Snapshot().CounterValue(MetricJobsExpired); got != 1 {
		t.Fatalf("expired counter = %d", got)
	}
}

func TestTombstoneRingBounded(t *testing.T) {
	m := &Manager{jobs: map[string]*job{}, tomb: map[string]struct{}{}}
	for i := 0; i < tombstoneCap+10; i++ {
		m.tombstoneLocked(fmt.Sprintf("job-%d", i))
	}
	if len(m.tomb) != tombstoneCap || len(m.tombRing) != tombstoneCap {
		t.Fatalf("tombstones unbounded: %d/%d", len(m.tomb), len(m.tombRing))
	}
	if _, ok := m.tomb["job-0"]; ok {
		t.Fatal("oldest tombstone not evicted")
	}
	if _, ok := m.tomb[fmt.Sprintf("job-%d", tombstoneCap+9)]; !ok {
		t.Fatal("newest tombstone missing")
	}
}

func TestQueueFullRejection(t *testing.T) {
	m, reg := newTestManager(t, Config{Concurrent: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	blocker, started := blockingJob(release)
	if _, err := m.Submit(context.Background(), "t", blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit(context.Background(), "t", quickJob(&Payload{}, nil)); err != nil {
		t.Fatalf("queue slot should admit: %v", err)
	}
	_, err := m.Submit(context.Background(), "t", quickJob(&Payload{}, nil))
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != ReasonQueueFull {
		t.Fatalf("want queue_full rejection, got %v", err)
	}
	if rej.RetryAfter < time.Second || rej.RetryAfter > time.Minute {
		t.Fatalf("Retry-After %s outside [1s, 60s]", rej.RetryAfter)
	}
	if got := reg.Snapshot().CounterValue(MetricJobsRejected); got != 1 {
		t.Fatalf("rejected counter = %d", got)
	}
}

func TestQuotaRateLimit(t *testing.T) {
	m, _ := newTestManager(t, Config{Concurrent: 2, Quota: Quota{RatePerSec: 0.5, Burst: 1}})
	if _, err := m.Submit(context.Background(), "slow", quickJob(&Payload{}, nil)); err != nil {
		t.Fatalf("burst submission rejected: %v", err)
	}
	_, err := m.Submit(context.Background(), "slow", quickJob(&Payload{}, nil))
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != ReasonRateLimited {
		t.Fatalf("want rate_limited, got %v", err)
	}
	if rej.RetryAfter <= 0 {
		t.Fatalf("rate_limited without a Retry-After estimate")
	}
	// Quotas are per tenant: another key is unaffected.
	if _, err := m.Submit(context.Background(), "other", quickJob(&Payload{}, nil)); err != nil {
		t.Fatalf("tenant isolation broken: %v", err)
	}
}

func TestQuotaActiveLimit(t *testing.T) {
	m, _ := newTestManager(t, Config{Concurrent: 1, Quota: Quota{MaxActive: 1}})
	release := make(chan struct{})
	blocker, started := blockingJob(release)
	st, err := m.Submit(context.Background(), "t", blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	_, err = m.Submit(context.Background(), "t", quickJob(&Payload{}, nil))
	var rej *RejectError
	if !errors.As(err, &rej) || rej.Reason != ReasonActiveLimit {
		t.Fatalf("want active_limit, got %v", err)
	}
	close(release)
	waitTerminal(t, m, st.ID)
	// The slot frees once the job is terminal.
	if _, err := m.Submit(context.Background(), "t", quickJob(&Payload{}, nil)); err != nil {
		t.Fatalf("active slot not released: %v", err)
	}
}

func TestDrainWaitsAndRefuses(t *testing.T) {
	m, _ := newTestManager(t, Config{Concurrent: 2})
	release := make(chan struct{})
	blocker, started := blockingJob(release)
	st, err := m.Submit(context.Background(), "t", blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	drained := make(chan error, 1)
	go func(ctx context.Context) { drained <- m.Drain(ctx) }(context.Background())
	// Drain must not return while the job runs.
	select {
	case err := <-drained:
		t.Fatalf("drain returned with a job in flight: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := m.Submit(context.Background(), "t", quickJob(&Payload{}, nil)); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining manager admitted a job: %v", err)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st, _ := m.Get(st.ID); st.State != StateDone {
		t.Fatalf("drained job state %s", st.State)
	}

	// A drain bounded by an already-dead context reports the deadline.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m2, _ := newTestManager(t, Config{Concurrent: 1})
	release2 := make(chan struct{})
	defer close(release2)
	blocker2, started2 := blockingJob(release2)
	if _, err := m2.Submit(context.Background(), "t", blocker2); err != nil {
		t.Fatal(err)
	}
	<-started2
	if err := m2.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("bounded drain: %v", err)
	}
}

func TestRetryAfterClamped(t *testing.T) {
	m, _ := newTestManager(t, Config{Concurrent: 1})
	if got := m.RetryAfter(); got < time.Second || got > 60*time.Second {
		t.Fatalf("RetryAfter %s outside [1s, 60s]", got)
	}
	// A huge EWMA is still clamped to the ceiling.
	m.observeDuration(10 * time.Minute)
	m.mu.Lock()
	m.queued = 500
	m.mu.Unlock()
	if got := m.RetryAfter(); got != 60*time.Second {
		t.Fatalf("RetryAfter %s, want the 60s ceiling", got)
	}
}

func TestProgressSinkCountsPoolJobSpans(t *testing.T) {
	var pr Progress
	if pr.WantsSteps() {
		t.Fatal("Progress must opt out of per-step events")
	}
	pr.SetTotal(3)
	// One pool job span, one unrelated span, one non-span event: only
	// the batch.job completion may tick the counter.
	spanEvent := func(name string) telemetry.Event {
		return telemetry.Event{Kind: telemetry.EventTraceSpan, Fields: []telemetry.Field{
			telemetry.F("trace_id", "0123456789abcdef"), telemetry.F("span_id", "fedcba9876543210"),
			telemetry.F("name", name),
		}}
	}
	pr.Emit(spanEvent(parallel.EventJob))
	pr.Emit(spanEvent(SpanJobRun))
	pr.Emit(telemetry.Event{Kind: "counter", Fields: []telemetry.Field{telemetry.F("name", parallel.EventJob)}})
	done, total := pr.Snapshot()
	if done != 1 || total != 3 {
		t.Fatalf("progress = %d/%d, want 1/3", done, total)
	}
}

// stateRank maps states onto the monotone order the lifecycle promises.
func stateRank(s State) int {
	switch s {
	case StateQueued:
		return 0
	case StateRunning:
		return 1
	default:
		return 2 // terminal
	}
}

// TestConcurrentStress races submit, cancel and sweep across many
// goroutines, then verifies no goroutine leaked and every observed
// status sequence was monotone.
func TestConcurrentStress(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		m, _ := newTestManager(t, Config{Concurrent: 4, QueueDepth: 64, ResultTTL: time.Millisecond})
		const workers = 16
		const perWorker = 25
		var regress atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(ctx context.Context, w int) {
				defer wg.Done()
				tenant := fmt.Sprintf("tenant-%d", w%4)
				for i := 0; i < perWorker; i++ {
					st, err := m.Submit(ctx, tenant, quickJob(&Payload{Data: []byte{byte(i)}}, nil))
					if err != nil {
						var rej *RejectError
						if errors.As(err, &rej) {
							continue // backpressure is a valid outcome under stress
						}
						t.Errorf("submit: %v", err)
						return
					}
					if i%3 == 0 {
						m.Cancel(st.ID) //nolint:errcheck // racing cancel may hit any state
					}
					if i%7 == 0 {
						m.Sweep()
					}
					// Observe the lifecycle: the rank must never decrease.
					last := -1
					for polls := 0; polls < 1000; polls++ {
						cur, err := m.Get(st.ID)
						if err != nil {
							break // swept; fine
						}
						r := stateRank(cur.State)
						if r < last {
							regress.Add(1)
							break
						}
						last = r
						if cur.State.Terminal() {
							break
						}
						time.Sleep(100 * time.Microsecond)
					}
				}
			}(context.Background(), w)
		}
		wg.Wait()
		if regress.Load() != 0 {
			t.Fatalf("%d non-monotone state transitions observed", regress.Load())
		}
		m.Close()
	}()

	// Settle loop: all manager goroutines must be gone after Close.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCloseCancelsOutstanding: Close with queued and running jobs
// cancels them rather than waiting forever.
func TestCloseCancelsOutstanding(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewManager(Config{Concurrent: 1, QueueDepth: 8, Recorder: telemetry.New(reg)})
	release := make(chan struct{})
	defer close(release)
	blocker, started := blockingJob(release)
	run, err := m.Submit(context.Background(), "t", blocker)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(context.Background(), "t", quickJob(&Payload{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if st, _ := m.Get(run.ID); st.State != StateCanceled {
		t.Fatalf("running job after Close: %s", st.State)
	}
	if st, _ := m.Get(queued.ID); st.State != StateCanceled {
		t.Fatalf("queued job after Close: %s", st.State)
	}
	m.Close() // idempotent
}

// capturingJob submits a job whose run closure holds the only reference
// to a heap object and returns the job ID plus a channel the object's
// finalizer closes once the collector frees it. Building the closure in
// this helper keeps it off the calling test's stack.
func capturingJob(t *testing.T, m *Manager, body func(ctx context.Context) (*Payload, error)) (string, <-chan struct{}) {
	t.Helper()
	freed := make(chan struct{})
	held := new([1 << 16]byte)
	runtime.SetFinalizer(held, func(*[1 << 16]byte) { close(freed) })
	st, err := m.Submit(context.Background(), "t", func(ctx context.Context, pr *Progress) (*Payload, error) {
		runtime.KeepAlive(held)
		return body(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	return st.ID, freed
}

// waitCollected runs the collector until freed closes, failing at a
// deadline rather than after a fixed sleep.
func waitCollected(t *testing.T, freed <-chan struct{}, what string) {
	t.Helper()
	deadline := time.NewTimer(5 * time.Second)
	defer deadline.Stop()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-deadline.C:
			t.Fatalf("%s: the run closure's captures are still reachable", what)
		case <-tick.C:
		}
	}
}

// TestFinishedJobReleasesRunClosure pins that a job's run closure, and
// so the test set a compress job captures, becomes collectable as soon
// as the job is done, failed or canceled — not when the TTL sweep
// deletes the record, which is still retained here.
func TestFinishedJobReleasesRunClosure(t *testing.T) {
	m, _ := newTestManager(t, Config{Concurrent: 1})
	bodies := map[string]func(ctx context.Context) (*Payload, error){
		"done":   func(context.Context) (*Payload, error) { return &Payload{Data: []byte("ok")}, nil },
		"failed": func(context.Context) (*Payload, error) { return nil, errors.New("boom") },
		"panicked": func(context.Context) (*Payload, error) {
			panic("kaboom")
		},
	}
	for name, body := range bodies {
		id, freed := capturingJob(t, m, body)
		waitTerminal(t, m, id)
		waitCollected(t, freed, name)
		if _, err := m.Get(id); err != nil {
			t.Fatalf("%s: job record should still be retained: %v", name, err)
		}
	}

	started := make(chan struct{})
	id, freed := capturingJob(t, m, func(ctx context.Context) (*Payload, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	if _, err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, m, id); st.State != StateCanceled {
		t.Fatalf("canceled while running: state %s", st.State)
	}
	waitCollected(t, freed, "canceled while running")
}

// TestCanceledQueuedJobReleasesRunClosure covers the job that never
// runs: canceled while it still sits in the admission queue behind a
// blocker, its closure must be collectable before a runner dequeues it.
func TestCanceledQueuedJobReleasesRunClosure(t *testing.T) {
	m, _ := newTestManager(t, Config{Concurrent: 1})
	release := make(chan struct{})
	defer close(release)
	blocker, started := blockingJob(release)
	if _, err := m.Submit(context.Background(), "t", blocker); err != nil {
		t.Fatal(err)
	}
	<-started
	id, freed := capturingJob(t, m, func(context.Context) (*Payload, error) {
		return &Payload{}, nil
	})
	if st, err := m.Cancel(id); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel queued: %v %v", st.State, err)
	}
	waitCollected(t, freed, "canceled while queued")
}

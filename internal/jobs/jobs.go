// Package jobs is the asynchronous job tier behind lzwtcd's
// /v1/jobs endpoints: a manager that runs compression work on the
// internal/parallel pool without holding an HTTP connection open for
// the duration.
//
// The manager owns the whole job lifecycle:
//
//   - Submit allocates an ID, charges the tenant's quota, and places
//     the job on a bounded admission queue — a full queue is a typed
//     RejectError carrying the Retry-After estimate, never an
//     unbounded buffer;
//   - a fixed set of runner goroutines drains the queue, moving each
//     job Queued → Running → one of Done / Failed / Canceled (the
//     state machine is monotone: a terminal state never changes);
//   - progress (frames done / frames total) is fed by the telemetry
//     layer: the job's Progress doubles as a telemetry.Sink counting
//     the pool's batch.job span completions, so the same events that
//     drive tracing drive the status endpoint;
//   - Cancel propagates as context cancellation into the job's
//     context, which the run function threads into parallel.Map, so
//     pool workers stop dispatching promptly;
//   - terminal jobs are retained for ResultTTL and then deleted by a
//     background sweeper; a recently swept ID answers lookups with
//     ErrExpired (a bounded tombstone ring), anything older with
//     ErrNotFound.
//
// Backpressure: RetryAfter estimates how long a rejected caller should
// wait, from the admission queue depth, the pool's own queue-depth
// gauge, and an exponentially weighted average of recent job
// durations. The server turns that estimate into a 429 Retry-After
// header.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lzwtc/internal/parallel"
	"lzwtc/internal/telemetry"
)

// State is one job's position in the lifecycle.
type State uint8

// Job states. Transitions are monotone: Queued may move to Running or
// Canceled; Running may move to Done, Failed or Canceled; Done, Failed
// and Canceled are terminal.
const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCanceled
)

// String names the state as it appears in status documents.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Payload is what a finished job hands back: the encoded result plus
// the summary numbers the status document exposes without forcing a
// result fetch.
type Payload struct {
	// Data is the job's result (a wire container for compress jobs).
	Data []byte
	// Patterns is the number of patterns the job processed.
	Patterns int
	// Ratio is the compression ratio achieved, 0 when not applicable.
	Ratio float64
}

// RunFunc is one job's body. It must honor ctx (cancellation arrives
// through it) and report frame progress through pr. The returned
// payload is retained until the TTL sweep.
type RunFunc func(ctx context.Context, pr *Progress) (*Payload, error)

// Status is a point-in-time snapshot of one job, safe to retain and
// serialize (the Payload it may reference is immutable once set).
type Status struct {
	ID     string
	Tenant string
	State  State
	// FramesDone / FramesTotal are the progress feed: pool sub-jobs
	// completed vs expected (1/1 for unsharded compressions).
	FramesDone  int
	FramesTotal int
	// Patterns and Ratio are populated once the job is Done.
	Patterns int
	Ratio    float64
	// Error is the terminal failure message, "" otherwise.
	Error string
	// ResultBytes is len(result) once Done.
	ResultBytes int
	Created     time.Time
	Started     time.Time // zero until Running
	Finished    time.Time // zero until terminal
	// Expires is when the TTL sweep may delete the job; zero until
	// terminal.
	Expires time.Time
}

// Typed lookup/admission errors.
var (
	// ErrNotFound is an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrExpired is a job deleted by the TTL sweep (still remembered in
	// the bounded tombstone ring).
	ErrExpired = errors.New("jobs: job expired")
	// ErrNotDone is a result fetch against a job that has not finished.
	ErrNotDone = errors.New("jobs: job not finished")
	// ErrDraining is a submission against a draining or closed manager.
	ErrDraining = errors.New("jobs: manager is draining")
)

// Reject reasons carried by RejectError.
const (
	ReasonQueueFull   = "queue_full"
	ReasonRateLimited = "rate_limited"
	ReasonActiveLimit = "active_limit"
)

// RejectError is a refused submission: the admission queue is full or
// the tenant is over quota. RetryAfter is the manager's estimate of
// when a retry could succeed.
type RejectError struct {
	Reason     string
	Tenant     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *RejectError) Error() string {
	return fmt.Sprintf("jobs: submission rejected (%s, tenant %q, retry after %s)",
		e.Reason, e.Tenant, e.RetryAfter)
}

// Config tunes a Manager. The zero value is usable.
type Config struct {
	// QueueDepth bounds jobs admitted but not yet running; <= 0 means
	// 256.
	QueueDepth int
	// Concurrent bounds jobs running at once; <= 0 means 2. Each job
	// may itself fan out over the parallel pool, so this stays small.
	Concurrent int
	// ResultTTL is how long a terminal job (and its result) is
	// retained; <= 0 means 5 minutes.
	ResultTTL time.Duration
	// SweepInterval is how often the background sweeper looks for
	// expired jobs; <= 0 means ResultTTL / 4, floored at one second.
	SweepInterval time.Duration
	// Quota is the per-tenant admission policy; the zero value admits
	// everything.
	Quota Quota
	// Recorder receives manager telemetry (job spans, counters,
	// gauges). nil runs uninstrumented.
	Recorder *telemetry.Recorder
	// now is the clock, injectable for tests; nil means time.Now.
	now func() time.Time
}

// Manager owns the asynchronous job tier. Create with NewManager and
// release with Close.
type Manager struct {
	cfg   Config
	rec   *telemetry.Recorder
	clock func() time.Time

	mu       sync.Mutex
	jobs     map[string]*job
	tomb     map[string]struct{} // recently swept IDs
	tombRing []string            // eviction order for tomb
	queued   int                 // jobs admitted, not yet picked up
	running  int

	tenants *tenantTable

	queue    chan *job
	draining atomic.Bool
	baseCtx  context.Context
	baseStop context.CancelFunc
	wg       sync.WaitGroup // runners + sweeper
	jobsWG   sync.WaitGroup // one unit per non-terminal job

	// ewmaDurBits holds math.Float64bits of the exponentially weighted
	// average job duration in seconds, the Retry-After estimator's
	// main input.
	ewmaDurBits atomic.Uint64

	m managerMetrics
}

// tombstoneCap bounds how many swept job IDs stay distinguishable from
// never-existed IDs.
const tombstoneCap = 1024

// NewManager builds and starts a Manager: runner goroutines and the
// TTL sweeper are live when it returns.
func NewManager(cfg Config) *Manager {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Concurrent <= 0 {
		cfg.Concurrent = 2
	}
	if cfg.ResultTTL <= 0 {
		cfg.ResultTTL = 5 * time.Minute
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.ResultTTL / 4
		if cfg.SweepInterval < time.Second {
			cfg.SweepInterval = time.Second
		}
	}
	clock := cfg.now
	if clock == nil {
		clock = time.Now
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:      cfg,
		rec:      cfg.Recorder,
		clock:    clock,
		jobs:     make(map[string]*job),
		tomb:     make(map[string]struct{}),
		tenants:  newTenantTable(cfg.Quota, clock),
		queue:    make(chan *job, cfg.QueueDepth),
		baseCtx:  ctx,
		baseStop: stop,
	}
	m.m.init(cfg.Recorder)
	for i := 0; i < cfg.Concurrent; i++ {
		m.wg.Add(1)
		go m.runner(ctx)
	}
	m.wg.Add(1)
	go m.sweeper(ctx)
	return m
}

// job is the manager's internal record. All mutable fields are guarded
// by Manager.mu except progress (atomics) and the fields set once
// before publication.
type job struct {
	id      string
	tenant  string
	run     RunFunc
	cancel  context.CancelFunc
	ctx     context.Context
	created time.Time

	state    State
	started  time.Time
	finished time.Time
	expires  time.Time
	payload  *Payload
	err      error

	progress Progress
}

// snapshotLocked copies the job into a Status. Caller holds mu.
func (j *job) snapshotLocked() Status {
	done, total := j.progress.Snapshot()
	st := Status{
		ID: j.id, Tenant: j.tenant, State: j.state,
		FramesDone: done, FramesTotal: total,
		Created: j.created, Started: j.started, Finished: j.finished,
		Expires: j.expires,
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if j.payload != nil {
		st.Patterns = j.payload.Patterns
		st.Ratio = j.payload.Ratio
		st.ResultBytes = len(j.payload.Data)
	}
	return st
}

// Submit admits one job for tenant, charging its quota. ctx supplies
// the trace span and request ID the job's spans join under — its
// cancellation does NOT propagate (the submitting HTTP request ends
// long before the job runs). The returned Status is the job's initial
// queued snapshot.
func (m *Manager) Submit(ctx context.Context, tenant string, run RunFunc) (Status, error) {
	if m.draining.Load() {
		return Status{}, ErrDraining
	}
	now := m.clock()
	if reason, wait, ok := m.tenants.admit(tenant, now); !ok {
		m.m.rejected.Inc()
		if reason == ReasonActiveLimit && wait <= 0 {
			wait = m.RetryAfter()
		}
		return Status{}, &RejectError{Reason: reason, Tenant: tenant, RetryAfter: clampRetry(wait)}
	}
	jctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	j := &job{
		id:      newJobID(),
		tenant:  tenant,
		run:     run,
		cancel:  cancel,
		ctx:     jctx,
		created: now,
		state:   StateQueued,
	}

	m.mu.Lock()
	m.jobs[j.id] = j
	m.queued++
	m.m.queueDepth.Set(float64(m.queued))
	// Snapshot before the enqueue: once j is on the queue a worker may
	// start (or even finish) it, and the caller is promised the queued
	// state.
	st := j.snapshotLocked()
	m.mu.Unlock()
	m.jobsWG.Add(1)

	// The admission queue has exactly QueueDepth slots; a full channel
	// is the backpressure signal, converted to a typed rejection, and
	// the bookkeeping above is rolled back.
	select {
	case m.queue <- j:
	default:
		m.mu.Lock()
		delete(m.jobs, j.id)
		m.queued--
		m.m.queueDepth.Set(float64(m.queued))
		m.mu.Unlock()
		m.jobsWG.Done()
		m.tenants.release(tenant)
		cancel()
		m.m.rejected.Inc()
		return Status{}, &RejectError{Reason: ReasonQueueFull, Tenant: tenant, RetryAfter: m.RetryAfter()}
	}
	m.m.submitted.Inc()
	return st, nil
}

// Get returns a snapshot of one job.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		if _, expired := m.tomb[id]; expired {
			return Status{}, ErrExpired
		}
		return Status{}, ErrNotFound
	}
	return j.snapshotLocked(), nil
}

// Result returns a finished job's payload. ErrNotDone covers every
// non-terminal state; a Failed or Canceled job returns its terminal
// Status and the error that ended it.
func (m *Manager) Result(id string) (*Payload, Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		if _, expired := m.tomb[id]; expired {
			return nil, Status{}, ErrExpired
		}
		return nil, Status{}, ErrNotFound
	}
	st := j.snapshotLocked()
	switch j.state {
	case StateDone:
		return j.payload, st, nil
	case StateFailed:
		return nil, st, j.err
	case StateCanceled:
		return nil, st, context.Canceled
	default:
		return nil, st, ErrNotDone
	}
}

// Cancel requests cancellation of one job. Queued jobs transition to
// Canceled immediately; Running jobs get their context canceled and
// transition when the run function returns. Canceling a terminal job
// is a no-op returning its current status.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		if _, expired := m.tomb[id]; expired {
			m.mu.Unlock()
			return Status{}, ErrExpired
		}
		m.mu.Unlock()
		return Status{}, ErrNotFound
	}
	var cancel context.CancelFunc
	switch j.state {
	case StateQueued:
		// The runner will see the terminal state when it dequeues the
		// job and skip it.
		m.finishLocked(j, StateCanceled, nil, context.Canceled)
		cancel = j.cancel
	case StateRunning:
		cancel = j.cancel
	default:
		// Terminal already; idempotent.
	}
	st := j.snapshotLocked()
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return st, nil
}

// List returns a snapshot of every retained job, newest first. It
// exists for introspection (stats documents, debugging); the slice is
// bounded by the admission queue plus the TTL window.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, j.snapshotLocked())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Created.After(out[b].Created) })
	return out
}

// Counts returns the current queued and running job counts.
func (m *Manager) Counts() (queued, running int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued, m.running
}

// RetryAfter estimates how long a rejected caller should wait before
// retrying: the work ahead of it (admission queue plus the pool's own
// queue-depth gauge) times the average job duration, divided across
// the runner slots. Clamped to [1s, 60s] so the header is always
// actionable.
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	depth := float64(m.queued + m.running)
	m.mu.Unlock()
	if reg := m.rec.Registry(); reg != nil {
		depth += reg.Snapshot().GaugeValue(parallel.MetricQueueDepth)
	}
	avg := math.Float64frombits(m.ewmaDurBits.Load())
	if avg <= 0 {
		avg = 0.1 // no history yet: assume fast jobs
	}
	est := time.Duration(depth * avg / float64(m.cfg.Concurrent) * float64(time.Second))
	return clampRetry(est)
}

// clampRetry bounds a Retry-After estimate to [1s, 60s].
func clampRetry(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	if d > 60*time.Second {
		return 60 * time.Second
	}
	return d
}

// observeDuration folds one finished job's wall clock into the EWMA
// (alpha 0.3: a few jobs dominate, history decays fast enough to track
// workload shifts).
func (m *Manager) observeDuration(d time.Duration) {
	const alpha = 0.3
	secs := d.Seconds()
	for {
		old := m.ewmaDurBits.Load()
		prev := math.Float64frombits(old)
		next := secs
		if prev > 0 {
			next = alpha*secs + (1-alpha)*prev
		}
		if m.ewmaDurBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// runner drains the admission queue until ctx is canceled.
func (m *Manager) runner(ctx context.Context) {
	defer m.wg.Done()
	for {
		select {
		case <-ctx.Done():
			return
		case j := <-m.queue:
			m.runOne(j)
		}
	}
}

// runOne executes one dequeued job through its state transitions.
func (m *Manager) runOne(j *job) {
	m.mu.Lock()
	m.queued--
	m.m.queueDepth.Set(float64(m.queued))
	if j.state != StateQueued {
		// Canceled while queued: bookkeeping only (finishLocked already
		// ran under Cancel).
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = m.clock()
	run := j.run
	m.running++
	m.m.running.Set(float64(m.running))
	m.mu.Unlock()

	rctx, sp := m.rec.StartSpan(j.ctx, SpanJobRun)
	payload, err := runContained(rctx, j.id, run, &j.progress)
	// A run that returned because the job was canceled reports the
	// cancellation, whatever error the pool surfaced it as.
	if err != nil && j.ctx.Err() != nil {
		err = context.Canceled
	}

	m.mu.Lock()
	m.running--
	m.m.running.Set(float64(m.running))
	switch {
	case err == nil:
		m.finishLocked(j, StateDone, payload, nil)
	case errors.Is(err, context.Canceled):
		m.finishLocked(j, StateCanceled, nil, context.Canceled)
	default:
		m.finishLocked(j, StateFailed, nil, err)
	}
	st := j.snapshotLocked()
	m.mu.Unlock()
	m.observeDuration(st.Finished.Sub(st.Created))
	m.m.duration.Observe(st.Finished.Sub(st.Created).Seconds())
	sp.End(telemetry.F("job_id", j.id), telemetry.F("state", st.State.String()),
		telemetry.F("frames", st.FramesDone))
}

// runContained invokes the job body with panic containment: a panic
// becomes the job's failure, never a dead runner goroutine.
func runContained(ctx context.Context, id string, run RunFunc, pr *Progress) (p *Payload, err error) {
	defer func() {
		if v := recover(); v != nil {
			p, err = nil, fmt.Errorf("jobs: job %s panicked: %v", id, v)
		}
	}()
	return run(ctx, pr)
}

// finishLocked moves a job into a terminal state exactly once. Caller
// holds mu. Monotonicity is enforced here: a job already terminal is
// left untouched. The run closure is dropped here, so its captures (a
// compress job's parsed test set) become collectable when the job ends
// rather than when the TTL sweep deletes the record — even while a
// canceled job still sits in the admission queue.
func (m *Manager) finishLocked(j *job, s State, payload *Payload, err error) {
	if j.state.Terminal() {
		return
	}
	j.run = nil
	j.state = s
	j.finished = m.clock()
	j.expires = j.finished.Add(m.cfg.ResultTTL)
	j.payload = payload
	j.err = err
	m.tenants.release(j.tenant)
	m.jobsWG.Done()
	switch s {
	case StateDone:
		m.m.completed.Inc()
	case StateFailed:
		m.m.failed.Inc()
	case StateCanceled:
		m.m.canceled.Inc()
	}
	m.m.retained.Set(float64(len(m.jobs)))
}

// sweeper deletes expired terminal jobs on a fixed cadence.
func (m *Manager) sweeper(ctx context.Context) {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.Sweep()
		}
	}
}

// Sweep deletes every terminal job whose TTL has passed, remembering
// the IDs in the tombstone ring, and returns how many it removed. The
// background sweeper calls this on its interval; tests call it
// directly.
func (m *Manager) Sweep() int {
	now := m.clock()
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for id, j := range m.jobs {
		if j.state.Terminal() && !j.expires.After(now) {
			delete(m.jobs, id)
			m.tombstoneLocked(id)
			n++
		}
	}
	if n > 0 {
		m.m.expired.Add(int64(n))
		m.m.retained.Set(float64(len(m.jobs)))
	}
	return n
}

// tombstoneLocked remembers a swept ID, evicting the oldest entry past
// the cap. Caller holds mu.
func (m *Manager) tombstoneLocked(id string) {
	if len(m.tombRing) >= tombstoneCap {
		oldest := m.tombRing[0]
		m.tombRing = m.tombRing[1:]
		delete(m.tomb, oldest)
	}
	m.tomb[id] = struct{}{}
	m.tombRing = append(m.tombRing, id)
}

// Drain stops admitting jobs and waits until every admitted job has
// reached a terminal state, or ctx expires. Running jobs are allowed
// to finish — drain is graceful, not a cancellation.
func (m *Manager) Drain(ctx context.Context) error {
	m.draining.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.jobsWG.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain: %w", ctx.Err())
	}
}

// Close cancels every remaining job and stops the runner and sweeper
// goroutines. It is idempotent and safe after Drain.
func (m *Manager) Close() {
	m.draining.Store(true)
	m.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(m.jobs))
	for _, j := range m.jobs {
		if !j.state.Terminal() {
			// Queued jobs the runners will never reach transition here;
			// running jobs transition in runOne once their body returns.
			if j.state == StateQueued {
				m.finishLocked(j, StateCanceled, nil, context.Canceled)
			}
			cancels = append(cancels, j.cancel)
		}
	}
	m.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	m.jobsWG.Wait()
	m.baseStop()
	m.wg.Wait()
}

// newJobID allocates a 16-hex-digit job identifier (the request-ID
// generator: random, collision-improbable, grammar-safe for URLs and
// headers).
func newJobID() string { return telemetry.NewRequestID() }

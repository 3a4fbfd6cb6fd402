package parallel

import (
	"context"
	"sync/atomic"

	"lzwtc/internal/telemetry"
)

// EventJob is the per-job record the pool emits: one per completed job,
// carrying the job index, outcome and duration (as a batch.job span).
const EventJob = "batch.job"

// Registry metric names for the batch engine. Queue depth and in-flight
// are gauges sampled at dispatch/completion; the rest aggregate across
// runs. The shard ratio histogram (shard.go) records each shard's
// compression ratio so the cost of shard-boundary dictionary resets is
// visible as a distribution, not just an aggregate.
const (
	MetricQueueDepth = "lzwtc_batch_queue_depth"
	metricInFlight   = "lzwtc_batch_jobs_inflight"
	metricJobs       = "lzwtc_batch_jobs_total"
	metricJobErrors  = "lzwtc_batch_job_errors_total"
	metricJobPanics  = "lzwtc_batch_job_panics_total"
	metricShards     = "lzwtc_batch_shards_total"
	metricShardRatio = "lzwtc_batch_shard_ratio"
)

// shardRatioBuckets returns the histogram bounds for per-shard
// compression ratios: the paper's Table 3 spans 23–89%, and sharding
// can push small shards negative (expansion), hence the low tail.
func shardRatioBuckets() []float64 {
	return []float64{-0.5, -0.25, 0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
}

// poolMetrics holds one run's instruments, resolved once so workers
// never touch the registry by name. All fields are nil-safe; a nil
// recorder costs one pointer check per job.
type poolMetrics struct {
	rec      *telemetry.Recorder
	queue    *telemetry.Gauge
	inflight *telemetry.Gauge
	jobs     *telemetry.Counter
	errs     *telemetry.Counter
	panics   *telemetry.Counter

	queued    atomic.Int64
	inflightN atomic.Int64
}

func newPoolMetrics(rec *telemetry.Recorder, queued int) *poolMetrics {
	m := &poolMetrics{rec: rec}
	m.queued.Store(int64(queued))
	if reg := rec.Registry(); reg != nil {
		m.queue = reg.Gauge(MetricQueueDepth, "batch jobs waiting for a worker")
		m.inflight = reg.Gauge(metricInFlight, "batch jobs currently executing")
		m.jobs = reg.Counter(metricJobs, "batch jobs completed")
		m.errs = reg.Counter(metricJobErrors, "batch jobs that returned an error")
		m.panics = reg.Counter(metricJobPanics, "batch jobs recovered from a panic")
		m.queue.Set(float64(queued))
		m.inflight.Set(0)
	}
	return m
}

// dispatched records one job leaving the queue for a worker.
func (m *poolMetrics) dispatched() {
	m.queue.Set(float64(m.queued.Add(-1)))
}

// jobStart records a worker picking the job up and opens its trace
// span as a child of the request span carried by ctx (when tracing is
// on); the returned context threads the job's span identity into the
// job body so core phases nest beneath it.
func (m *poolMetrics) jobStart(ctx context.Context) (context.Context, *telemetry.TraceSpan) {
	m.inflight.Set(float64(m.inflightN.Add(1)))
	return m.rec.StartSpan(ctx, EventJob)
}

// jobEnd records the job's completion, classifying the error.
func (m *poolMetrics) jobEnd(sp *telemetry.TraceSpan, index int, err error) {
	m.inflight.Set(float64(m.inflightN.Add(-1)))
	m.jobs.Inc()
	status := "ok"
	if err != nil {
		m.errs.Inc()
		status = "error"
		if _, isPanic := err.(*PanicError); isPanic {
			m.panics.Inc()
			status = "panic"
		}
	}
	sp.End(telemetry.F("job", index), telemetry.F("status", status))
}

// Async job tier tests: the differential async-vs-sync layer (every
// conformance case must come back byte-identical through the job API),
// the job lifecycle e2e matrix (cancel, TTL expiry, quotas, tenant
// isolation, drain), and the metric/span surface of the new endpoints.
package server_test

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lzwtc"
	"lzwtc/client"
	"lzwtc/internal/jobs"
	"lzwtc/internal/server"
	"lzwtc/internal/telemetry"
)

// waitJobFast polls with a tight interval to keep the suite quick.
func waitJobFast(t *testing.T, c *client.Client, id string) *client.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.WaitJob(ctx, id, 2*time.Millisecond)
	if err != nil {
		t.Fatalf("waiting for job %s: %v", id, err)
	}
	return st
}

// compressAsync runs submit-wait-fetch with the fast poll.
func compressAsync(t *testing.T, c *client.Client, ts *lzwtc.TestSet, cfg lzwtc.Config, shard int) []byte {
	t.Helper()
	ctx := context.Background()
	st, err := c.SubmitCompressJob(ctx, ts, cfg, client.CompressOptions{ShardPatterns: shard})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitJobFast(t, c, st.ID)
	data, err := c.JobResult(ctx, st.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	return data
}

// bigSet builds a deterministic wide set whose sharded compression is
// slow enough (shard=1, Workers:1) to observe running jobs.
func bigSet(t *testing.T, patterns, width int) *lzwtc.TestSet {
	t.Helper()
	ts := lzwtc.NewTestSet(width)
	seed := uint64(12345)
	line := make([]byte, width)
	for p := 0; p < patterns; p++ {
		for i := range line {
			seed = seed*6364136223846793005 + 1442695040888963407
			switch (seed >> 33) % 3 {
			case 0:
				line[i] = '0'
			case 1:
				line[i] = '1'
			default:
				line[i] = 'X'
			}
		}
		if err := ts.Add(lzwtc.MustPattern(string(line))); err != nil {
			t.Fatal(err)
		}
	}
	return ts
}

// TestJobsDifferentialCorpus: every conformance case through the job
// API must be byte-identical to the synchronous endpoint AND to the
// in-process pipeline. This is the async tier's correctness anchor.
func TestJobsDifferentialCorpus(t *testing.T) {
	c, _ := startService(t, server.Config{JobConcurrent: 4})
	ctx := context.Background()
	for name, cfg := range corpusCases() {
		t.Run(name, func(t *testing.T) {
			ts := readCorpusSet(t, name)

			var local bytes.Buffer
			res, err := lzwtc.Compress(ts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := res.WriteWire(&local); err != nil {
				t.Fatal(err)
			}
			sync, err := c.Compress(ctx, ts, cfg, client.CompressOptions{})
			if err != nil {
				t.Fatal(err)
			}
			async := compressAsync(t, c, ts, cfg, 0)

			if !bytes.Equal(sync, local.Bytes()) {
				t.Fatalf("sync container diverges from in-process (%d vs %d bytes)", len(sync), local.Len())
			}
			if !bytes.Equal(async, sync) {
				t.Fatalf("async container diverges from sync (%d vs %d bytes)", len(async), len(sync))
			}
		})
	}
}

// TestJobsDifferentialSharded covers the sharded path through the job
// tier: async == sync for multi-frame containers too.
func TestJobsDifferentialSharded(t *testing.T) {
	c, _ := startService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc4-freeze")
	cfg := corpusCases()["cc4-freeze"]
	for _, shard := range []int{1, 3, 1000} {
		sync, err := c.Compress(ctx, ts, cfg, client.CompressOptions{ShardPatterns: shard})
		if err != nil {
			t.Fatal(err)
		}
		async := compressAsync(t, c, ts, cfg, shard)
		if !bytes.Equal(async, sync) {
			t.Fatalf("shard=%d: async %d bytes != sync %d bytes", shard, len(async), len(sync))
		}
	}
}

// TestJobLifecycleHappyPath pins the status documents along the
// queued -> running -> done walk and the result headers.
func TestJobLifecycleHappyPath(t *testing.T) {
	c, srv := startService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc4-reset")
	cfg := corpusCases()["cc4-reset"]

	st, err := c.SubmitCompressJob(ctx, ts, cfg, client.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.CreatedUnixUS == 0 {
		t.Fatalf("bad initial status: %+v", st)
	}
	fin := waitJobFast(t, c, st.ID)
	if fin.State != "done" || fin.FramesDone != 1 || fin.FramesTotal != 1 {
		t.Fatalf("final status: %+v", fin)
	}
	if fin.Patterns != len(ts.Cubes) || fin.ResultBytes <= 0 || fin.Ratio <= 0 {
		t.Fatalf("summary fields: %+v", fin)
	}
	if fin.StartedUnixUS == 0 || fin.FinishedUnixUS == 0 || fin.ExpiresUnixUS == 0 {
		t.Fatalf("timestamps: %+v", fin)
	}

	data, err := c.JobResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	round, err := c.Decompress(ctx, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := lzwtc.Verify(ts, round); err != nil {
		t.Fatalf("async round trip: %v", err)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs.Submitted < 1 || stats.Jobs.Completed < 1 {
		t.Fatalf("stats jobs section not fed: %+v", stats.Jobs)
	}
	if q, r := srv.Jobs().Counts(); q != 0 || r != 0 {
		t.Fatalf("manager not idle after job: queued=%d running=%d", q, r)
	}
}

// occupyRunner parks a blocking job in the manager's (single) runner
// slot under the anonymous tenant, so HTTP-submitted keyless jobs
// queue behind it deterministically. The returned stop func releases
// it; callers must stop before asserting the service is idle.
func occupyRunner(t *testing.T, srv *server.Server) (id string, stop func()) {
	t.Helper()
	started := make(chan struct{})
	release := make(chan struct{})
	st, err := srv.Jobs().Submit(context.Background(), "anonymous",
		func(ctx context.Context, pr *jobs.Progress) (*jobs.Payload, error) {
			close(started)
			select {
			case <-release:
				return &jobs.Payload{Data: []byte{0}, Patterns: 1, Ratio: 1}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		})
	if err != nil {
		t.Fatalf("occupying runner: %v", err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("blocking job never started")
	}
	var once sync.Once
	return st.ID, func() { once.Do(func() { close(release) }) }
}

// TestJobCancelWhileQueued: with the runner slot occupied, a second
// job cancels straight out of the queue and never runs.
func TestJobCancelWhileQueued(t *testing.T) {
	c, srv := startService(t, server.Config{JobConcurrent: 1})
	ctx := context.Background()
	_, stop := occupyRunner(t, srv)
	defer stop()

	victim, err := c.SubmitCompressJob(ctx, readCorpusSet(t, "cc2-freeze"), corpusCases()["cc2-freeze"], client.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if victim.State != "queued" {
		t.Fatalf("victim should be queued behind the blocker, got %s", victim.State)
	}
	st, err := c.CancelJob(ctx, victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "canceled" {
		t.Fatalf("queued cancel: want canceled, got %s", st.State)
	}
	if st.StartedUnixUS != 0 {
		t.Fatalf("canceled-from-queue job claims to have started: %+v", st)
	}
	if _, err := c.JobResult(ctx, victim.ID); !isAPICode(err, server.CodeJobCanceled) {
		t.Fatalf("result of canceled job: %v", err)
	}
	stop()
}

// TestJobCancelWhileRunning: DELETE on a running job cancels its
// context; the job lands in canceled, and its result answers the
// typed job_canceled conflict.
func TestJobCancelWhileRunning(t *testing.T) {
	c, srv := startService(t, server.Config{JobConcurrent: 1})
	ctx := context.Background()
	id, stop := occupyRunner(t, srv)
	defer stop()

	if _, err := c.CancelJob(ctx, id); err != nil {
		t.Fatal(err)
	}
	fin := waitCanceled(t, c, id)
	if fin.StartedUnixUS == 0 {
		t.Fatalf("running job lost its start time: %+v", fin)
	}
	if _, err := c.JobResult(ctx, id); !isAPICode(err, server.CodeJobCanceled) {
		t.Fatalf("result of canceled job: %v", err)
	}
}

// TestJobCancelShardedCompression: a real sharded compression is
// canceled mid-run — the pool's between-shard context checks abort it
// before all frames complete. The input is sized so the job takes long
// enough to observe running; if the host races through it anyway the
// test skips rather than flakes.
func TestJobCancelShardedCompression(t *testing.T) {
	c, _ := startService(t, server.Config{Workers: 1, JobConcurrent: 1})
	ctx := context.Background()
	big := bigSet(t, 4000, 512)

	st, err := c.SubmitCompressJob(ctx, big, lzwtc.DefaultConfig(), client.CompressOptions{ShardPatterns: 1})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		cur, err := c.JobStatus(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if cur.State == "running" {
			break
		}
		if cur.State != "queued" {
			t.Skipf("job finished before cancel could land (%s)", cur.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
	}
	if _, err := c.CancelJob(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	fin, err := c.WaitJob(cctx, st.ID, 2*time.Millisecond)
	if errors.Is(err, client.ErrJobCanceled) {
		if fin.FramesDone >= fin.FramesTotal {
			t.Fatalf("canceled job claims full progress: %d/%d", fin.FramesDone, fin.FramesTotal)
		}
		return
	}
	// The job can legitimately have won the race and completed.
	if err != nil {
		t.Fatalf("wait after cancel: %v", err)
	}
	t.Skip("job completed before the cancel took effect")
}

// waitCanceled waits for the terminal state and asserts it is canceled.
func waitCanceled(t *testing.T, c *client.Client, id string) *client.JobStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := c.WaitJob(ctx, id, 2*time.Millisecond)
	if !errors.Is(err, client.ErrJobCanceled) {
		t.Fatalf("want ErrJobCanceled, got %v (state %+v)", err, st)
	}
	return st
}

// TestJobResultAfterTTL: a swept job answers 404 with the typed
// job_expired code — distinguishable from a never-existed ID.
func TestJobResultAfterTTL(t *testing.T) {
	c, _ := startService(t, server.Config{
		JobResultTTL:     20 * time.Millisecond,
		JobSweepInterval: 5 * time.Millisecond,
	})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc2-freeze")
	cfg := corpusCases()["cc2-freeze"]

	st, err := c.SubmitCompressJob(ctx, ts, cfg, client.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitJobFast(t, c, st.ID)

	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err = c.JobStatus(ctx, st.ID)
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !isAPICode(err, server.CodeJobExpired) {
		t.Fatalf("expired status: want %s, got %v", server.CodeJobExpired, err)
	}
	if _, err := c.JobResult(ctx, st.ID); !isAPICode(err, server.CodeJobExpired) {
		t.Fatalf("expired result: %v", err)
	}
	if _, err := c.JobStatus(ctx, "00000000deadbeef"); !isAPICode(err, server.CodeJobNotFound) {
		t.Fatalf("unknown id: %v", err)
	}
}

// isAPICode matches an error against a typed API error code.
func isAPICode(err error, code string) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Code == code
}

// TestJobQuotaExhaustion: an undersized per-tenant quota answers 429
// with a Retry-After the client echoes into its backoff.
func TestJobQuotaExhaustion(t *testing.T) {
	_, srv := startService(t, server.Config{
		JobQuota: jobs.Quota{RatePerSec: 0.01, Burst: 1},
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	ctx := context.Background()
	ts := readCorpusSet(t, "cc2-freeze")
	cfg := corpusCases()["cc2-freeze"]

	// No retries: the second submission surfaces the raw 429.
	c0 := client.New(hs.URL, client.Options{Retries: 0, APIKey: "tenant-a"})
	if _, err := c0.SubmitCompressJob(ctx, ts, cfg, client.CompressOptions{}); err != nil {
		t.Fatalf("burst submission: %v", err)
	}
	_, err := c0.SubmitCompressJob(ctx, ts, cfg, client.CompressOptions{})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests || ae.Code != server.CodeRateLimited {
		t.Fatalf("want 429 %s, got %v", server.CodeRateLimited, err)
	}
	if ae.RetryAfter < time.Second {
		t.Fatalf("429 without a usable Retry-After: %v", ae.RetryAfter)
	}

	// Another tenant is unaffected.
	cb := client.New(hs.URL, client.Options{Retries: 0, APIKey: "tenant-b"})
	if _, err := cb.SubmitCompressJob(ctx, ts, cfg, client.CompressOptions{}); err != nil {
		t.Fatalf("tenant isolation: %v", err)
	}

	// With retries, the 429 feeds the backoff loop: the client reports
	// the throttle as a client.EventBackpressure record and honors a
	// capped wait.
	var seen []time.Duration
	rec := telemetry.New(nil, telemetry.SinkFunc(func(ev telemetry.Event) {
		if ev.Kind == client.EventBackpressure {
			us, _ := ev.Field("wait_us")
			seen = append(seen, time.Duration(us.(int64))*time.Microsecond)
		}
	}))
	cr := client.New(hs.URL, client.Options{
		Retries: 1, APIKey: "tenant-a", MaxBackoff: 10 * time.Millisecond,
		Recorder: rec,
	})
	_, err = cr.SubmitCompressJob(ctx, ts, cfg, client.CompressOptions{})
	if err == nil {
		t.Fatal("quota should still be exhausted")
	}
	if len(seen) == 0 {
		t.Fatal("the client never reported the 429 as a backpressure event")
	}
	for _, d := range seen {
		if d <= 0 || d > 10*time.Millisecond {
			t.Fatalf("backoff %v escaped the MaxBackoff cap", d)
		}
	}
}

// TestJobTenantIsolation: job IDs do not resolve across API keys.
func TestJobTenantIsolation(t *testing.T) {
	_, srv := startService(t, server.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	ctx := context.Background()
	ts := readCorpusSet(t, "cc2-freeze")
	cfg := corpusCases()["cc2-freeze"]

	ca := client.New(hs.URL, client.Options{APIKey: "alpha"})
	cb := client.New(hs.URL, client.Options{APIKey: "beta"})
	st, err := ca.SubmitCompressJob(ctx, ts, cfg, client.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cb.JobStatus(ctx, st.ID); !isAPICode(err, server.CodeJobNotFound) {
		t.Fatalf("cross-tenant status: %v", err)
	}
	if _, err := cb.JobResult(ctx, st.ID); !isAPICode(err, server.CodeJobNotFound) {
		t.Fatalf("cross-tenant result: %v", err)
	}
	if _, err := cb.CancelJob(ctx, st.ID); !isAPICode(err, server.CodeJobNotFound) {
		t.Fatalf("cross-tenant cancel: %v", err)
	}
	// The owner still sees it.
	if _, err := ca.JobStatus(ctx, st.ID); err != nil {
		t.Fatalf("owner lost its job: %v", err)
	}
}

// TestJobEndpointErrors pins the envelope for malformed job requests.
func TestJobEndpointErrors(t *testing.T) {
	_, srv := startService(t, server.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	get := func(path string) int {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(server.PathJobs + "no/such/shape"); got != http.StatusBadRequest {
		t.Fatalf("malformed id: want 400, got %d", got)
	}
	if got := get(server.PathJobsCompress); got != http.StatusMethodNotAllowed {
		t.Fatalf("GET submit: want 405, got %d", got)
	}
	req, err := http.NewRequest(http.MethodPut, hs.URL+server.PathJobs+"0011223344556677", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT job: want 405, got %d", resp.StatusCode)
	}
}

// TestJobSubmitReturns202WithLocation pins the raw submission shape.
func TestJobSubmitReturns202WithLocation(t *testing.T) {
	_, srv := startService(t, server.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	ts := readCorpusSet(t, "cc2-freeze")
	var cubes bytes.Buffer
	if err := ts.WriteCubes(&cubes); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+server.PathJobsCompress+"?"+
		server.EncodeCompressQuery(corpusCases()["cc2-freeze"], 0).Encode(),
		"text/plain", &cubes)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("want 202, got %d", resp.StatusCode)
	}
	loc := resp.Header.Get("Location")
	if !strings.HasPrefix(loc, server.PathJobs) || len(loc) == len(server.PathJobs) {
		t.Fatalf("Location %q does not point at a job", loc)
	}
}

// TestJobTraceJoin: the submit span and the job's run span land in the
// same trace, so async work stays joinable to the admitting request.
func TestJobTraceJoin(t *testing.T) {
	c, _, srv, _ := startTracedService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc2-freeze")
	cfg := corpusCases()["cc2-freeze"]

	st, err := c.SubmitCompressJob(ctx, ts, cfg, client.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitJobFast(t, c, st.ID)

	var submit, run *telemetry.SpanRecord
	deadline := time.Now().Add(5 * time.Second)
	for submit == nil || run == nil {
		if time.Now().After(deadline) {
			t.Fatalf("spans missing: submit=%v run=%v", submit != nil, run != nil)
		}
		for _, tr := range srv.Traces().Recent(100) {
			for i := range tr.Spans {
				sp := tr.Spans[i]
				switch sp.Name {
				case server.SpanJobSubmit:
					submit = &sp
				case jobs.SpanJobRun:
					run = &sp
				}
			}
		}
	}
	if submit.TraceID != run.TraceID {
		t.Fatalf("job.run trace %s detached from submit trace %s", run.TraceID, submit.TraceID)
	}
	if run.ParentID != submit.SpanID {
		t.Fatalf("job.run parent %s is not the submit span %s", run.ParentID, submit.SpanID)
	}
}

// TestJobMetricsExposed asserts the job tier's /metrics surface: the
// per-endpoint counters and the manager family all appear.
func TestJobMetricsExposed(t *testing.T) {
	c, _ := startService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc2-freeze")
	cfg := corpusCases()["cc2-freeze"]
	st, err := c.SubmitCompressJob(ctx, ts, cfg, client.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitJobFast(t, c, st.ID)
	if _, err := c.JobResult(ctx, st.ID); err != nil {
		t.Fatal(err)
	}

	text, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		server.MetricJobSubmitRequests,
		server.MetricJobRequests,
		jobs.MetricJobsSubmitted,
		jobs.MetricJobsCompleted,
		jobs.MetricJobsQueueDepth,
		jobs.MetricJobsRunning,
		jobs.MetricJobsRetained,
		jobs.MetricJobDuration,
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("metric %s missing from /metrics", name)
		}
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests["job_submit"] < 1 || stats.Requests["job"] < 2 {
		t.Fatalf("per-endpoint job counters not folded into stats: %+v", stats.Requests)
	}
}

// TestJobDrainWithJobsInFlight: Serve's graceful drain waits for
// admitted jobs, and the drained service refuses new submissions.
func TestJobDrainWithJobsInFlight(t *testing.T) {
	srv := server.New(server.Config{JobConcurrent: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln, 30*time.Second) }()

	base := "http://" + ln.Addr().String()
	c := client.New(base, client.Options{Retries: 0})
	_, stopBlocker := occupyRunner(t, srv)
	defer stopBlocker()
	st, err := c.SubmitCompressJob(context.Background(), readCorpusSet(t, "cc2-freeze"),
		corpusCases()["cc2-freeze"], client.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}

	cancel() // drain starts with one job running and one queued
	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned with jobs in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	stopBlocker()
	err = <-serveDone
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The drained manager retained the finished job: it completed, was
	// not canceled, and new work is refused (the manager is closed).
	fin, err := srv.Jobs().Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != jobs.StateDone {
		t.Fatalf("in-flight job after drain: %s (%s)", fin.State, fin.Error)
	}
	if _, err := srv.Jobs().Submit(context.Background(), "t", nil); !errors.Is(err, jobs.ErrDraining) {
		t.Fatalf("drained manager admitted work: %v", err)
	}
}

// TestJobSubmitValidatesEagerly: malformed queries and bodies fail at
// submit time with a 400, never as a queued job the caller must poll.
func TestJobSubmitValidatesEagerly(t *testing.T) {
	_, srv := startService(t, server.Config{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)

	resp, err := http.Post(hs.URL+server.PathJobsCompress+"?char=99", "text/plain",
		strings.NewReader("0X\n1X\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad config: want 400, got %d", resp.StatusCode)
	}
	resp, err = http.Post(hs.URL+server.PathJobsCompress, "text/plain",
		strings.NewReader("01X\nnot-a-pattern\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: want 400, got %d", resp.StatusCode)
	}
	if sub, _ := fetchJobsStats(t, hs.URL); sub != 0 {
		t.Fatalf("invalid submissions were admitted: %d", sub)
	}
}

// fetchJobsStats reads (submitted, completed) from /v1/stats.
func fetchJobsStats(t *testing.T, base string) (int64, int64) {
	t.Helper()
	c := client.New(base, client.Options{Retries: 0})
	stats, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return stats.Jobs.Submitted, stats.Jobs.Completed
}

// TestJobQueueBackpressure: a one-deep queue answers queue_full with
// Retry-After once the runner and the queue slot are both taken.
func TestJobQueueBackpressure(t *testing.T) {
	_, srv := startService(t, server.Config{JobConcurrent: 1, JobQueueDepth: 1})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	ctx := context.Background()
	c := client.New(hs.URL, client.Options{Retries: 0})
	small := readCorpusSet(t, "cc2-freeze")
	smallCfg := corpusCases()["cc2-freeze"]

	_, stop := occupyRunner(t, srv)
	defer stop()

	// The runner is pinned, so this submission fills the single queue
	// slot and the next one must overflow.
	queued, err := c.SubmitCompressJob(ctx, small, smallCfg, client.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SubmitCompressJob(ctx, small, smallCfg, client.CompressOptions{})
	var rejected *client.APIError
	if !errors.As(err, &rejected) {
		t.Fatalf("overflow submit: %v", err)
	}
	if rejected.Status != http.StatusTooManyRequests || rejected.Code != server.CodeQueueFull {
		t.Fatalf("want 429 %s, got %d %s", server.CodeQueueFull, rejected.Status, rejected.Code)
	}
	if rejected.RetryAfter < time.Second {
		t.Fatalf("queue_full without Retry-After: %v", rejected.RetryAfter)
	}

	// Releasing the blocker drains the queue: the held submission runs
	// to completion and a fresh one is admitted again.
	stop()
	waitJobFast(t, c, queued.ID)
	if _, err := c.SubmitCompressJob(ctx, small, smallCfg, client.CompressOptions{}); err != nil {
		t.Fatalf("post-backpressure submit: %v", err)
	}
}

package client_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lzwtc/client"
	"lzwtc/internal/telemetry"
)

// errJSON is the service's structured error envelope, written by hand so
// these tests exercise the client's decoding path.
func errJSON(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write([]byte(`{"error":{"code":"` + code + `","message":"` + msg + `"}}`))
}

// TestRetryRecoversFromTransientFailure pins the happy retry path: one
// 503 followed by a 200 succeeds without surfacing the transient error.
func TestRetryRecoversFromTransientFailure(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			errJSON(w, http.StatusServiceUnavailable, "draining", "try again")
			return
		}
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()

	c := client.New(srv.URL, client.Options{Retries: 2, Backoff: time.Millisecond})
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health after one 503: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (initial + one retry)", got)
	}
}

// TestBackoffHonorsContextCancel cancels the context while the client
// is sleeping between attempts: the backoff select must return the
// context error promptly instead of finishing the sleep.
func TestBackoffHonorsContextCancel(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		errJSON(w, http.StatusServiceUnavailable, "draining", "try again")
	}))
	defer srv.Close()

	// The first retry would sleep 30s; the cancel fires 20ms in.
	c := client.New(srv.URL, client.Options{Retries: 3, Backoff: 30 * time.Second, MaxBackoff: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	err := c.Health(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Health under canceled context: err = %v, want context.Canceled", err)
	}
	if elapsed >= 5*time.Second {
		t.Fatalf("cancel mid-backoff took %v; the sleep was not interrupted", elapsed)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1 (cancel must preempt the retry)", got)
	}
}

// TestNonRetryableStatusStopsRetrying flips the failure class mid-flight:
// a retryable 503 followed by a 404 must surface the 404 immediately —
// application errors are never retried, even with budget left.
func TestNonRetryableStatusStopsRetrying(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			errJSON(w, http.StatusServiceUnavailable, "draining", "try again")
			return
		}
		errJSON(w, http.StatusNotFound, "not_found", "no such resource")
	}))
	defer srv.Close()

	c := client.New(srv.URL, client.Options{Retries: 5, Backoff: time.Millisecond})
	err := c.Health(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("Health: err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Code != "not_found" {
		t.Fatalf("APIError = %+v, want status 404 code not_found", apiErr)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2 (404 must stop the retry loop)", got)
	}
}

// TestRetriesExhaustedWrapsLastError keeps failing retryably until the
// budget runs out: the final error must carry the last attempt's cause.
func TestRetriesExhaustedWrapsLastError(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		errJSON(w, http.StatusBadGateway, "upstream", "bad gateway")
	}))
	defer srv.Close()

	c := client.New(srv.URL, client.Options{Retries: 2, Backoff: time.Millisecond})
	err := c.Health(context.Background())
	if err == nil {
		t.Fatal("Health against an always-502 server succeeded")
	}
	// The terminal attempt's 502 surfaces directly as the API error.
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("err = %v, want *APIError with status 502", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (initial + 2 retries)", got)
	}
}

// TestRateLimitedRetryHonorsRetryAfter pins the 429 contract: the
// status is retryable, the server's Retry-After steers the wait (not
// the exponential schedule), the wait is capped by MaxBackoff so a
// hostile header cannot park the client, and the recorder gets one
// EventBackpressure record carrying the capped wait. One 429 followed by
// a 200 must succeed.
func TestRateLimitedRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "30")
			errJSON(w, http.StatusTooManyRequests, "rate_limited", "slow down")
			return
		}
		_, _ = w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()

	rec, waits := backpressureRecorder()
	c := client.New(srv.URL, client.Options{
		Retries: 2, Backoff: time.Millisecond, MaxBackoff: 100 * time.Millisecond,
		Recorder: rec,
	})
	start := time.Now()
	if err := c.Health(context.Background()); err != nil {
		t.Fatalf("Health after one 429: %v", err)
	}
	elapsed := time.Since(start)
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d requests, want 2", got)
	}
	// Retry-After (30s, capped to 100ms) must win over the 1ms
	// exponential step, and the cap must win over the raw header.
	if elapsed < 80*time.Millisecond {
		t.Fatalf("retry fired after %v; Retry-After was ignored", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("retry waited %v; MaxBackoff cap was ignored", elapsed)
	}
	if got := *waits; len(got) != 1 || got[0] != 100*time.Millisecond {
		t.Fatalf("backpressure events carried %v, want one capped 100ms wait", got)
	}
}

// backpressureRecorder returns a recorder whose sink collects the wait
// of every EventBackpressure record.
func backpressureRecorder() (*telemetry.Recorder, *[]time.Duration) {
	waits := new([]time.Duration)
	rec := telemetry.New(nil, telemetry.SinkFunc(func(ev telemetry.Event) {
		if ev.Kind != client.EventBackpressure {
			return
		}
		us, _ := ev.Field("wait_us")
		*waits = append(*waits, time.Duration(us.(int64))*time.Microsecond)
	}))
	return rec, waits
}

// TestRetryAfterCancelMidWait cancels the context while the client is
// parked on a long Retry-After: the wait must end promptly with the
// context error and no further attempt.
func TestRetryAfterCancelMidWait(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "30")
		errJSON(w, http.StatusTooManyRequests, "rate_limited", "slow down")
	}))
	defer srv.Close()

	c := client.New(srv.URL, client.Options{Retries: 3, Backoff: time.Second, MaxBackoff: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()

	start := time.Now()
	err := c.Health(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Health under canceled context: err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed >= 5*time.Second {
		t.Fatalf("cancel mid-Retry-After took %v; the wait was not interrupted", elapsed)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("server saw %d requests, want 1", got)
	}
}

// TestRetryAfterGarbageHeader: an unparseable Retry-After is treated
// as absent — the exponential schedule applies and RetryAfter is zero
// on the surfaced error.
func TestRetryAfterGarbageHeader(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "soon-ish")
		errJSON(w, http.StatusTooManyRequests, "rate_limited", "slow down")
	}))
	defer srv.Close()

	c := client.New(srv.URL, client.Options{Retries: 0})
	err := c.Health(context.Background())
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfter != 0 {
		t.Fatalf("APIError = %+v, want 429 with zero RetryAfter", apiErr)
	}
}

// TestResponseBodyCap pins the hostile-service bound: a body larger
// than Options.MaxResponseBytes is an error, not an unbounded buffer.
func TestResponseBodyCap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(strings.Repeat("lzwtcd_metric 1\n", 64)))
	}))
	defer srv.Close()

	c := client.New(srv.URL, client.Options{MaxResponseBytes: 128})
	_, err := c.Metrics(context.Background())
	if err == nil || !strings.Contains(err.Error(), "client cap") {
		t.Fatalf("Metrics with a 1KiB body over a 128-byte cap: err = %v, want the cap error", err)
	}

	c = client.New(srv.URL, client.Options{MaxResponseBytes: 1 << 20})
	body, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatalf("Metrics under the cap: %v", err)
	}
	if !strings.Contains(body, "lzwtcd_metric 1") {
		t.Fatalf("Metrics body missing exposition content: %q", body)
	}
}

// TestStatedLengthOverCapFailsBeforeReading: a reply whose
// Content-Length is over Options.MaxResponseBytes fails with the cap
// error at once, without waiting for a body the service never finishes.
func TestStatedLengthOverCapFailsBeforeReading(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1048576")
		_, _ = w.Write([]byte("lzwtcd_metric 1\n"))
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)

	c := client.New(srv.URL, client.Options{MaxResponseBytes: 1024})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Metrics(ctx); err == nil || !strings.Contains(err.Error(), "client cap") {
		t.Fatalf("Metrics with a stated 1 MiB body over a 1 KiB cap: err = %v, want the cap error", err)
	}
}

// TestStatedLengthDoesNotPresizeTheCap: a reply that states a 1 GiB
// length, within the default cap, and then sends no body fails without
// the client allocating anything near the stated length up front.
func TestStatedLengthDoesNotPresizeTheCap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1073741824")
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	c := client.New(srv.URL, client.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Metrics(ctx)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Metrics with a stated 1 GiB body and none sent: err = nil, want a read error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<20 {
		t.Fatalf("a stated 1 GiB length with no body allocated %d bytes, want at most 64 MiB", got)
	}
}

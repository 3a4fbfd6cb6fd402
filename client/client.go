// Package client is the Go client for the lzwtcd compression service:
// context-aware wrappers over the /v1 HTTP API with bounded
// retry/backoff for transient failures.
//
// Test sets travel as cube planes (server.MediaPlanes, the wire
// format's planes message) both ways: up for compress, job submit and
// dictionary training, and back from decompress, so the client never
// renders or parses cube text. This needs a service that speaks planes.
//
// Requests are replayable by construction (bodies are buffered before
// the first attempt), so the client retries connection errors,
// gateway-class statuses (502/503/504) and backpressure (429) with
// exponential backoff, honoring the context between attempts. A 429's
// Retry-After header overrides the computed delay (capped at
// Options.MaxBackoff). Other application errors (4xx) are never
// retried; their structured error body surfaces as an *APIError.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"lzwtc"
	"lzwtc/internal/server"
	"lzwtc/internal/telemetry"
	"lzwtc/internal/wire"
)

// Options tunes a Client. The zero value is usable.
type Options struct {
	// HTTPClient is the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Retries is the number of re-attempts after the first try on a
	// retryable failure; negative means 0. Default 2.
	Retries int
	// Backoff is the first retry delay, doubling per attempt; <= 0
	// means 100ms.
	Backoff time.Duration
	// MaxBackoff caps the delay growth; <= 0 means 2s.
	MaxBackoff time.Duration
	// MaxResponseBytes caps how much of a response body Compress,
	// Decompress and Metrics will read; a larger body is an error, not
	// an unbounded allocation. <= 0 means 1 GiB.
	MaxResponseBytes int64
	// Recorder receives client-side telemetry: one SpanClientRequest
	// trace span per call (not per attempt), whose identity is also
	// propagated to the server in the X-Lzwtc-Trace header so client
	// and server spans merge into one trace, and one EventBackpressure
	// record per 429 the retry loop will retry. nil disables both; a
	// span context already carried by the call's ctx still propagates.
	Recorder *telemetry.Recorder
	// APIKey identifies this client's tenant to the job tier (sent as
	// X-Api-Key on every request). Empty shares the anonymous tenant.
	APIKey string
}

// Client talks to one lzwtcd instance.
type Client struct {
	base string
	http *http.Client
	opts Options
}

// New builds a client for the service at baseURL (e.g.
// "http://127.0.0.1:8077").
func New(baseURL string, opts Options) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = http.DefaultClient
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	if opts.MaxBackoff <= 0 {
		opts.MaxBackoff = 2 * time.Second
	}
	if opts.MaxResponseBytes <= 0 {
		opts.MaxResponseBytes = 1 << 30
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: opts.HTTPClient, opts: opts}
}

// NewWithRetries is New with an explicit retry count (a convenience for
// callers configuring nothing else).
func NewWithRetries(baseURL string, retries int) *Client {
	return New(baseURL, Options{Retries: retries})
}

// SpanClientRequest is the trace span each instrumented client call
// records, covering every retry attempt of one logical request.
const SpanClientRequest = "client.request"

// EventBackpressure is the event the retry loop emits through
// Options.Recorder for every 429 it is about to retry. Its "wait_us"
// field is the delay the client will honor: the server's Retry-After,
// or the backoff step when there is none, capped at MaxBackoff. Load
// generators and adaptive callers count throttling from it.
const EventBackpressure = "client.backpressure"

// APIError is a non-2xx response carrying the service's structured
// error envelope.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // stable machine-readable code ("bad_request", ...)
	Message string
	// RequestID is the server-assigned (or echoed) request identifier
	// from the error envelope, joinable to the server-side trace.
	RequestID string
	// RetryAfter is the response's Retry-After header as a duration, 0
	// when absent. The retry loop prefers it over computed backoff.
	RetryAfter time.Duration
}

// Error implements error.
func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("lzwtcd: %d %s: %s (request %s)", e.Status, e.Code, e.Message, e.RequestID)
	}
	return fmt.Sprintf("lzwtcd: %d %s: %s", e.Status, e.Code, e.Message)
}

// retryable reports whether a response status is worth re-attempting.
// 429 is backpressure, not failure: the service wants the same request
// later, and says how much later in Retry-After.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do runs one replayable request with retry/backoff. body is the full
// request body; it is re-sent from the start on every attempt. An empty
// contentType or accept sends no such header. One
// client.request trace span covers all attempts; the span identity in
// ctx (started here, or supplied by the caller even with no recorder)
// travels to the server in the X-Lzwtc-Trace header, and any request
// ID in ctx in X-Request-Id.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, contentType, accept string, body []byte) (resp *http.Response, err error) {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var sp *telemetry.TraceSpan
	ctx, sp = c.opts.Recorder.StartSpan(ctx, SpanClientRequest)
	attempts := 0
	defer func() {
		status := 0
		if resp != nil {
			status = resp.StatusCode
		}
		sp.End(telemetry.F("path", path), telemetry.F("attempts", attempts), telemetry.F("status", status))
	}()
	delay := c.opts.Backoff
	var retryAfter time.Duration // server-directed delay from the last 429/503
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		attempts = attempt + 1
		if attempt > 0 {
			wait := delay
			delay *= 2
			if delay > c.opts.MaxBackoff {
				delay = c.opts.MaxBackoff
			}
			if retryAfter > 0 {
				// Retry-After overrides the computed backoff but never
				// exceeds the configured cap: a hostile or confused server
				// must not park the client for minutes.
				wait = retryAfter
				if wait > c.opts.MaxBackoff {
					wait = c.opts.MaxBackoff
				}
				retryAfter = 0
			}
			timer := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, ctx.Err()
			case <-timer.C:
			}
		}
		req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		if c.opts.APIKey != "" {
			req.Header.Set(server.HeaderAPIKey, c.opts.APIKey)
		}
		if sc, ok := telemetry.SpanFromContext(ctx); ok {
			req.Header.Set(server.HeaderTrace, sc.String())
		}
		if id := telemetry.RequestIDFromContext(ctx); id != "" {
			req.Header.Set(server.HeaderRequestID, id)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
			continue // connection-level failure: retry
		}
		if retryable(resp.StatusCode) && attempt < c.opts.Retries {
			apiErr := decodeAPIError(resp)
			lastErr = apiErr
			var ae *APIError
			if errors.As(apiErr, &ae) {
				retryAfter = ae.RetryAfter
				if resp.StatusCode == http.StatusTooManyRequests && c.opts.Recorder != nil {
					wait := retryAfter
					if wait <= 0 {
						wait = delay
					}
					if wait > c.opts.MaxBackoff {
						wait = c.opts.MaxBackoff
					}
					c.opts.Recorder.Emit(EventBackpressure,
						telemetry.F("path", path), telemetry.F("wait_us", wait.Microseconds()))
				}
			}
			continue
		}
		if resp.StatusCode/100 != 2 {
			return nil, decodeAPIError(resp)
		}
		return resp, nil
	}
	return nil, fmt.Errorf("lzwtcd: request failed after %d attempts: %w", c.opts.Retries+1, lastErr)
}

// decodeAPIError drains a non-2xx response into an *APIError. The
// request ID comes from the envelope, falling back to the echoed
// X-Request-Id header for bodies the server never wrote.
func decodeAPIError(resp *http.Response) error {
	defer resp.Body.Close() //nolint:errcheck // error body already read
	reqID := resp.Header.Get(server.HeaderRequestID)
	retryAfter := parseRetryAfter(resp.Header.Get(server.HeaderRetryAfter))
	var envelope server.ErrorBody
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if err != nil {
		return &APIError{Status: resp.StatusCode, Code: "unreadable_body",
			Message: fmt.Sprintf("reading error body: %v", err), RequestID: reqID, RetryAfter: retryAfter}
	}
	if err := json.Unmarshal(data, &envelope); err != nil || envelope.Error.Code == "" {
		return &APIError{Status: resp.StatusCode, Code: "unknown",
			Message: strings.TrimSpace(string(data)), RequestID: reqID, RetryAfter: retryAfter}
	}
	if envelope.Error.RequestID != "" {
		reqID = envelope.Error.RequestID
	}
	return &APIError{Status: resp.StatusCode, Code: envelope.Error.Code,
		Message: envelope.Error.Message, RequestID: reqID, RetryAfter: retryAfter}
}

// parseRetryAfter reads the delay-seconds form of Retry-After (the only
// form lzwtcd emits); HTTP-date or garbage values parse as 0.
func parseRetryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// CompressOptions tunes one remote compression.
type CompressOptions struct {
	// ShardPatterns > 0 asks the service for a sharded compression of
	// at most this many patterns per frame.
	ShardPatterns int
	// DictID names a stored shared dictionary (64-char hex store key)
	// to warm-start from: the service compresses with that preload and
	// the returned container carries a 'D' frame referencing it. The
	// dictionary must already be stored (TrainDict or PushDict).
	DictID string
}

// compressQuery renders the compression query parameters, including
// the optional dictionary reference.
func compressQuery(cfg lzwtc.Config, opts CompressOptions) url.Values {
	v := server.EncodeCompressQuery(cfg, opts.ShardPatterns)
	if opts.DictID != "" {
		v.Set(server.ParamDictID, opts.DictID)
	}
	return v
}

// Compress sends a test set for remote compression and returns the
// wire-format container bytes.
func (c *Client) Compress(ctx context.Context, ts *lzwtc.TestSet, cfg lzwtc.Config, opts CompressOptions) ([]byte, error) {
	body, err := planesBody(ts, cfg)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, server.PathCompress,
		compressQuery(cfg, opts), server.MediaPlanes, "", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // fully drained below
	return c.readBounded(resp.Body)
}

// planesBody renders ts as a planes message under cfg, the request body
// of every verb that uploads a test set. The buffer is grown to the
// exact message size first, so the body is one allocation rather than a
// series of doublings.
func planesBody(ts *lzwtc.TestSet, cfg lzwtc.Config) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hdr := wire.Header{Cfg: cfg, Width: ts.Width}
	var body bytes.Buffer
	body.Grow(wire.PlanesSize(hdr, len(ts.Cubes)))
	if err := wire.WritePlanes(&body, hdr, ts); err != nil {
		return nil, err
	}
	return body.Bytes(), nil
}

// readBounded buffers r up to Options.MaxResponseBytes and errors
// loudly past it: a misbehaving (or impersonated) service must not be
// able to grow the client's heap without limit.
func (c *Client) readBounded(r io.Reader) ([]byte, error) {
	limit := c.opts.MaxResponseBytes
	data, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > limit {
		return nil, c.capError()
	}
	return data, nil
}

// capError reports a response body over Options.MaxResponseBytes.
func (c *Client) capError() error {
	return fmt.Errorf("lzwtcd: response body exceeds the %d-byte client cap; raise Options.MaxResponseBytes if intended", c.opts.MaxResponseBytes)
}

// CompressResult is Compress followed by a local decode into a Result.
// Only valid for unsharded compressions (a sharded container holds
// multiple frames); sharded callers keep the raw container.
func (c *Client) CompressResult(ctx context.Context, ts *lzwtc.TestSet, cfg lzwtc.Config) (*lzwtc.Result, error) {
	data, err := c.Compress(ctx, ts, cfg, CompressOptions{})
	if err != nil {
		return nil, err
	}
	return lzwtc.DecodeWireResult(data)
}

// Decompress sends a wire container for remote decompression and
// returns the fully specified test set, which the service sends back as
// cube planes. A reply of any other Content-Type is an error.
func (c *Client) Decompress(ctx context.Context, container []byte) (*lzwtc.TestSet, error) {
	resp, err := c.do(ctx, http.MethodPost, server.PathDecompress, nil, "application/octet-stream", server.MediaPlanes, container)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // fully drained below
	ct := resp.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err != nil || mt != server.MediaPlanes {
		return nil, fmt.Errorf("lzwtcd: decompress reply has Content-Type %q, want %s", ct, server.MediaPlanes)
	}
	body := &io.LimitedReader{R: resp.Body, N: c.opts.MaxResponseBytes}
	_, ts, err := wire.ReadPlanes(body)
	if err != nil && body.N <= 0 {
		return nil, c.capError()
	}
	return ts, err
}

// Stats fetches the service counter document.
func (c *Client) Stats(ctx context.Context) (*server.StatsResponse, error) {
	resp, err := c.do(ctx, http.MethodGet, server.PathStats, nil, "", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // fully drained below
	var stats server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return nil, fmt.Errorf("lzwtcd: decoding stats: %w", err)
	}
	return &stats, nil
}

// Metrics fetches the raw Prometheus text exposition.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, server.PathMetrics, nil, "", "", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close() //nolint:errcheck // fully drained below
	data, err := c.readBounded(resp.Body)
	return string(data), err
}

// Health probes /healthz; nil means the service answered ok.
func (c *Client) Health(ctx context.Context) error {
	resp, err := c.do(ctx, http.MethodGet, server.PathHealth, nil, "", "", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close() //nolint:errcheck // fully drained below
	var status struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		return fmt.Errorf("lzwtcd: decoding health: %w", err)
	}
	if status.Status != "ok" {
		return errors.New("lzwtcd: health status " + status.Status)
	}
	return nil
}

package server

import (
	"fmt"
	"net/url"
	"strconv"

	"lzwtc/internal/core"
	"lzwtc/internal/jobs"
	"lzwtc/internal/telemetry"
)

// API paths served by lzwtcd and spoken by the client package.
const (
	PathCompress    = "/v1/compress"
	PathDecompress  = "/v1/decompress"
	PathStats       = "/v1/stats"
	PathHealth      = "/healthz"
	PathMetrics     = "/metrics"
	PathTraceRecent = "/debug/trace/recent"

	// PathJobsCompress accepts asynchronous compressions: POST returns
	// 202 plus a job ID instead of holding the connection open.
	PathJobsCompress = "/v1/jobs/compress"
	// PathJobs is the per-job prefix: GET {id} for status, GET
	// {id}/result for the wire container, DELETE {id} to cancel.
	PathJobs = "/v1/jobs/"

	// PathDict trains shared dictionaries: PUT with a test set trains
	// (idempotently, through the store's singleflight) and answers the
	// content address.
	PathDict = "/v1/dict"
	// PathDictKey is the per-dictionary prefix: GET {key} fetches the
	// LZWD blob, PUT {key} uploads one, DELETE {key} evicts.
	PathDictKey = "/v1/dict/"
)

// MediaPlanes is the media type of a test set sent as cube planes, the
// wire format's planes message (wire.ReadPlanes). A request body of this
// Content-Type is read as planes, and a decompress request whose Accept
// names it is answered in planes; any other body is read as cube text.
const MediaPlanes = "application/vnd.lzwtc.planes"

// JobResultSuffix selects a job's result document under PathJobs.
const JobResultSuffix = "/result"

// Query parameter names for /v1/compress. The values mirror the lzwtc
// CLI flags and batch-manifest options.
const (
	paramChar  = "char"
	paramDict  = "dict"
	paramEntry = "entry"
	paramFill  = "fill"
	paramTie   = "tie"
	paramFull  = "full"
	paramShard = "shard"
	// ParamDictID names a stored shared dictionary (64-char hex store
	// key) for /v1/compress and /v1/jobs/compress: the compression
	// starts from that preload and the container carries a 'D' frame.
	ParamDictID = "dictid"
	// ParamEntries bounds the preload entry count for PUT /v1/dict
	// training (0 = keep everything the training run built).
	ParamEntries = "entries"
)

// Response headers carrying compression geometry next to the container.
const (
	HeaderPatterns = "X-Lzwtc-Patterns"
	HeaderWidth    = "X-Lzwtc-Width"
	HeaderRatio    = "X-Lzwtc-Ratio"
	HeaderShards   = "X-Lzwtc-Shards"
	// HeaderDictKey / headerDictDigest ride dictionary-referencing
	// responses: the store key and canonical blob digest of the
	// dictionary the compression (or blob response) used.
	HeaderDictKey    = "X-Lzwtc-Dict-Key"
	headerDictDigest = "X-Lzwtc-Dict-Digest"
)

// Request-scoped propagation headers.
const (
	// HeaderTrace carries the caller's span context in the wire form
	// "<16 hex trace id>-<16 hex span id>" (telemetry.SpanContext), so
	// the server's spans link under the client's request span.
	HeaderTrace = "X-Lzwtc-Trace"
	// HeaderRequestID carries (request) or echoes (response) the
	// request identifier attached to span records and error envelopes.
	HeaderRequestID = "X-Request-Id"
	// HeaderAPIKey identifies the tenant for job-tier quota accounting.
	// Absent or malformed keys fall back to the anonymous tenant.
	HeaderAPIKey = "X-Api-Key"
	// HeaderRetryAfter is the standard backpressure header every 429
	// carries: seconds until a retry is expected to succeed.
	HeaderRetryAfter = "Retry-After"
)

// ErrorBody is the structured error envelope every non-2xx response
// carries.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail is the machine-readable error: a stable code plus a
// human message, and the request ID the server assigned (or echoed),
// joinable to the server-side trace of the failing request.
type ErrorDetail struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

// Stable error codes.
const (
	CodeBadRequest       = "bad_request"
	CodeBodyTooLarge     = "body_too_large"
	codeMethodNotAllowed = "method_not_allowed"
	codeNotFound         = "not_found"
	CodeTimeout          = "timeout"
	codeCanceled         = "canceled"
	codeDraining         = "draining"
	codeInternal         = "internal"

	// Job-tier codes. A rejected submission's 429 carries its
	// jobs.RejectError reason as the code, so the client's backoff can
	// distinguish a full queue from an exhausted quota; the third
	// reason, "active_limit", needs no alias here.
	CodeQueueFull   = jobs.ReasonQueueFull
	CodeRateLimited = jobs.ReasonRateLimited
	CodeJobNotFound = "job_not_found"
	CodeJobExpired  = "job_expired"
	codeJobNotDone  = "job_not_done"
	codeJobFailed   = "job_failed"
	CodeJobCanceled = "job_canceled"

	// Dictionary-store codes.
	CodeDictNotFound = "dict_not_found"
	CodeDictInvalid  = "dict_invalid"
)

// StatsResponse is the /v1/stats document. The dict-arena counters use
// the same JSON keys as the CompressRecord section of `lzwtc stats`
// run records (a test pins the key sets together), so scripts join the
// service view to the CLI view without a translation table.
type StatsResponse struct {
	UptimeSeconds        float64          `json:"uptime_seconds"`
	InFlight             int64            `json:"in_flight"`
	Requests             map[string]int64 `json:"requests"`
	Errors               int64            `json:"errors"`
	BytesIn              int64            `json:"bytes_in"`
	BytesOut             int64            `json:"bytes_out"`
	PatternsCompressed   int64            `json:"patterns_compressed"`
	PatternsDecompressed int64            `json:"patterns_decompressed"`
	DictPoolRecycles     int64            `json:"dict_pool_recycles"`
	DictPoolMisses       int64            `json:"dict_pool_misses"`
	Jobs                 JobsStats        `json:"jobs"`
	DictStore            DictStoreStats   `json:"dict_store"`
}

// DictStoreStats is the shared-dictionary section of /v1/stats,
// mirroring the dictstore registry counters plus the live occupancy.
type DictStoreStats struct {
	Entries     int   `json:"entries"`
	MemBytes    int64 `json:"mem_bytes"`
	DiskEntries int   `json:"disk_entries"`
	DiskBytes   int64 `json:"disk_bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Trains      int64 `json:"trains"`
}

// DictResponse is the document PUT /v1/dict (train) and PUT
// /v1/dict/{key} (upload) answer: the content address and shape of the
// stored dictionary.
type DictResponse struct {
	Key       string `json:"key"`
	Digest    string `json:"digest"`
	Entries   int    `json:"entries"`
	BlobBytes int    `json:"blob_bytes"`
	// Source reports how the training resolved: "mem" or "disk" for an
	// already-stored dictionary, "trained" for a fresh run.
	Source string `json:"source,omitempty"`
}

// JobsStats is the async-tier section of /v1/stats, mirroring the
// internal/jobs registry counters plus the live queue/running gauges.
type JobsStats struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Canceled  int64 `json:"canceled"`
	Expired   int64 `json:"expired"`
	Rejected  int64 `json:"rejected"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
}

// TraceRecentResponse is the /debug/trace/recent document: the most
// recent traces in the server's ring buffer, newest first.
type TraceRecentResponse struct {
	Traces []telemetry.TraceRecord `json:"traces"`
}

// JobStatusResponse is one job's status document, served by POST
// /v1/jobs/compress (202) and GET /v1/jobs/{id}. Timestamps use the
// same microsecond-Unix convention as trace span records.
type JobStatusResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// FramesDone / FramesTotal are the progress feed: completed pool
	// sub-jobs over expected (1/1 for unsharded compressions).
	FramesDone  int `json:"frames_done"`
	FramesTotal int `json:"frames_total"`
	// Patterns / Ratio / ResultBytes are populated once the job is done.
	Patterns       int     `json:"patterns,omitempty"`
	Ratio          float64 `json:"ratio,omitempty"`
	ResultBytes    int     `json:"result_bytes,omitempty"`
	Error          string  `json:"error,omitempty"`
	CreatedUnixUS  int64   `json:"created_unix_us"`
	StartedUnixUS  int64   `json:"started_unix_us,omitempty"`
	FinishedUnixUS int64   `json:"finished_unix_us,omitempty"`
	ExpiresUnixUS  int64   `json:"expires_unix_us,omitempty"`
}

// jobStatusFrom converts a manager snapshot into the wire document.
func jobStatusFrom(st jobs.Status) JobStatusResponse {
	resp := JobStatusResponse{
		ID:            st.ID,
		State:         st.State.String(),
		FramesDone:    st.FramesDone,
		FramesTotal:   st.FramesTotal,
		Patterns:      st.Patterns,
		Ratio:         st.Ratio,
		ResultBytes:   st.ResultBytes,
		Error:         st.Error,
		CreatedUnixUS: st.Created.UnixMicro(),
	}
	if !st.Started.IsZero() {
		resp.StartedUnixUS = st.Started.UnixMicro()
	}
	if !st.Finished.IsZero() {
		resp.FinishedUnixUS = st.Finished.UnixMicro()
	}
	if !st.Expires.IsZero() {
		resp.ExpiresUnixUS = st.Expires.UnixMicro()
	}
	return resp
}

// EncodeCompressQuery renders a Config (and optional shard size) as
// /v1/compress query parameters.
//
//lzwtcvet:ignore configbeforeuse pure serializer; parseCompressQuery validates on receipt
func EncodeCompressQuery(cfg core.Config, shardPatterns int) url.Values {
	v := url.Values{}
	v.Set(paramChar, strconv.Itoa(cfg.CharBits))
	v.Set(paramDict, strconv.Itoa(cfg.DictSize))
	v.Set(paramEntry, strconv.Itoa(cfg.EntryBits))
	v.Set(paramFill, cfg.Fill.String())
	v.Set(paramTie, cfg.Tie.String())
	v.Set(paramFull, cfg.Full.String())
	if shardPatterns > 0 {
		v.Set(paramShard, strconv.Itoa(shardPatterns))
	}
	return v
}

// parseCompressQuery inverts EncodeCompressQuery, starting from the
// paper's default configuration for absent parameters.
func parseCompressQuery(v url.Values) (core.Config, int, error) {
	cfg := core.DefaultConfig()
	shard := 0
	intParam := func(name string, dst *int) error {
		s := v.Get(name)
		if s == "" {
			return nil
		}
		n, err := strconv.Atoi(s)
		if err != nil {
			return fmt.Errorf("server: parameter %s=%q: %w", name, s, err)
		}
		*dst = n
		return nil
	}
	if err := intParam(paramChar, &cfg.CharBits); err != nil {
		return cfg, 0, err
	}
	if err := intParam(paramDict, &cfg.DictSize); err != nil {
		return cfg, 0, err
	}
	if err := intParam(paramEntry, &cfg.EntryBits); err != nil {
		return cfg, 0, err
	}
	if err := intParam(paramShard, &shard); err != nil {
		return cfg, 0, err
	}
	if shard < 0 {
		return cfg, 0, fmt.Errorf("server: parameter shard=%d must be >= 0", shard)
	}
	for _, key := range []string{paramFill, paramTie, paramFull} {
		if s := v.Get(key); s != "" {
			if err := core.ParsePolicy(&cfg, key, s); err != nil {
				return cfg, 0, err
			}
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, 0, err
	}
	return cfg, shard, nil
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"lzwtc/internal/jobs"
	"lzwtc/internal/telemetry"
)

// Async job tier: POST /v1/jobs/compress admits work onto the
// internal/jobs manager and answers 202 immediately; the per-job
// endpoints under /v1/jobs/{id} serve status, the result container,
// and cancellation. Tenancy comes from X-Api-Key (absent keys share
// the anonymous tenant) and every quota or queue rejection is a 429
// with a Retry-After estimate from the manager's backpressure math.

// anonTenant is the quota bucket for requests without an API key.
const anonTenant = "anonymous"

// tenantOf resolves the request's quota tenant. API keys share the
// request-ID grammar (1–64 bytes of [0-9A-Za-z._-]); anything else is
// treated as absent rather than becoming an unbounded label.
func tenantOf(r *http.Request) string {
	if key := sanitizeRequestID(r.Header.Get(HeaderAPIKey)); key != "" {
		return key
	}
	return anonTenant
}

// writeRetryError is writeError plus the Retry-After header, the
// backpressure contract every 429 (and draining 503) carries.
func (s *Server) writeRetryError(w http.ResponseWriter, r *http.Request, status int, code, msg string, retryAfter int) {
	if retryAfter > 0 {
		w.Header().Set(HeaderRetryAfter, strconv.Itoa(retryAfter))
	}
	s.writeError(w, r, status, code, msg)
}

// retrySeconds rounds a Retry-After duration up to whole seconds,
// never below 1 (a zero header would invite an immediate retry storm).
func retrySeconds(d int64) int {
	const us = 1e6
	secs := (d + us - 1) / us
	if secs < 1 {
		secs = 1
	}
	return int(secs)
}

// handleJobSubmit admits one asynchronous compression: the body and
// query are validated synchronously (a malformed request fails now,
// not inside a job the caller would have to poll), then the compiled
// run closure is queued and the job's initial snapshot returned as
// 202 with a Location header.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) || !s.checkDraining(w, r) {
		return
	}
	req, ok := s.readCompressRequest(r.Context(), w, r)
	if !ok {
		return
	}

	tenant := tenantOf(r)
	st, err := s.jobs.Submit(r.Context(), tenant, s.compressJob(req))
	if err != nil {
		var rej *jobs.RejectError
		switch {
		case errors.As(err, &rej):
			s.writeRetryError(w, r, http.StatusTooManyRequests, rej.Reason,
				fmt.Sprintf("job submission rejected: %s (tenant %s)", rej.Reason, rej.Tenant),
				retrySeconds(rej.RetryAfter.Microseconds()))
		case errors.Is(err, jobs.ErrDraining):
			s.writeError(w, r, http.StatusServiceUnavailable, CodeDraining, "server is draining")
		default:
			s.writeError(w, r, http.StatusInternalServerError, CodeInternal, err.Error())
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", PathJobs+st.ID)
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, JobStatusFrom(st))
}

// compressJob compiles one admitted request into the manager's run
// function. The job's recorder is rebuilt per run over the server's
// registry, the server's sinks, and the job's Progress — so pool
// telemetry, trace spans and the frames_done feed all ride the same
// event stream the synchronous path uses.
func (s *Server) compressJob(req compressRequest) jobs.RunFunc {
	return func(ctx context.Context, pr *jobs.Progress) (*jobs.Payload, error) {
		rec := telemetry.New(s.reg, append(append([]telemetry.Sink{}, s.sinks...), pr)...).
			WithProcess(processName)
		pr.SetTotal(shardTotal(len(req.ts.Cubes), req.shard))
		var buf bytes.Buffer
		res, err := s.compressToWire(ctx, nil, &buf, req, rec)
		if err != nil {
			return nil, err
		}
		return &jobs.Payload{Data: buf.Bytes(), Patterns: res.Patterns, Ratio: res.Ratio()}, nil
	}
}

// shardTotal is the expected frame count for the progress feed: one
// frame per shard group, or a single frame when unsharded.
func shardTotal(patterns, shard int) int {
	if shard <= 0 {
		return 1
	}
	return (patterns + shard - 1) / shard
}

// handleJobs dispatches the per-job endpoints:
//
//	GET    /v1/jobs/{id}         status document
//	GET    /v1/jobs/{id}/result  wire container (once done)
//	DELETE /v1/jobs/{id}         cancel
//
// A job belonging to another tenant answers exactly like an unknown
// ID, so job identifiers do not leak across API keys.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, PathJobs)
	wantResult := false
	if id, ok := strings.CutSuffix(rest, JobResultSuffix); ok {
		rest, wantResult = id, true
	}
	id := sanitizeRequestID(rest)
	if id == "" {
		s.writeError(w, r, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("malformed job id %q", rest))
		return
	}
	switch {
	case r.Method == http.MethodGet && wantResult:
		s.handleJobResult(w, r, id)
	case r.Method == http.MethodGet:
		s.handleJobStatus(w, r, id)
	case r.Method == http.MethodDelete && !wantResult:
		s.handleJobCancel(w, r, id)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		s.writeError(w, r, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
			fmt.Sprintf("%s requires GET or DELETE", r.URL.Path))
	}
}

// mapJobLookupError renders the two typed lookup failures.
func (s *Server) mapJobLookupError(w http.ResponseWriter, r *http.Request, id string, err error) {
	if errors.Is(err, jobs.ErrExpired) {
		s.writeError(w, r, http.StatusNotFound, CodeJobExpired,
			fmt.Sprintf("job %s expired (result TTL passed)", id))
		return
	}
	s.writeError(w, r, http.StatusNotFound, CodeJobNotFound, fmt.Sprintf("no such job %s", id))
}

// jobForTenant looks a job up and hides other tenants' jobs behind the
// not-found answer.
func (s *Server) jobForTenant(r *http.Request, id string) (jobs.Status, error) {
	st, err := s.jobs.Get(id)
	if err != nil {
		return jobs.Status{}, err
	}
	if st.Tenant != tenantOf(r) {
		return jobs.Status{}, jobs.ErrNotFound
	}
	return st, nil
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request, id string) {
	st, err := s.jobForTenant(r, id)
	if err != nil {
		s.mapJobLookupError(w, r, id, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, JobStatusFrom(st))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request, id string) {
	if _, err := s.jobForTenant(r, id); err != nil {
		s.mapJobLookupError(w, r, id, err)
		return
	}
	payload, st, err := s.jobs.Result(id)
	switch {
	case err == nil:
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(HeaderPatterns, strconv.Itoa(st.Patterns))
		w.Header().Set(HeaderRatio, strconv.FormatFloat(st.Ratio, 'g', -1, 64))
		w.Header().Set(HeaderShards, strconv.Itoa(st.FramesTotal))
		if _, err := w.Write(payload.Data); err != nil {
			return // mid-stream failure; truncation detectable by the wire CRCs
		}
	case errors.Is(err, jobs.ErrNotDone):
		// Not a failure: the caller polled too early. Retry-After keeps
		// naive pollers off the hot loop.
		s.writeRetryError(w, r, http.StatusConflict, CodeJobNotDone,
			fmt.Sprintf("job %s is %s; poll %s%s until done", id, st.State, PathJobs, id), 1)
	case errors.Is(err, context.Canceled):
		s.writeError(w, r, http.StatusConflict, CodeJobCanceled,
			fmt.Sprintf("job %s was canceled", id))
	case errors.Is(err, jobs.ErrNotFound), errors.Is(err, jobs.ErrExpired):
		s.mapJobLookupError(w, r, id, err)
	default:
		s.writeError(w, r, http.StatusConflict, CodeJobFailed,
			fmt.Sprintf("job %s failed: %v", id, err))
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request, id string) {
	if _, err := s.jobForTenant(r, id); err != nil {
		s.mapJobLookupError(w, r, id, err)
		return
	}
	st, err := s.jobs.Cancel(id)
	if err != nil {
		s.mapJobLookupError(w, r, id, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, JobStatusFrom(st))
}

// writeJSON encodes one response document; the response is already
// committed, so encoding errors cannot be reported to the client.
func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) //nolint:errcheck // response already committed
}

package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"lzwtc"
	"lzwtc/internal/server"
)

// Async job verbs over lzwtcd's /v1/jobs tier. SubmitCompressJob /
// JobStatus / JobResult / CancelJob map one-to-one onto the HTTP
// endpoints; WaitJob and CompressJob compose them into the common
// submit-poll-fetch flow. All of them ride the same retry/backoff loop
// as the synchronous verbs, so quota 429s are absorbed up to
// Options.Retries before surfacing as an *APIError.

// JobStatus is one job's status document (server.JobStatusResponse
// re-exported, so callers need not import internal packages).
type JobStatus = server.JobStatusResponse

// ErrJobFailed wraps a job that reached the failed state; the job's
// own message is in the error string.
var ErrJobFailed = errors.New("lzwtcd: job failed")

// ErrJobCanceled is a wait or fetch against a canceled job.
var ErrJobCanceled = errors.New("lzwtcd: job canceled")

// SubmitCompressJob submits a test set for asynchronous compression
// and returns the job's initial (queued) status. The result is fetched
// separately with JobResult once WaitJob (or polling JobStatus)
// reports the job done.
func (c *Client) SubmitCompressJob(ctx context.Context, ts *lzwtc.TestSet, cfg lzwtc.Config, opts CompressOptions) (*JobStatus, error) {
	body, err := planesBody(ts, cfg)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(ctx, http.MethodPost, server.PathJobsCompress,
		compressQuery(cfg, opts), server.MediaPlanes, "", body)
	if err != nil {
		return nil, err
	}
	return decodeJobStatus(resp)
}

// JobStatus fetches one job's current status document.
func (c *Client) JobStatus(ctx context.Context, id string) (*JobStatus, error) {
	resp, err := c.do(ctx, http.MethodGet, server.PathJobs+id, nil, "", "", nil)
	if err != nil {
		return nil, err
	}
	return decodeJobStatus(resp)
}

// JobResult fetches a finished job's wire container. A job that is not
// done yet surfaces as an *APIError with code job_not_done (status
// 409); expired or unknown jobs as 404s with their typed codes.
func (c *Client) JobResult(ctx context.Context, id string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, server.PathJobs+id+server.JobResultSuffix, nil, "", "", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //nolint:errcheck // fully drained below
	return c.readBounded(resp.Body)
}

// CancelJob requests cancellation and returns the job's status after
// the request (canceled for queued jobs; still running jobs transition
// once the pool observes the canceled context).
func (c *Client) CancelJob(ctx context.Context, id string) (*JobStatus, error) {
	resp, err := c.do(ctx, http.MethodDelete, server.PathJobs+id, nil, "", "", nil)
	if err != nil {
		return nil, err
	}
	return decodeJobStatus(resp)
}

// WaitJob polls a job until it reaches a terminal state or ctx ends.
// pollInterval <= 0 means 50ms. Done returns the final status; failed
// and canceled jobs return it alongside ErrJobFailed / ErrJobCanceled.
func (c *Client) WaitJob(ctx context.Context, id string, pollInterval time.Duration) (*JobStatus, error) {
	if pollInterval <= 0 {
		pollInterval = 50 * time.Millisecond
	}
	t := time.NewTicker(pollInterval)
	defer t.Stop()
	for {
		st, err := c.JobStatus(ctx, id)
		if err != nil {
			return nil, err
		}
		switch st.State {
		case "done":
			return st, nil
		case "failed":
			return st, fmt.Errorf("%w: %s", ErrJobFailed, st.Error)
		case "canceled":
			return st, ErrJobCanceled
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// CompressJob is the asynchronous analogue of Compress: submit, wait,
// fetch. The returned container is byte-identical to what the
// synchronous endpoint would produce for the same input.
func (c *Client) CompressJob(ctx context.Context, ts *lzwtc.TestSet, cfg lzwtc.Config, opts CompressOptions) ([]byte, error) {
	st, err := c.SubmitCompressJob(ctx, ts, cfg, opts)
	if err != nil {
		return nil, err
	}
	if _, err := c.WaitJob(ctx, st.ID, 0); err != nil {
		return nil, err
	}
	return c.JobResult(ctx, st.ID)
}

// decodeJobStatus drains a 2xx response into a status document.
func decodeJobStatus(resp *http.Response) (*JobStatus, error) {
	defer resp.Body.Close() //nolint:errcheck // fully drained below
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("lzwtcd: decoding job status: %w", err)
	}
	return &st, nil
}

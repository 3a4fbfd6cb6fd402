// Command lzwtcload drives a running lzwtcd with many concurrent
// clients and verifies every answer, turning "the async tier works" in
// a test into "the async tier works under load" against a real server.
//
// Usage:
//
//	lzwtcload -server http://127.0.0.1:8077 [-clients 200] [-requests 1]
//	          [-mode async|sync] [-in cubes.txt] [-patterns 64] [-width 32]
//	          [-shard 0] [-tenants 1] [-poll 10ms] [-timeout 2m] [-retries 8]
//
// Each client submits -requests compressions (through the async job
// tier in async mode, POST /v1/compress in sync mode) and byte-compares
// every container against a locally computed reference: a lost,
// truncated or corrupted job is a hard failure and a nonzero exit.
// Quota 429s are expected under pressure — they are absorbed by the
// client's Retry-After backoff and reported as "throttled", never as
// failures. -tenants > 1 spreads clients across that many API keys.
//
// The report has two latency views: percentiles measured by this
// process (whole-operation wall clock, including queue time and
// polling), and percentiles estimated from the server's own /metrics
// histograms (lzwtcd_request_seconds, lzwtc_jobs_duration_seconds), so
// client-observed SLOs can be checked against server-side accounting
// in one run.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lzwtc"
	"lzwtc/client"
	"lzwtc/internal/telemetry"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lzwtcload:", err)
		os.Exit(1)
	}
}

// tally aggregates outcomes across all client goroutines.
type tally struct {
	ok        atomic.Int64
	failed    atomic.Int64
	corrupt   atomic.Int64
	throttled atomic.Int64

	mu        sync.Mutex
	latencies []float64 // seconds per successful operation
	errs      []string  // first few failure messages, for the report
}

func (t *tally) observe(seconds float64) {
	t.mu.Lock()
	t.latencies = append(t.latencies, seconds)
	t.mu.Unlock()
}

func (t *tally) fail(err error) {
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
}

func run(ctx context.Context, args []string, out *os.File) error {
	fs := flag.NewFlagSet("lzwtcload", flag.ContinueOnError)
	serverURL := fs.String("server", "http://127.0.0.1:8077", "lzwtcd base URL")
	clients := fs.Int("clients", 200, "concurrent clients")
	requests := fs.Int("requests", 1, "operations per client")
	mode := fs.String("mode", "async", "async (job tier) or sync (/v1/compress)")
	in := fs.String("in", "", "cube file to compress (default: synthetic input)")
	patterns := fs.Int("patterns", 64, "synthetic input patterns (when -in is unset)")
	width := fs.Int("width", 32, "synthetic input pattern width")
	shard := fs.Int("shard", 0, "patterns per shard frame (0 = single frame)")
	tenants := fs.Int("tenants", 1, "spread clients across this many API keys")
	poll := fs.Duration("poll", 10*time.Millisecond, "async status poll interval")
	timeout := fs.Duration("timeout", 2*time.Minute, "whole-run deadline")
	retries := fs.Int("retries", 8, "client retry attempts (429s consume these)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *mode != "async" && *mode != "sync" {
		return fmt.Errorf("unknown -mode %q (want async or sync)", *mode)
	}
	if *clients <= 0 || *requests <= 0 {
		return fmt.Errorf("-clients and -requests must be positive")
	}

	ts, err := loadInput(*in, *patterns, *width)
	if err != nil {
		return err
	}
	cfg := lzwtc.DefaultConfig()
	expected, err := referenceContainer(ctx, ts, cfg, *shard)
	if err != nil {
		return fmt.Errorf("computing reference container: %w", err)
	}

	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()

	var tl tally
	// One recorder shared by every client: its sink counts the 429s the
	// retry loops absorb, reported as client.EventBackpressure.
	rec := telemetry.New(nil, telemetry.SinkFunc(func(ev telemetry.Event) {
		if ev.Kind == client.EventBackpressure {
			tl.throttled.Add(1)
		}
	}))
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		key := fmt.Sprintf("load-%d", i%*tenants)
		go func(ctx context.Context, key string) {
			defer wg.Done()
			cl := client.New(*serverURL, client.Options{
				Retries:  *retries,
				APIKey:   key,
				Recorder: rec,
			})
			for r := 0; r < *requests; r++ {
				if ctx.Err() != nil {
					tl.fail(fmt.Errorf("run deadline hit with work remaining: %w", ctx.Err()))
					return
				}
				runOne(ctx, cl, *mode, ts, cfg, *shard, *poll, expected, &tl)
			}
		}(ctx, key)
	}
	wg.Wait()
	elapsed := time.Since(start)

	report(out, &tl, elapsed, *mode)
	if err := serverPercentiles(ctx, *serverURL, *retries, out); err != nil {
		fmt.Fprintf(out, "server metrics unavailable: %v\n", err)
	}
	if tl.failed.Load() > 0 || tl.corrupt.Load() > 0 {
		return fmt.Errorf("%d failed, %d corrupted of %d operations",
			tl.failed.Load(), tl.corrupt.Load(), int64(*clients**requests))
	}
	return nil
}

// runOne performs one compression (async or sync) and verifies the
// container byte-for-byte.
func runOne(ctx context.Context, cl *client.Client, mode string, ts *lzwtc.TestSet,
	cfg lzwtc.Config, shard int, poll time.Duration, expected []byte, tl *tally) {
	opStart := time.Now()
	var data []byte
	var err error
	if mode == "async" {
		data, err = compressAsync(ctx, cl, ts, cfg, shard, poll)
	} else {
		data, err = cl.Compress(ctx, ts, cfg, client.CompressOptions{ShardPatterns: shard})
	}
	if err != nil {
		tl.fail(err)
		return
	}
	if !bytes.Equal(data, expected) {
		tl.corrupt.Add(1)
		return
	}
	tl.ok.Add(1)
	tl.observe(time.Since(opStart).Seconds())
}

// compressAsync is submit-wait-fetch with an explicit poll interval
// (client.CompressJob hardcodes its own default).
func compressAsync(ctx context.Context, cl *client.Client, ts *lzwtc.TestSet,
	cfg lzwtc.Config, shard int, poll time.Duration) ([]byte, error) {
	st, err := cl.SubmitCompressJob(ctx, ts, cfg, client.CompressOptions{ShardPatterns: shard})
	if err != nil {
		return nil, err
	}
	if _, err := cl.WaitJob(ctx, st.ID, poll); err != nil {
		return nil, err
	}
	return cl.JobResult(ctx, st.ID)
}

// loadInput reads the cube file, or generates a deterministic synthetic
// set (every run compresses identical input, so every response must be
// identical too).
func loadInput(path string, patterns, width int) (*lzwtc.TestSet, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return lzwtc.ReadTestSet(f)
	}
	return syntheticSet(patterns, width)
}

// syntheticSet builds patterns of 0/1/X from a fixed-seed LCG: varied
// enough to exercise the dictionary, deterministic across runs and
// processes.
func syntheticSet(patterns, width int) (*lzwtc.TestSet, error) {
	if patterns <= 0 || width <= 0 {
		return nil, fmt.Errorf("synthetic input needs positive -patterns and -width")
	}
	ts := lzwtc.NewTestSet(width)
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	line := make([]byte, width)
	for p := 0; p < patterns; p++ {
		for i := range line {
			switch next() % 4 {
			case 0:
				line[i] = '0'
			case 1:
				line[i] = '1'
			default:
				line[i] = 'X' // half don't-cares: the paper's sweet spot
			}
		}
		v, err := lzwtc.ParsePattern(string(line))
		if err != nil {
			return nil, err
		}
		if err := ts.Add(v); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// referenceContainer computes the container lzwtcd should answer with,
// through the same sharded pipeline the server runs (shard <= 0 is one
// shard).
func referenceContainer(ctx context.Context, ts *lzwtc.TestSet, cfg lzwtc.Config, shard int) ([]byte, error) {
	res, err := lzwtc.CompressSharded(ctx, ts, cfg, shard, lzwtc.BatchOptions{})
	if err != nil {
		return nil, err
	}
	return res.EncodeWire()
}

// report prints the client-side view.
func report(out *os.File, tl *tally, elapsed time.Duration, mode string) {
	ok, failed, corrupt, throttled := tl.ok.Load(), tl.failed.Load(), tl.corrupt.Load(), tl.throttled.Load()
	total := ok + failed + corrupt
	fmt.Fprintf(out, "mode:       %s\n", mode)
	fmt.Fprintf(out, "operations: %d ok, %d failed, %d corrupted (of %d)\n", ok, failed, corrupt, total)
	fmt.Fprintf(out, "throttled:  %d (429s absorbed by Retry-After backoff)\n", throttled)
	fmt.Fprintf(out, "wall clock: %.2fs (%.1f ops/s)\n", elapsed.Seconds(), float64(ok)/elapsed.Seconds())
	tl.mu.Lock()
	lat := append([]float64(nil), tl.latencies...)
	errs := append([]string(nil), tl.errs...)
	tl.mu.Unlock()
	if len(lat) > 0 {
		sort.Float64s(lat)
		fmt.Fprintf(out, "latency:    p50 %.4fs  p90 %.4fs  p99 %.4fs  max %.4fs (client-observed)\n",
			percentile(lat, 0.50), percentile(lat, 0.90), percentile(lat, 0.99), lat[len(lat)-1])
	}
	for _, e := range errs {
		fmt.Fprintf(out, "error:      %s\n", e)
	}
}

// percentile reads the q-quantile (0 < q <= 1) from sorted samples by
// nearest-rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// serverPercentiles scrapes /metrics and reports percentile estimates
// for the server-side latency histograms.
func serverPercentiles(ctx context.Context, serverURL string, retries int, out *os.File) error {
	cl := client.New(serverURL, client.Options{Retries: retries})
	text, err := cl.Metrics(ctx)
	if err != nil {
		return err
	}
	hists := parseHistograms(text)
	for _, name := range []string{"lzwtcd_request_seconds", "lzwtc_jobs_duration_seconds"} {
		h, ok := hists[name]
		if !ok || h.count == 0 {
			continue
		}
		fmt.Fprintf(out, "%s: p50 %ss  p90 %ss  p99 %ss (%d samples, server-side)\n",
			name, fmtBound(h.quantile(0.50)), fmtBound(h.quantile(0.90)), fmtBound(h.quantile(0.99)), h.count)
	}
	return nil
}

// histogram is one parsed Prometheus histogram: cumulative bucket
// counts by upper bound, in exposition order.
type histogram struct {
	bounds []float64 // +Inf last
	counts []int64   // cumulative
	count  int64
}

// quantile estimates the q-quantile as the upper bound of the first
// bucket whose cumulative count covers rank q — the standard
// histogram_quantile coarsening, biased up by at most one bucket.
func (h *histogram) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	for i, c := range h.counts {
		if c >= rank {
			return h.bounds[i]
		}
	}
	return math.Inf(1)
}

// parseHistograms extracts every histogram's bucket series from a
// Prometheus text exposition (the subset lzwtcd emits: no labels other
// than le, integer bucket counts).
func parseHistograms(text string) map[string]*histogram {
	out := map[string]*histogram{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, bound, count, ok := parseBucketLine(line)
		if ok {
			h := out[name]
			if h == nil {
				h = &histogram{}
				out[name] = h
			}
			h.bounds = append(h.bounds, bound)
			h.counts = append(h.counts, count)
			continue
		}
		if name, count, ok := parseCountLine(line); ok {
			h := out[name]
			if h == nil {
				h = &histogram{}
				out[name] = h
			}
			h.count = count
		}
	}
	return out
}

// parseBucketLine parses `name_bucket{le="0.05"} 12`.
func parseBucketLine(line string) (name string, bound float64, count int64, ok bool) {
	open := strings.Index(line, `_bucket{le="`)
	if open < 0 {
		return "", 0, 0, false
	}
	name = line[:open]
	rest := line[open+len(`_bucket{le="`):]
	close := strings.Index(rest, `"}`)
	if close < 0 {
		return "", 0, 0, false
	}
	boundStr, countStr := rest[:close], strings.TrimSpace(rest[close+2:])
	if boundStr == "+Inf" {
		bound = math.Inf(1)
	} else {
		var err error
		bound, err = strconv.ParseFloat(boundStr, 64)
		if err != nil {
			return "", 0, 0, false
		}
	}
	count, err := strconv.ParseInt(countStr, 10, 64)
	if err != nil {
		return "", 0, 0, false
	}
	return name, bound, count, true
}

// parseCountLine parses `name_count 20`.
func parseCountLine(line string) (name string, count int64, ok bool) {
	idx := strings.Index(line, "_count ")
	if idx < 0 {
		return "", 0, false
	}
	name = line[:idx]
	if strings.ContainsAny(name, " {") {
		return "", 0, false
	}
	count, err := strconv.ParseInt(strings.TrimSpace(line[idx+len("_count "):]), 10, 64)
	if err != nil {
		return "", 0, false
	}
	return name, count, true
}

// fmtBound renders a bucket bound, keeping +Inf readable.
func fmtBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

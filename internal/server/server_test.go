// End-to-end tests: a real lzwtcd service (httptest or a drained
// net.Listener) driven through the client package over the committed
// conformance corpus. The package is server_test because the client
// imports internal/server for the API constants.
package server_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lzwtc"
	"lzwtc/client"
	"lzwtc/internal/server"
)

// corpusCases mirrors the conformance corpus table: every committed
// .cubes file with the Config it is compressed under.
func corpusCases() map[string]lzwtc.Config {
	return map[string]lzwtc.Config{
		"cc2-minimal-dict":       {CharBits: 2, DictSize: 4, EntryBits: 8, Full: lzwtc.FullReset},
		"cc2-reset":              {CharBits: 2, DictSize: 32, EntryBits: 8, Full: lzwtc.FullReset},
		"cc2-freeze":             {CharBits: 2, DictSize: 32, EntryBits: 8},
		"cc4-freeze":             {CharBits: 4, DictSize: 128, EntryBits: 16},
		"cc4-reset":              {CharBits: 4, DictSize: 128, EntryBits: 16, Full: lzwtc.FullReset},
		"cc4-edge-dict":          {CharBits: 4, DictSize: 16, EntryBits: 16},
		"cc8-default":            {CharBits: 8, DictSize: 1024, EntryBits: 64},
		"cc8-edge-dict":          {CharBits: 8, DictSize: 256, EntryBits: 64, Full: lzwtc.FullReset},
		"all-x":                  {CharBits: 4, DictSize: 64, EntryBits: 16},
		"no-x":                   {CharBits: 4, DictSize: 64, EntryBits: 16},
		"fill-one-tie-newest":    {CharBits: 4, DictSize: 64, EntryBits: 16, Fill: lzwtc.FillOne, Tie: lzwtc.TieNewest},
		"fill-repeat-tie-widest": {CharBits: 4, DictSize: 64, EntryBits: 16, Fill: lzwtc.FillRepeat, Tie: lzwtc.TieWidest},
		"unaligned-width":        {CharBits: 8, DictSize: 512, EntryBits: 32},
		"paper-slice":            {CharBits: 7, DictSize: 1024, EntryBits: 63},
	}
}

func readCorpusSet(t *testing.T, name string) *lzwtc.TestSet {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "conformance", name+".cubes")
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ts, err := lzwtc.ReadTestSet(f)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// startService hosts a fresh server on httptest and returns a client
// for it.
func startService(t *testing.T, cfg server.Config) (*client.Client, *server.Server) {
	t.Helper()
	srv := server.New(cfg)
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return client.New(hs.URL, client.Options{Retries: 0}), srv
}

// TestServiceConformanceE2E round-trips every conformance case through
// a hosted service: the remote container must be byte-identical to an
// in-process Compress+EncodeWire, and the remote decompression must be
// byte-identical to the in-process one.
func TestServiceConformanceE2E(t *testing.T) {
	c, _ := startService(t, server.Config{})
	ctx := context.Background()
	for name, cfg := range corpusCases() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			ts := readCorpusSet(t, name)

			container, err := c.Compress(ctx, ts, cfg, client.CompressOptions{})
			if err != nil {
				t.Fatalf("remote compress: %v", err)
			}
			res, err := lzwtc.Compress(ts, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := res.EncodeWire()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(container, want) {
				t.Fatalf("remote container differs from in-process Compress (%d vs %d bytes)",
					len(container), len(want))
			}

			remoteSet, err := c.Decompress(ctx, container)
			if err != nil {
				t.Fatalf("remote decompress: %v", err)
			}
			localSet, err := lzwtc.Decompress(res)
			if err != nil {
				t.Fatal(err)
			}
			var rb, lb bytes.Buffer
			if err := remoteSet.WriteCubes(&rb); err != nil {
				t.Fatal(err)
			}
			if err := localSet.WriteCubes(&lb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rb.Bytes(), lb.Bytes()) {
				t.Fatal("remote decompression differs from in-process Decompress")
			}
		})
	}
}

// TestServiceShardedE2E pins the sharded path: the remote container is
// byte-identical to the in-process sharded pipeline and decompresses to
// the same set.
func TestServiceShardedE2E(t *testing.T) {
	c, _ := startService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc4-reset")
	cfg := corpusCases()["cc4-reset"]

	container, err := c.Compress(ctx, ts, cfg, client.CompressOptions{ShardPatterns: 4})
	if err != nil {
		t.Fatal(err)
	}
	sr, err := lzwtc.CompressSharded(ctx, ts, cfg, 4, lzwtc.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := lzwtc.WriteWireSharded(&want, sr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(container, want.Bytes()) {
		t.Fatalf("remote sharded container differs (%d vs %d bytes)", len(container), want.Len())
	}
	back, err := c.Decompress(ctx, container)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cubes) != len(ts.Cubes) || back.Width != ts.Width {
		t.Fatalf("sharded round trip geometry: got %dx%d, want %dx%d",
			len(back.Cubes), back.Width, len(ts.Cubes), ts.Width)
	}
}

// TestServiceRejectsOversizedBody pins the 413 path end to end.
func TestServiceRejectsOversizedBody(t *testing.T) {
	c, _ := startService(t, server.Config{MaxBodyBytes: 64})
	ts := readCorpusSet(t, "cc8-default")
	_, err := c.Compress(context.Background(), ts, corpusCases()["cc8-default"], client.CompressOptions{})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.Status != http.StatusRequestEntityTooLarge || apiErr.Code != server.CodeBodyTooLarge {
		t.Fatalf("want 413 %s, got %d %s", server.CodeBodyTooLarge, apiErr.Status, apiErr.Code)
	}
}

// TestServiceRequestTimeout pins the 408 path: an already-expired
// request deadline surfaces as a structured timeout error.
func TestServiceRequestTimeout(t *testing.T) {
	c, _ := startService(t, server.Config{RequestTimeout: time.Nanosecond})
	ts := readCorpusSet(t, "cc4-freeze")
	_, err := c.Compress(context.Background(), ts, corpusCases()["cc4-freeze"], client.CompressOptions{})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.Status != http.StatusRequestTimeout || apiErr.Code != server.CodeTimeout {
		t.Fatalf("want 408 %s, got %d %s", server.CodeTimeout, apiErr.Status, apiErr.Code)
	}
}

// TestServiceClientCancellation: a canceled context aborts the call
// with context.Canceled, not a hang or a mangled response.
func TestServiceClientCancellation(t *testing.T) {
	c, _ := startService(t, server.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ts := readCorpusSet(t, "cc4-freeze")
	_, err := c.Compress(ctx, ts, corpusCases()["cc4-freeze"], client.CompressOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestServiceBadRequests pins the structured 400/404/405 envelopes.
func TestServiceBadRequests(t *testing.T) {
	c, srv := startService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc2-freeze")

	if _, err := c.Compress(ctx, ts, lzwtc.Config{CharBits: 99, DictSize: 4}, client.CompressOptions{}); err == nil {
		t.Fatal("invalid config accepted")
	}

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + server.PathCompress)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET compress: want 405, got %d", resp.StatusCode)
	}
	resp, err = http.Get(hs.URL + "/no/such/path")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("want 404, got %d", resp.StatusCode)
	}

	// Corrupt container -> structured 400, not a crash.
	if _, err := c.Decompress(ctx, []byte("not a container")); err == nil {
		t.Fatal("corrupt container accepted")
	}
}

// TestServiceStatsAndMetrics drives known traffic and asserts the
// counters observable over /v1/stats and /metrics match it.
func TestServiceStatsAndMetrics(t *testing.T) {
	c, _ := startService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc2-freeze")
	cfg := corpusCases()["cc2-freeze"]

	const n = 3
	var container []byte
	for i := 0; i < n; i++ {
		var err error
		container, err = c.Compress(ctx, ts, cfg, client.CompressOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Decompress(ctx, container); err != nil {
		t.Fatal(err)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}

	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requests["compress"] != n {
		t.Fatalf("compress requests: got %d, want %d", stats.Requests["compress"], n)
	}
	if stats.Requests["decompress"] != 1 {
		t.Fatalf("decompress requests: got %d, want 1", stats.Requests["decompress"])
	}
	if stats.PatternsCompressed != int64(n*len(ts.Cubes)) {
		t.Fatalf("patterns compressed: got %d, want %d", stats.PatternsCompressed, n*len(ts.Cubes))
	}
	if stats.PatternsDecompressed != int64(len(ts.Cubes)) {
		t.Fatalf("patterns decompressed: got %d, want %d", stats.PatternsDecompressed, len(ts.Cubes))
	}
	if stats.BytesOut == 0 || stats.UptimeSeconds < 0 {
		t.Fatalf("implausible stats: %+v", stats)
	}

	metrics, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Every metric New registers must be present in the exposition: the
	// lzwtcvet metricname check cross-references this list against the
	// names the server package registers, so /metrics and dashboards
	// cannot drift apart silently.
	for _, want := range []string{
		server.MetricRequests, server.MetricErrors, server.MetricLatency,
		server.MetricInFlight, server.MetricBytesIn, server.MetricBytesOut,
		server.MetricPatternsIn, server.MetricPatternsOut,
		server.MetricCompressRequests, server.MetricDecompressRequests,
		server.MetricStatsRequests, server.MetricHealthRequests,
		server.MetricMetricsRequests, server.MetricOtherRequests,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics exposition missing %s", want)
		}
	}
}

// TestServiceRetryBackoff: the client retries gateway-class failures
// and gives up cleanly when they persist.
func TestServiceRetryBackoff(t *testing.T) {
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	var calls atomic.Int64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	})
	hs := httptest.NewServer(flaky)
	defer hs.Close()

	ts := readCorpusSet(t, "cc2-freeze")
	cfg := corpusCases()["cc2-freeze"]
	c := client.New(hs.URL, client.Options{Retries: 2, Backoff: time.Millisecond})
	if _, err := c.Compress(context.Background(), ts, cfg, client.CompressOptions{}); err != nil {
		t.Fatalf("retries exhausted too early: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("want 3 attempts, got %d", got)
	}

	calls.Store(-1000) // stay in the failing window for all attempts
	c2 := client.New(hs.URL, client.Options{Retries: 1, Backoff: time.Millisecond})
	if _, err := c2.Compress(context.Background(), ts, cfg, client.CompressOptions{}); err == nil {
		t.Fatal("persistent 503 did not surface")
	}
}

// TestServiceGracefulDrain runs Serve on a real listener, parks a
// request mid-body, cancels the serve context, and asserts the
// in-flight request still completes before Serve returns cleanly.
func TestServiceGracefulDrain(t *testing.T) {
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln, 10*time.Second) }()

	ts := readCorpusSet(t, "cc2-freeze")
	cfg := corpusCases()["cc2-freeze"]
	var cubes bytes.Buffer
	if err := ts.WriteCubes(&cubes); err != nil {
		t.Fatal(err)
	}
	body := cubes.Bytes()

	// Send the request with a body we control: first half now, second
	// half only after the drain has started, so the request is provably
	// in flight across the cancellation.
	pr, pw := io.Pipe()
	url := "http://" + ln.Addr().String() + server.PathCompress + "?" +
		server.EncodeCompressQuery(cfg, 0).Encode()
	req, err := http.NewRequest(http.MethodPost, url, pr)
	if err != nil {
		t.Fatal(err)
	}
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errCh <- err
			return
		}
		respCh <- resp
	}()
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}

	// Wait until the handler is provably in flight (the in-flight gauge
	// is set before the handler body runs; with the request body still
	// open the handler can only be parked in its body read) before
	// starting the drain.
	deadline := time.Now().Add(5 * time.Second)
	for inFlight := false; !inFlight; {
		if time.Now().After(deadline) {
			t.Fatal("request never became in-flight")
		}
		for _, g := range srv.Registry().Snapshot().Gauges {
			if g.Name == server.MetricInFlight && g.Value >= 1 {
				inFlight = true
			}
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the handler pass its draining check

	cancel() // drain starts with the request parked mid-body
	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned with a request in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}

	select {
	case err := <-errCh:
		t.Fatalf("in-flight request failed during drain: %v", err)
	case resp := <-respCh:
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("in-flight request status %d during drain", resp.StatusCode)
		}
		container, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		res, err := lzwtc.Compress(ts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := res.EncodeWire()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(container, want) {
			t.Fatal("container served during drain differs from in-process result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request did not complete during drain")
	}

	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve did not drain cleanly: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}

	// The listener is closed: new connections must be refused.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after drain")
	}

	// The drain marker gauge must have been exported the moment the
	// drain began.
	drained := false
	for _, g := range srv.Registry().Snapshot().Gauges {
		if g.Name == server.MetricDrainStarted && g.Value == 1 {
			drained = true
		}
	}
	if !drained {
		t.Fatalf("%s gauge not set after drain", server.MetricDrainStarted)
	}
}

// decompressBody posts a container to the decompress endpoint of a
// hosted handler and returns the response with its body read in full.
func decompressBody(t *testing.T, url string, container []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+server.PathDecompress, "application/octet-stream", bytes.NewReader(container))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestServiceDecompressContentLength: the decompress response declares
// its exact size, (Width+1) bytes per pattern, and is not chunked.
func TestServiceDecompressContentLength(t *testing.T) {
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	for _, ts := range []*lzwtc.TestSet{readCorpusSet(t, "cc8-default"), bigSet(t, 700, 214)} {
		res, err := lzwtc.Compress(ts, lzwtc.Config{CharBits: 7, DictSize: 1024, EntryBits: 63})
		if err != nil {
			t.Fatal(err)
		}
		container, err := res.EncodeWire()
		if err != nil {
			t.Fatal(err)
		}
		resp, body := decompressBody(t, hs.URL, container)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		want := (ts.Width + 1) * len(ts.Cubes)
		if resp.Header.Get("Content-Length") != strconv.Itoa(len(body)) || resp.ContentLength != int64(len(body)) || len(body) != want {
			t.Fatalf("Content-Length %q (%d), body %d bytes, want %d", resp.Header.Get("Content-Length"), resp.ContentLength, len(body), want)
		}
		if len(resp.TransferEncoding) != 0 {
			t.Fatalf("body transfer-encoded %v despite a known length", resp.TransferEncoding)
		}
		got, err := lzwtc.ReadTestSet(bytes.NewReader(body))
		if err != nil || len(got.Cubes) != len(ts.Cubes) {
			t.Fatalf("body does not parse back to %d patterns: %v", len(ts.Cubes), err)
		}
	}
}

// failAfterFirstWrite passes the first body Write through and fails
// every later one, as a connection that breaks mid-body would.
type failAfterFirstWrite struct {
	http.ResponseWriter
	writes int
}

func (w *failAfterFirstWrite) Write(p []byte) (int, error) {
	if w.writes++; w.writes > 1 {
		return 0, errors.New("connection broke")
	}
	return w.ResponseWriter.Write(p)
}

// TestServiceDecompressWriteFailureIsAnError: when the server's write
// fails part-way through a multi-block planes reply, the client gets an
// error, not the shorter test set that arrived before the failure. The
// set's planes span three blocks (256 bytes per cube, 256 cubes per
// frame), so the cut falls after the first whole frame and only the
// declared length exposes the loss.
func TestServiceDecompressWriteFailureIsAnError(t *testing.T) {
	url := startFailingService(t)
	ts := bigSet(t, 700, 1024) // 175 KiB of planes: three blocks
	c := client.New(url, client.Options{Retries: 0})
	got, err := c.Decompress(context.Background(), containerOf(t, ts))
	if err == nil {
		t.Fatalf("truncated body accepted as a %d-pattern set (sent %d)", len(got.Cubes), len(ts.Cubes))
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestServiceDecompressTextWriteFailureIsAnError is the text reply's
// form of the same guarantee, over raw HTTP without Accept as curl
// sends it. Lines of 256 bytes make the cut fall on a line boundary,
// so the text that did arrive parses cleanly and only the declared
// length exposes the loss.
func TestServiceDecompressTextWriteFailureIsAnError(t *testing.T) {
	url := startFailingService(t)
	ts := bigSet(t, 700, 255) // 175 KiB of text: three blocks
	resp, err := http.Post(url+server.PathDecompress, "application/octet-stream", bytes.NewReader(containerOf(t, ts)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("reply without Accept has Content-Type %q, want text", ct)
	}
	if body, err := io.ReadAll(resp.Body); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read %d of %d bytes with %v, want io.ErrUnexpectedEOF", len(body), resp.ContentLength, err)
	}
}

// startFailingService hosts a service whose response writer fails
// after the first body Write, and returns its URL.
func startFailingService(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{})
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(&failAfterFirstWrite{ResponseWriter: w}, r)
	}))
	t.Cleanup(hs.Close)
	return hs.URL
}

// containerOf compresses ts under the paper's configuration into a
// wire container.
func containerOf(t *testing.T, ts *lzwtc.TestSet) []byte {
	t.Helper()
	res, err := lzwtc.Compress(ts, lzwtc.Config{CharBits: 7, DictSize: 1024, EntryBits: 63})
	if err != nil {
		t.Fatal(err)
	}
	container, err := res.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	return container
}

// Tracing, SLO accounting, request-ID echo and introspection-endpoint
// tests: the observability surface the client and dashboards contract
// on, driven end to end through a hosted service.
package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lzwtc"
	"lzwtc/client"
	"lzwtc/internal/core"
	"lzwtc/internal/jobs"
	"lzwtc/internal/parallel"
	"lzwtc/internal/server"
	"lzwtc/internal/telemetry"
)

// traceCapture collects client-side span records concurrently.
type traceCapture struct {
	mu    sync.Mutex
	spans []telemetry.SpanRecord
}

func (c *traceCapture) Emit(ev telemetry.Event) {
	if rec, ok := telemetry.SpanRecordFromEvent(ev); ok {
		c.mu.Lock()
		c.spans = append(c.spans, rec)
		c.mu.Unlock()
	}
}

func (c *traceCapture) snapshot() []telemetry.SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]telemetry.SpanRecord(nil), c.spans...)
}

// startTracedService hosts a service and returns a traced client, the
// client-side capture, the server, and the base URL for raw requests.
func startTracedService(t *testing.T, cfg server.Config) (*client.Client, *traceCapture, *server.Server, string) {
	t.Helper()
	srv := server.New(cfg)
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	cap := &traceCapture{}
	rec := telemetry.New(telemetry.NewRegistry(), cap)
	return client.New(hs.URL, client.Options{Retries: 0, Recorder: rec}), cap, srv, hs.URL
}

// serverSpans drains the server ring buffer into a flat record list,
// waiting briefly: the handler's span ends in a deferred func that can
// still be running when the client has the full response.
func serverSpans(t *testing.T, srv *server.Server, want int) []telemetry.SpanRecord {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var out []telemetry.SpanRecord
		for _, tr := range srv.Traces().Recent(100) {
			out = append(out, tr.Spans...)
		}
		if len(out) >= want || time.Now().After(deadline) {
			return out
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestServiceEndToEndTrace is the acceptance path: one remote compress
// through an instrumented client yields ONE trace whose tree spans the
// client request, the server handler, the pool job, and the core
// phases.
func TestServiceEndToEndTrace(t *testing.T) {
	c, cap, srv, _ := startTracedService(t, server.Config{})
	ctx := telemetry.ContextWithRequestID(context.Background(), "trace-e2e-1")
	ts := readCorpusSet(t, "cc4-freeze")
	cfg := corpusCases()["cc4-freeze"]

	container, err := c.Compress(ctx, ts, cfg, client.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}

	recs := append(cap.snapshot(), serverSpans(t, srv, 5)...)
	traces := telemetry.CollectTraces(recs)
	if len(traces) != 1 {
		ids := make([]string, 0, len(traces))
		for _, tr := range traces {
			ids = append(ids, tr.TraceID)
		}
		t.Fatalf("client+server spans split into %d traces (%v), want 1", len(traces), ids)
	}
	tr := traces[0]
	spans := tr.Spans()
	if len(spans) < 6 {
		t.Fatalf("trace has %d spans, want >= 6: %+v", len(spans), names(spans))
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != client.SpanClientRequest {
		t.Fatalf("trace root = %+v, want single %s root", names(tr.Roots), client.SpanClientRequest)
	}
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
	}
	for _, want := range []string{
		client.SpanClientRequest, server.SpanCompress, server.SpanReadBody,
		parallel.EventJob, core.SpanDictBuild,
		core.SpanMatchLoop, lzwtc.SpanWireEncode,
	} {
		if byName[want] == 0 {
			t.Fatalf("trace missing %q span; got %v", want, names(spans))
		}
	}
	// The request ID travels with the trace: every server-side span is
	// stamped with the ID the client supplied.
	for _, s := range spans {
		if s.Process == "lzwtcd" && s.RequestID != "trace-e2e-1" {
			t.Fatalf("server span %s carries request_id %q, want trace-e2e-1", s.Name, s.RequestID)
		}
	}
	// The critical path descends from the client request into the
	// server handler.
	path := tr.CriticalPath()
	if len(path) < 2 || path[0].Name != client.SpanClientRequest || path[1].Name != server.SpanCompress {
		t.Fatalf("critical path = %v", names(path))
	}

	// Decompress joins its own trace through the server span too.
	if _, err := c.Decompress(context.Background(), container); err != nil {
		t.Fatal(err)
	}
	// The reply render is its own span, nested in the handler's, which
	// ends last.
	var decompressID string
	var writeParent []string
	for deadline := time.Now().Add(2 * time.Second); decompressID == "" && time.Now().Before(deadline); {
		writeParent = nil
		for _, s := range serverSpans(t, srv, 0) {
			switch s.Name {
			case server.SpanDecompress:
				decompressID = s.SpanID
			case server.SpanWriteBody:
				writeParent = append(writeParent, s.ParentID)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	if decompressID == "" {
		t.Fatalf("no %s span after remote decompress", server.SpanDecompress)
	}
	if len(writeParent) != 1 || writeParent[0] != decompressID {
		t.Fatalf("%s spans with parents %v, want one under %s %s", server.SpanWriteBody, writeParent, server.SpanDecompress, decompressID)
	}
}

// TestCompressPathsUniform: the sync endpoint and the job tier share
// one compress→wire path, so every mix of sharding and dictionary
// answers X-Lzwtc-Shards and records a wire.encode span carrying the
// frame count. The sync reply carries the full header set; the dict
// key header appears exactly when a dictionary was named.
func TestCompressPathsUniform(t *testing.T) {
	c, _, srv, base := startTracedService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc4-freeze")
	cfg := corpusCases()["cc4-freeze"]
	var text bytes.Buffer
	if err := ts.WriteCubes(&text); err != nil {
		t.Fatal(err)
	}
	info, err := c.TrainDict(ctx, ts, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	send := func(method, url, reqID string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(server.HeaderRequestID, reqID)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	for _, tc := range []struct {
		name  string
		shard int
		dict  bool
	}{{"plain", 0, false}, {"sharded", 5, false}, {"dict", 0, true}, {"dict-sharded", 5, true}} {
		wantShards := "1"
		if tc.shard > 0 {
			wantShards = strconv.Itoa((len(ts.Cubes) + tc.shard - 1) / tc.shard)
		}
		q := server.EncodeCompressQuery(cfg, tc.shard)
		if tc.dict {
			q.Set(server.ParamDictID, info.Key)
		}
		for _, async := range []bool{false, true} {
			reqID := fmt.Sprintf("uniform-%s-%t", tc.name, async)
			var resp *http.Response
			if async {
				sub := send(http.MethodPost, base+server.PathJobsCompress+"?"+q.Encode(), reqID, text.Bytes())
				var st server.JobStatusResponse
				if err := json.NewDecoder(sub.Body).Decode(&st); err != nil {
					t.Fatalf("%s: submit: %v", reqID, err)
				}
				waitJobFast(t, c, st.ID)
				resp = send(http.MethodGet, base+server.PathJobs+st.ID+server.JobResultSuffix, reqID+"-result", nil)
			} else {
				resp = send(http.MethodPost, base+server.PathCompress+"?"+q.Encode(), reqID, text.Bytes())
				for _, h := range []string{server.HeaderPatterns, server.HeaderWidth, server.HeaderRatio} {
					if resp.Header.Get(h) == "" {
						t.Fatalf("%s: reply lacks %s", reqID, h)
					}
				}
				if got, want := resp.Header.Get(server.HeaderDictKey) != "", tc.dict; got != want {
					t.Fatalf("%s: %s present = %v, want %v", reqID, server.HeaderDictKey, got, want)
				}
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", reqID, resp.StatusCode)
			}
			if got := resp.Header.Get(server.HeaderShards); got != wantShards {
				t.Fatalf("%s: %s = %q, want %s", reqID, server.HeaderShards, got, wantShards)
			}
			if frames := wireEncodeFrames(t, srv, reqID); frames != wantShards {
				t.Fatalf("%s: wire.encode span frames = %q, want %s", reqID, frames, wantShards)
			}
		}
	}
}

// wireEncodeFrames waits for the wire.encode span stamped with reqID
// and returns its frames attribute.
func wireEncodeFrames(t *testing.T, srv *server.Server, reqID string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, tr := range srv.Traces().Recent(100) {
			for _, sp := range tr.Spans {
				if sp.Name == lzwtc.SpanWireEncode && sp.RequestID == reqID {
					return sp.Attrs["frames"]
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no %s span for request %s", lzwtc.SpanWireEncode, reqID)
	return ""
}

func names(spans []*telemetry.SpanNode) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// TestServiceSLOAccounting drives success and failure traffic through
// both data-plane endpoints and pins every SLO histogram series —
// first-byte and completion, per outcome — to exact counts.
func TestServiceSLOAccounting(t *testing.T) {
	c, _, srv, base := startTracedService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc2-freeze")
	cfg := corpusCases()["cc2-freeze"]

	var container []byte
	for i := 0; i < 2; i++ {
		var err error
		container, err = c.Compress(ctx, ts, cfg, client.CompressOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Decompress(ctx, container); err != nil {
		t.Fatal(err)
	}
	// One failed compress: an invalid geometry rejected at parse time.
	resp, err := http.Post(base+server.PathCompress+"?char=99", "text/plain", strings.NewReader("01\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad compress: status %d, want 400", resp.StatusCode)
	}
	// One failed decompress: garbage container.
	if _, err := c.Decompress(ctx, []byte("not a container")); err == nil {
		t.Fatal("garbage decompress succeeded")
	}

	snap := srv.Registry().Snapshot()
	for name, want := range map[string]int64{
		server.MetricSLOCompressFirstByteOK:    2,
		server.MetricSLOCompressDoneOK:         2,
		server.MetricSLOCompressFirstByteErr:   1,
		server.MetricSLOCompressDoneErr:        1,
		server.MetricSLODecompressFirstByteOK:  1,
		server.MetricSLODecompressDoneOK:       1,
		server.MetricSLODecompressFirstByteErr: 1,
		server.MetricSLODecompressDoneErr:      1,
	} {
		h, ok := snap.HistogramNamed(name)
		if !ok {
			t.Fatalf("SLO histogram %s not registered", name)
		}
		if h.Count != want {
			t.Fatalf("%s count = %d, want %d", name, h.Count, want)
		}
	}

	// The trace endpoint has its own request counter.
	tresp, err := http.Get(base + server.PathTraceRecent)
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	var traceReqs int64 = -1
	for _, cs := range srv.Registry().Snapshot().Counters {
		if cs.Name == server.MetricTraceRequests {
			traceReqs = cs.Value
		}
	}
	if traceReqs != 1 {
		t.Fatalf("%s = %d, want 1", server.MetricTraceRequests, traceReqs)
	}
}

// TestServiceRequestIDEcho: a well-formed caller ID is echoed
// verbatim; a malformed one is replaced with a server-assigned ID; the
// error envelope carries the ID either way.
func TestServiceRequestIDEcho(t *testing.T) {
	_, _, _, base := startTracedService(t, server.Config{})

	get := func(id string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, base+server.PathHealth, nil)
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(server.HeaderRequestID, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if got := get("req_A-1.z").Header.Get(server.HeaderRequestID); got != "req_A-1.z" {
		t.Fatalf("valid request ID echoed as %q", got)
	}
	for _, bad := range []string{"has space", "semi;colon", strings.Repeat("x", 65)} {
		got := get(bad).Header.Get(server.HeaderRequestID)
		if got == bad || len(got) != 16 {
			t.Fatalf("malformed ID %q answered with %q, want a fresh 16-hex ID", bad, got)
		}
	}
	if got := get("").Header.Get(server.HeaderRequestID); len(got) != 16 {
		t.Fatalf("absent ID answered with %q, want a generated one", got)
	}

	// Error envelopes carry the request ID, so a failing request can be
	// joined to its server-side trace from the error alone.
	req, err := http.NewRequest(http.MethodPost, base+server.PathDecompress, strings.NewReader("junk"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(server.HeaderRequestID, "fail-join-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope server.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if envelope.Error.RequestID != "fail-join-1" {
		t.Fatalf("error envelope request_id = %q, want fail-join-1", envelope.Error.RequestID)
	}
}

// TestServiceTraceRecentEndpoint pins the introspection endpoint's
// contract: bounds-checked ?n, GET only, and content that names the
// server spans.
func TestServiceTraceRecentEndpoint(t *testing.T) {
	c, _, srv, base := startTracedService(t, server.Config{TraceCapacity: 8})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc2-freeze")
	if _, err := c.Compress(ctx, ts, corpusCases()["cc2-freeze"], client.CompressOptions{}); err != nil {
		t.Fatal(err)
	}
	serverSpans(t, srv, 1)

	for _, q := range []string{"?n=0", "?n=-3", "?n=1001", "?n=x"} {
		resp, err := http.Get(base + server.PathTraceRecent + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s: status %d, want 400", q, resp.StatusCode)
		}
	}
	resp, err := http.Post(base+server.PathTraceRecent, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", resp.StatusCode)
	}

	decode := func(resp *http.Response) server.TraceRecentResponse {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var doc server.TraceRecentResponse
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}
	resp, err = http.Get(base + server.PathTraceRecent + "?n=5")
	if err != nil {
		t.Fatal(err)
	}
	doc := decode(resp)
	if len(doc.Traces) == 0 {
		t.Fatal("no traces in ring buffer after a compress")
	}
	var found bool
	for _, s := range doc.Traces[0].Spans {
		if s.Name == server.SpanCompress {
			found = true
		}
	}
	if !found {
		t.Fatalf("newest trace has no %s span: %+v", server.SpanCompress, doc.Traces[0])
	}

	// The standalone handler (debug listener mount) serves the same
	// document.
	rw := httptest.NewRecorder()
	srv.TraceHandler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, server.PathTraceRecent, nil))
	if rw.Code != http.StatusOK {
		t.Fatalf("standalone trace handler: status %d", rw.Code)
	}
	var standalone server.TraceRecentResponse
	if err := json.Unmarshal(rw.Body.Bytes(), &standalone); err != nil {
		t.Fatal(err)
	}
	if len(standalone.Traces) != len(doc.Traces) {
		t.Fatalf("standalone handler returned %d traces, mux returned %d", len(standalone.Traces), len(doc.Traces))
	}
}

// jsonKeys returns the JSON field names of a struct type, with
// options (",omitempty") stripped.
func jsonKeys(t reflect.Type) map[string]bool {
	keys := map[string]bool{}
	for i := 0; i < t.NumField(); i++ {
		tag := t.Field(i).Tag.Get("json")
		if tag == "" || tag == "-" {
			continue
		}
		keys[strings.SplitN(tag, ",", 2)[0]] = true
	}
	return keys
}

// TestStatsArenaKeyParity pins the /v1/stats dict-arena keys to the
// CompressRecord keys from `lzwtc stats` run records: scripts join the
// two views by name, so the names must not drift apart.
func TestStatsArenaKeyParity(t *testing.T) {
	arenaKeys := []string{"dict_pool_recycles", "dict_pool_misses"}
	statsKeys := jsonKeys(reflect.TypeOf(server.StatsResponse{}))
	recordKeys := jsonKeys(reflect.TypeOf(lzwtc.CompressRecord{}))
	for _, k := range arenaKeys {
		if !statsKeys[k] {
			t.Errorf("StatsResponse lost arena key %q", k)
		}
		if !recordKeys[k] {
			t.Errorf("CompressRecord lost arena key %q", k)
		}
	}

	// And the live values move: the first request warms the arena
	// (misses), repeats recycle it.
	c, _, _, _ := startTracedService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc2-freeze")
	cfg := corpusCases()["cc2-freeze"]
	for i := 0; i < 3; i++ {
		if _, err := c.Compress(ctx, ts, cfg, client.CompressOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// The dict arena is a process-global sync.Pool, so whether the
	// first acquire misses depends on what earlier tests left behind;
	// the acquire total and the repeat-recycles do not.
	if total := stats.DictPoolRecycles + stats.DictPoolMisses; total < 3 {
		t.Fatalf("arena acquires = %d after 3 compresses, want >= 3", total)
	}
	if stats.DictPoolRecycles < 1 {
		t.Fatalf("dict_pool_recycles = %d after repeated compresses, want >= 1", stats.DictPoolRecycles)
	}
}

// lockedBuffer is an io.Writer safe to read while the server writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestConfigSinksGetNoStepEvents: a JSONL sink in Config.Sinks (what
// lzwtcd -telemetry-out installs) gets the trace spans and run records
// of a compress, a job and a decompress, and not one per-step event,
// which would be rendered per character under the recorder's lock.
func TestConfigSinksGetNoStepEvents(t *testing.T) {
	var out lockedBuffer
	c, _ := startService(t, server.Config{Sinks: []telemetry.Sink{telemetry.NewJSONLSink(&out)}})
	ctx := context.Background()
	ts := readCorpusSet(t, "paper-slice")
	cfg := corpusCases()["paper-slice"]
	container, err := c.Compress(ctx, ts, cfg, client.CompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CompressJob(ctx, ts, cfg, client.CompressOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(ctx, container); err != nil {
		t.Fatal(err)
	}

	// Handler spans end in deferred funcs that may still be running when
	// the client has its response, so wait for the last ones briefly.
	wantSpans := []string{server.SpanCompress, server.SpanJobSubmit, jobs.SpanJobRun,
		server.SpanDecompress, core.SpanMatchLoop, core.SpanDecode}
	deadline := time.Now().Add(2 * time.Second)
	for {
		kinds := map[string]int{}
		spans := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
			var ev struct {
				Kind string `json:"kind"`
				Name string `json:"name"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("sink line is not JSON: %v\n%s", err, line)
			}
			kinds[ev.Kind]++
			if ev.Kind == telemetry.EventTraceSpan {
				spans[ev.Name] = true
			}
		}
		if n := kinds[core.EventCompressStep] + kinds[core.EventDecompressStep]; n != 0 {
			t.Fatalf("sink got %d step events (kinds %v); Config.Sinks must get none", n, kinds)
		}
		var missing []string
		for _, name := range wantSpans {
			if !spans[name] {
				missing = append(missing, name)
			}
		}
		if len(missing) == 0 && kinds[core.EventCompressRun] >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink is missing spans %v or run records (kinds %v)", missing, kinds)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

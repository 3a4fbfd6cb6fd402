package parallel

import (
	"context"
	"sync"
	"testing"

	"lzwtc/internal/core"
	"lzwtc/internal/telemetry"
)

// spanCapture is a threadsafe sink collecting decoded span records;
// pool workers emit concurrently.
type spanCapture struct {
	mu    sync.Mutex
	spans []telemetry.SpanRecord
}

func (c *spanCapture) Emit(ev telemetry.Event) {
	if rec, ok := telemetry.SpanRecordFromEvent(ev); ok {
		c.mu.Lock()
		c.spans = append(c.spans, rec)
		c.mu.Unlock()
	}
}

// TestBatchTraceLinkage: every pool job span and the core phases inside
// it must join the request trace carried by ctx — one batch, one trace.
func TestBatchTraceLinkage(t *testing.T) {
	cap := &spanCapture{}
	rec := telemetry.New(telemetry.NewRegistry(), cap)
	ctx, root := rec.StartSpan(context.Background(), "test.batch")

	jobs := testJobs()
	if _, err := CompressJobs(ctx, jobs, Options{Workers: 4, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	root.End()

	rootSC := root.Context()
	byName := map[string][]telemetry.SpanRecord{}
	spanParent := map[string]string{}
	for _, s := range cap.spans {
		if s.TraceID != rootSC.String()[:16] {
			t.Fatalf("span %s in trace %s, want %s", s.Name, s.TraceID, rootSC.String()[:16])
		}
		byName[s.Name] = append(byName[s.Name], s)
		spanParent[s.SpanID] = s.ParentID
	}

	jobSpans := byName[EventJob]
	if len(jobSpans) != len(jobs) {
		t.Fatalf("%q spans = %d, want %d", EventJob, len(jobSpans), len(jobs))
	}
	rootID := rootSC.String()[17:]
	jobIDs := map[string]bool{}
	for _, js := range jobSpans {
		if js.ParentID != rootID {
			t.Fatalf("job span parent %s, want batch root %s", js.ParentID, rootID)
		}
		if js.Attrs["status"] != "ok" {
			t.Fatalf("job span status = %q: %+v", js.Attrs["status"], js)
		}
		jobIDs[js.SpanID] = true
	}

	// Each job compresses straight from its cube set: one match loop per
	// job, and no serialization span.
	if n := len(byName[core.SpanMatchLoop]); n != len(jobs) {
		t.Fatalf("%q spans = %d, want %d", core.SpanMatchLoop, n, len(jobs))
	}
	if n := len(byName[core.SpanSerialize]); n != 0 {
		t.Fatalf("%q spans = %d, want none", core.SpanSerialize, n)
	}
	// Core phases nest beneath the job spans too — the trace descends
	// through the pool into the compression core.
	for _, name := range []string{core.SpanDictBuild, core.SpanMatchLoop} {
		for _, ps := range byName[name] {
			if !jobIDs[ps.ParentID] {
				t.Fatalf("%s span parented on %s, not on any job span", name, ps.ParentID)
			}
		}
		if len(byName[name]) == 0 {
			t.Fatalf("no %s spans recorded", name)
		}
	}
}

// TestShardedTraceLinkage: sharded compression runs one match loop per
// shard; those spans must also join the caller's trace.
func TestShardedTraceLinkage(t *testing.T) {
	cap := &spanCapture{}
	rec := telemetry.New(telemetry.NewRegistry(), cap)
	ctx, root := rec.StartSpan(context.Background(), "test.shard")

	cs := testSet(9, 40, 61, 0.8)
	cfg := core.Config{CharBits: 4, DictSize: 64, EntryBits: 16}
	if _, _, err := CompressShardedPreloaded(ctx, cs, cfg, nil, 10, Options{Workers: 2, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	root.End()

	trace := root.Context().String()[:16]
	var loops int
	for _, s := range cap.spans {
		if s.TraceID != trace {
			t.Fatalf("span %s escaped the trace: %s != %s", s.Name, s.TraceID, trace)
		}
		if s.Name == core.SpanMatchLoop {
			loops++
		}
	}
	if loops < 2 {
		t.Fatalf("sharded run produced %d match-loop spans, want one per shard (>=2)", loops)
	}
}

package telemetry

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s missing (run go test ./internal/telemetry -update): %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// goldenEvents drives a deterministic event sequence shaped like a real
// run: a compress run record, a per-pattern decomp record, and a
// decompressor step.
func goldenEvents(s Sink) {
	rec := NewWithClock(nil, fakeClock(1500*time.Microsecond), s)
	rec.Emit("compress.run",
		F("empty", false),
		F("ratio", 0.8069),
		F("codes", 1024),
		F("policy", "freeze"),
	)
	rec.Emit("decomp.pattern", F("index", 0), F("internal_cycles", 733))
	rec.Emit("decompress.step", F("step", 4), F("special", true))
	rec.Emit("compress.run", F("empty", true))
}

func TestJSONLSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	goldenEvents(s)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	// Every line must be valid JSON before golden comparison.
	for i, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var v map[string]any
		if err := json.Unmarshal(line, &v); err != nil {
			t.Fatalf("line %d not valid JSON: %v\n%s", i, err, line)
		}
	}
	checkGolden(t, "events.jsonl.golden", buf.Bytes())
}

func TestTextSinkGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewTextSink(&buf)
	goldenEvents(s)
	if s.Err() != nil {
		t.Fatal(s.Err())
	}
	checkGolden(t, "events.text.golden", buf.Bytes())
}

// goldenRegistry builds a small registry resembling a compress+decomp
// run for the exposition goldens.
func goldenRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("lzwtc_compress_codes_total", "codes emitted").Add(1024)
	reg.Counter("lzwtc_compress_dict_resets_total", "FullReset occurrences").Add(2)
	reg.Gauge("lzwtc_decomp_utilization", "shift cycles / internal cycles").Set(0.492)
	h := reg.Histogram("lzwtc_compress_match_len_chars", "emitted string length in characters", []float64{1, 2, 4, 8})
	for _, v := range []float64{1, 1, 2, 3, 5, 9} {
		h.Observe(v)
	}
	return reg
}

func TestPrometheusExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom.golden", buf.Bytes())
}

func TestTextExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.text.golden", buf.Bytes())
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	b, err := json.Marshal(goldenRegistry().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var v map[string]any
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v\n%s", err, b)
	}
	// The +Inf bucket must have survived as the string "+Inf".
	if !bytes.Contains(b, []byte(`"le":"+Inf"`)) {
		t.Fatalf("snapshot JSON missing +Inf bucket: %s", b)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, os.ErrClosed
}

func TestSinkWriteErrorsCaptured(t *testing.T) {
	fw := &failWriter{}
	s := NewJSONLSink(fw)
	s.Emit(Event{Kind: "a"})
	s.Emit(Event{Kind: "b"})
	if s.Err() == nil {
		t.Fatal("write error not captured")
	}
	if fw.n != 1 {
		t.Fatalf("sink kept writing after error: %d writes", fw.n)
	}
}

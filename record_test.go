package lzwtc

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"lzwtc/internal/telemetry"
)

func recordTestSet(t *testing.T) *TestSet {
	t.Helper()
	ts := NewTestSet(8)
	for _, s := range []string{"01XX10XX", "X1XX10X0", "0XXX1XXX", "01XX10XX"} {
		if err := ts.Add(MustPattern(s)); err != nil {
			t.Fatal(err)
		}
	}
	return ts
}

// TestRunRecordSchema pins the JSON field names shared by `lzwtc stats`
// and `lzwtc info -json`: scripts written against one must parse the
// other.
func TestRunRecordSchema(t *testing.T) {
	cfg := Config{CharBits: 2, DictSize: 32, EntryBits: 8}
	reg := telemetry.NewRegistry()
	rec := telemetry.New(reg)
	res, err := CompressObservedCtx(context.Background(), recordTestSet(t), cfg, rec)
	if err != nil {
		t.Fatal(err)
	}
	record := NewRunRecord(res)
	record.AttachHistograms(reg.Snapshot())
	_, st, _, err := SimulateDownloadObserved(res, 8, rec)
	if err != nil {
		t.Fatal(err)
	}
	record.AttachDownload(8, st)

	b, err := json.Marshal(record)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	for _, key := range []string{
		`"empty":`, `"patterns":`, `"width":`, `"original_bits":`,
		`"char_bits":`, `"dict_size":`, `"code_bits":`, `"entry_bits":`,
		`"ratio":`, `"codes_emitted":`, `"chars":`, `"dict_resets":`,
		`"match_len_hist":`, `"dict_occupancy_hist":`,
		`"internal_cycles":`, `"tester_cycles":`, `"load_stalls":`,
		`"utilization":`, `"improvement":`, `"memory_words":`,
	} {
		if !strings.Contains(doc, key) {
			t.Errorf("run record JSON missing %s:\n%s", key, doc)
		}
	}
	// The same document must round-trip.
	var back RunRecord
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Compress.CodesEmitted != res.Stream.Stats.CodesEmitted {
		t.Fatalf("round trip lost codes_emitted: %d vs %d",
			back.Compress.CodesEmitted, res.Stream.Stats.CodesEmitted)
	}
	if back.Decompressor == nil || back.Decompressor.TesterCycles != st.TesterCycles {
		t.Fatalf("round trip lost decompressor record: %+v", back.Decompressor)
	}
	if back.Compress.MatchLenHist == nil || back.Compress.MatchLenHist.Count != int64(res.Stream.Stats.CodesEmitted) {
		t.Fatalf("round trip lost match-length histogram: %+v", back.Compress.MatchLenHist)
	}
}

// TestRunRecordFromContainer: the info path — a record built from a
// decoded container — must carry the same schema with the geometry and
// headline numbers intact.
func TestRunRecordFromContainer(t *testing.T) {
	cfg := Config{CharBits: 2, DictSize: 32, EntryBits: 8}
	res, err := Compress(recordTestSet(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	container, err := res.EncodeWire()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeWireResult(container)
	if err != nil {
		t.Fatal(err)
	}
	record := NewRunRecord(decoded)
	if record.Patterns != res.Patterns || record.Width != res.Width {
		t.Fatalf("geometry lost: %+v", record)
	}
	if record.Compress.CompressedBits != res.CompressedBits() {
		t.Fatalf("compressed bits lost: %d vs %d", record.Compress.CompressedBits, res.CompressedBits())
	}
	if record.Compress.Ratio != decoded.Ratio() {
		t.Fatalf("ratio = %v, want %v", record.Compress.Ratio, decoded.Ratio())
	}
	if record.Decompressor != nil {
		t.Fatal("container record has a decompressor section without a simulation")
	}
}

// TestCompressObservedRootEmitsRunRecord checks the root wrapper
// threads the recorder down to core.
func TestCompressObservedRootEmitsRunRecord(t *testing.T) {
	var kinds []string
	rec := telemetry.New(nil, telemetry.SinkFunc(func(ev telemetry.Event) { kinds = append(kinds, ev.Kind) }))
	if _, err := CompressObservedCtx(context.Background(), recordTestSet(t), DefaultConfig(), rec); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range kinds {
		if k == "compress.run" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no compress.run event from root wrapper; got %v", kinds)
	}
}

// TestSimulateDownloadObservedPatternEvents checks per-pattern cycle
// accounting arrives with the pattern count of the test set.
func TestSimulateDownloadObservedPatternEvents(t *testing.T) {
	ts := recordTestSet(t)
	cfg := Config{CharBits: 2, DictSize: 32, EntryBits: 8}
	res, err := Compress(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var patterns int
	rec := telemetry.New(nil, telemetry.SinkFunc(func(ev telemetry.Event) {
		if ev.Kind == "decomp.pattern" {
			patterns++
		}
	}))
	if _, _, _, err := SimulateDownloadObserved(res, 8, rec); err != nil {
		t.Fatal(err)
	}
	if patterns != len(ts.Cubes) {
		t.Fatalf("pattern events = %d, want %d", patterns, len(ts.Cubes))
	}
}

package lzwtc

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
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
	res, err := Compress(context.Background(), recordTestSet(t), cfg, Options{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	record := NewRunRecord(res)
	record.AttachHistograms(reg.Snapshot())
	_, st, _, err := SimulateDownload(res, 8, rec)
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
	if back.Compress.CodesEmitted != res.Shards[0].Stats.CodesEmitted {
		t.Fatalf("round trip lost codes_emitted: %d vs %d",
			back.Compress.CodesEmitted, res.Shards[0].Stats.CodesEmitted)
	}
	if back.Decompressor == nil || back.Decompressor.TesterCycles != st.TesterCycles {
		t.Fatalf("round trip lost decompressor record: %+v", back.Decompressor)
	}
	if back.Compress.MatchLenHist == nil || back.Compress.MatchLenHist.Count != int64(res.Shards[0].Stats.CodesEmitted) {
		t.Fatalf("round trip lost match-length histogram: %+v", back.Compress.MatchLenHist)
	}
}

// TestRunRecordFromContainer: the info path — a record built from a
// decoded container — must carry the same schema with the geometry and
// headline numbers intact.
func TestRunRecordFromContainer(t *testing.T) {
	cfg := Config{CharBits: 2, DictSize: 32, EntryBits: 8}
	res, err := Compress(context.Background(), recordTestSet(t), cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	container := wireBytes(t, res)
	decoded, err := DecodeWireResult(bytes.NewReader(container))
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

// TestCompressObservedRootEmitsRunRecord checks Compress threads
// Options.Recorder down to core.
func TestCompressObservedRootEmitsRunRecord(t *testing.T) {
	var kinds []string
	rec := telemetry.New(nil, telemetry.SinkFunc(func(ev telemetry.Event) { kinds = append(kinds, ev.Kind) }))
	if _, err := Compress(context.Background(), recordTestSet(t), DefaultConfig(), Options{Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range kinds {
		if k == "compress.run" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no compress.run event from root Compress; got %v", kinds)
	}
}

// TestSimulateDownloadObservedPatternEvents checks per-pattern cycle
// accounting arrives with the pattern count of the test set.
func TestSimulateDownloadObservedPatternEvents(t *testing.T) {
	ts := recordTestSet(t)
	cfg := Config{CharBits: 2, DictSize: 32, EntryBits: 8}
	res, err := Compress(context.Background(), ts, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var patterns int
	rec := telemetry.New(nil, telemetry.SinkFunc(func(ev telemetry.Event) {
		if ev.Kind == "decomp.pattern" {
			patterns++
		}
	}))
	if _, _, _, err := SimulateDownload(res, 8, rec); err != nil {
		t.Fatal(err)
	}
	if patterns != len(ts.Cubes) {
		t.Fatalf("pattern events = %d, want %d", patterns, len(ts.Cubes))
	}
}

// TestRunRecordGoldens pins NewRunRecord byte for byte for one
// conformance case, unsharded and at 5 patterns per shard, against the
// records under testdata/records: the compress section aggregates
// across shards and the per-shard rows appear exactly when there is
// more than one shard.
func TestRunRecordGoldens(t *testing.T) {
	var c conformanceCase
	for _, cc := range conformanceCases() {
		if cc.name == "cc4-freeze" {
			c = cc
		}
	}
	ts := c.build()
	for _, tc := range []struct {
		golden string
		per    int
	}{
		{"cc4-freeze.json", 0},
		{"cc4-freeze-shard5.json", 5},
	} {
		res, err := Compress(context.Background(), ts, c.cfg, Options{ShardPatterns: tc.per})
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(NewRunRecord(res), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "records", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("%s: record differs from the golden\ngot:\n%s", tc.golden, got)
		}
	}
}

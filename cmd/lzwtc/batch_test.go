package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lzwtc"
)

// writeBatchFixture lays out two small cube files and a manifest that
// compresses them under different configurations.
func writeBatchFixture(t *testing.T) (dir, manifest string) {
	t.Helper()
	dir = t.TempDir()
	a := "01XX10XX\nX1XX10X0\n0X101XX1\n"
	b := strings.Repeat("0011XX0011XX\n", 8)
	if err := os.WriteFile(filepath.Join(dir, "a.cubes"), []byte(a), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.cubes"), []byte(b), 0o644); err != nil {
		t.Fatal(err)
	}
	manifest = filepath.Join(dir, "jobs.txt")
	lines := "# comment\na.cubes char=2 dict=16 entry=8\nb.cubes char=4 dict=64 entry=16 full=reset tie=newest\n"
	if err := os.WriteFile(manifest, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, manifest
}

func TestBatchSubcommandEndToEnd(t *testing.T) {
	dir, manifest := writeBatchFixture(t)
	outDir := filepath.Join(dir, "out")
	err := batch(context.Background(), []string{"-manifest", manifest, "-out-dir", outDir, "-workers", "2"})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}

	var agg struct {
		Jobs    int     `json:"jobs"`
		OK      int     `json:"ok"`
		Failed  int     `json:"failed"`
		Ratio   float64 `json:"ratio"`
		Results []struct {
			Name  string `json:"name"`
			Error string `json:"error"`
		} `json:"results"`
	}
	data, err := os.ReadFile(filepath.Join(outDir, "batch.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Jobs != 2 || agg.OK != 2 || agg.Failed != 0 {
		t.Fatalf("aggregate = %+v", agg)
	}

	// Each job got a wire-format container and a run record; the
	// container round-trips against its source cubes with no
	// out-of-band Config.
	for _, name := range []string{"a", "b"} {
		raw, err := os.ReadFile(filepath.Join(outDir, name+".lzw"))
		if err != nil {
			t.Fatal(err)
		}
		filled, err := lzwtc.DecompressWire(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s.lzw decompress: %v", name, err)
		}
		f, err := os.Open(filepath.Join(dir, name+".cubes"))
		if err != nil {
			t.Fatal(err)
		}
		orig, err := lzwtc.ReadTestSet(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := lzwtc.Verify(orig, filled); err != nil {
			t.Fatalf("%s round-trip: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(outDir, name+".json")); err != nil {
			t.Fatalf("missing run record: %v", err)
		}
	}
}

func TestBatchSubcommandSharded(t *testing.T) {
	dir, manifest := writeBatchFixture(t)
	outDir := filepath.Join(dir, "out")
	err := batch(context.Background(), []string{"-manifest", manifest, "-out-dir", outDir, "-shard-patterns", "3"})
	if err != nil {
		t.Fatalf("sharded batch: %v", err)
	}
	// b has 8 patterns -> 3 shards of <= 3 patterns, each its own
	// independently decompressible container.
	var rec lzwtc.RunRecord
	data, err := os.ReadFile(filepath.Join(outDir, "b.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Shards) != 3 {
		t.Fatalf("b.json has %d shards, want 3", len(rec.Shards))
	}
	// The default layout is one wire container with one frame per
	// shard, streaming-decompressible as a whole.
	raw, err := os.ReadFile(filepath.Join(outDir, "b.lzw"))
	if err != nil {
		t.Fatal(err)
	}
	ts, err := lzwtc.DecompressWire(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("b.lzw decompress: %v", err)
	}
	if len(ts.Cubes) != 8 {
		t.Fatalf("sharded container decompresses to %d patterns, want 8", len(ts.Cubes))
	}
}

// TestInfoShardedContainer: `lzwtc info` reads the multi-frame
// container a sharded batch writes, and its JSON agrees with the run
// record the batch wrote for the same job on every field a container
// carries.
func TestInfoShardedContainer(t *testing.T) {
	dir, manifest := writeBatchFixture(t)
	outDir := filepath.Join(dir, "out")
	if err := batch(context.Background(), []string{"-manifest", manifest, "-out-dir", outDir, "-shard-patterns", "3"}); err != nil {
		t.Fatalf("sharded batch: %v", err)
	}
	container := filepath.Join(outDir, "b.lzw")
	out := captureStdout(t, func() error { return info([]string{"-json", "-in", container}) })
	var got, want lzwtc.RunRecord
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("info -json: %v\n%s", err, out)
	}
	data, err := os.ReadFile(filepath.Join(outDir, "b.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got.Shards) != 3 {
		t.Fatalf("info reports %d shards, want 3", len(got.Shards))
	}
	if got.Patterns != want.Patterns || got.Width != want.Width || got.OriginalBits != want.OriginalBits {
		t.Fatalf("geometry: info %d x %d (%d bits), record %d x %d (%d bits)",
			got.Patterns, got.Width, got.OriginalBits, want.Patterns, want.Width, want.OriginalBits)
	}
	if got.Config != want.Config {
		t.Fatalf("config: info %+v, record %+v", got.Config, want.Config)
	}
	gc, wc := got.Compress, want.Compress
	if gc.CompressedBits != wc.CompressedBits || gc.CodesEmitted != wc.CodesEmitted || gc.Ratio != wc.Ratio {
		t.Fatalf("compress: info %d bits / %d codes / %v, record %d bits / %d codes / %v",
			gc.CompressedBits, gc.CodesEmitted, gc.Ratio, wc.CompressedBits, wc.CodesEmitted, wc.Ratio)
	}
	if !reflect.DeepEqual(got.Shards, want.Shards) {
		t.Fatalf("shards: info %+v, record %+v", got.Shards, want.Shards)
	}

	text := captureStdout(t, func() error { return info([]string{"-in", container}) })
	if !strings.Contains(string(text), "frames:          3\n") {
		t.Fatalf("text info does not report 3 frames:\n%s", text)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	ferr := fn()
	os.Stdout = stdout
	w.Close()
	out := <-done
	r.Close()
	if ferr != nil {
		t.Fatal(ferr)
	}
	return out
}

// TestBatchMismatchedConfigFailsLoudly is the regression test for the
// headerless-dump hazard: corrupting the configuration region of a
// batch-written wire container makes decode fail with a typed checksum
// error instead of decompressing under the wrong Config.
func TestBatchMismatchedConfigFailsLoudly(t *testing.T) {
	dir, manifest := writeBatchFixture(t)
	outDir := filepath.Join(dir, "out")
	if err := batch(context.Background(), []string{"-manifest", manifest, "-out-dir", outDir}); err != nil {
		t.Fatalf("batch: %v", err)
	}
	raw, err := os.ReadFile(filepath.Join(outDir, "a.lzw"))
	if err != nil {
		t.Fatal(err)
	}
	// Byte 5 is the first header config field (CharBits uvarint):
	// flipping it is exactly a "decoded under the wrong Config" setup.
	mut := bytes.Clone(raw)
	mut[5] ^= 0x01
	_, err = lzwtc.DecompressWire(bytes.NewReader(mut))
	if !errors.Is(err, lzwtc.ErrWireChecksum) {
		t.Fatalf("mismatched config decode: got %v, want ErrWireChecksum", err)
	}

}

// TestBatchCanceledContext: a canceled context fails the batch with the
// cancellation, before any output is written.
func TestBatchCanceledContext(t *testing.T) {
	dir, manifest := writeBatchFixture(t)
	outDir := filepath.Join(dir, "out")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := batch(ctx, []string{"-manifest", manifest, "-out-dir", outDir})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(filepath.Join(outDir, "batch.json")); !os.IsNotExist(err) {
		t.Fatal("canceled batch still wrote batch.json")
	}
}

// TestStatsCanceledContext: stats honors a pre-canceled context at its
// first phase boundary.
func TestStatsCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := stats(ctx, []string{"-in", "does-not-matter"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestReadManifestOptionsAndDedup(t *testing.T) {
	dir := t.TempDir()
	manifest := filepath.Join(dir, "m.txt")
	content := "x.cubes char=3 dict=8 entry=9 fill=repeat tie=widest full=reset\nsub/x.cubes\n"
	if err := os.WriteFile(manifest, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, err := readManifest(manifest, lzwtc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("%d jobs, want 2", len(jobs))
	}
	cfg := jobs[0].Cfg
	if cfg.CharBits != 3 || cfg.DictSize != 8 || cfg.EntryBits != 9 ||
		cfg.Fill != lzwtc.FillRepeat || cfg.Tie != lzwtc.TieWidest || cfg.Full != lzwtc.FullReset {
		t.Fatalf("options not applied: %+v", cfg)
	}
	if jobs[0].Name == jobs[1].Name {
		t.Fatalf("duplicate base names not deduplicated: %q vs %q", jobs[0].Name, jobs[1].Name)
	}
	if jobs[1].Name != "x-2" {
		t.Fatalf("second x named %q, want x-2", jobs[1].Name)
	}

	if _, err := readManifest(manifest, lzwtc.Config{}); err != nil {
		t.Fatalf("defaults pass through unvalidated: %v", err)
	}
	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("x.cubes fill=purple\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readManifest(bad, lzwtc.DefaultConfig()); err == nil {
		t.Fatal("bad fill policy accepted")
	}
}

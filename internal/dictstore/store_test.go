package dictstore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lzwtc/internal/core"
	"lzwtc/internal/telemetry"
	"lzwtc/internal/wire"
)

// wireRef is the container reference for a store entry.
func wireRef(ent *Entry) wire.DictRef {
	return wire.DictRef{Key: [keyLen]byte(ent.Key), Digest: [digestLen]byte(ent.Digest)}
}

// keyN derives a distinct test key.
func keyN(n byte) Key {
	var k Key
	k[0] = n
	k[31] = ^n
	return k
}

// preloadN builds a preload with n two-character entries, each a
// distinct (literal, char) pair so sizes are comparable across keys.
func preloadN(n int) *core.Preload {
	p := &core.Preload{}
	for i := 0; i < n; i++ {
		p.Strings = append(p.Strings, []uint64{uint64(i % 16), uint64(i / 16 % 16)})
	}
	return p
}

func openTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return s
}

func TestStoreTrainThenHit(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := openTestStore(t, Config{Registry: reg})
	cfg := testConfig()
	key := keyN(1)
	ctx := context.Background()

	trains := 0
	ent, src, err := s.GetOrTrain(ctx, key, cfg, func(context.Context) (*core.Preload, error) {
		trains++
		return testPreload(), nil
	})
	if err != nil || src != SourceTrained || trains != 1 {
		t.Fatalf("cold resolve: src=%v trains=%d err=%v", src, trains, err)
	}

	// The warm path must never invoke the training function.
	ent2, src, err := s.GetOrTrain(ctx, key, cfg, func(context.Context) (*core.Preload, error) {
		t.Fatal("training function ran on a warm hit")
		return nil, nil
	})
	if err != nil || src != SourceMem {
		t.Fatalf("warm resolve: src=%v err=%v", src, err)
	}
	if ent2 != ent {
		t.Fatal("warm hit returned a different entry")
	}

	snap := reg.Snapshot()
	if got := snap.CounterValue(metricTrains); got != 1 {
		t.Fatalf("%s = %d, want 1", metricTrains, got)
	}
	if got := snap.CounterValue(metricHits); got != 1 {
		t.Fatalf("%s = %d, want 1", metricHits, got)
	}
	if got := snap.CounterValue(metricMisses); got != 1 {
		t.Fatalf("%s = %d, want 1", metricMisses, got)
	}
	if got := snap.GaugeValue(metricBytes); got <= 0 {
		t.Fatalf("%s = %v, want > 0", metricBytes, got)
	}
	if got := snap.GaugeValue(metricDiskBytes); got != 0 {
		t.Fatalf("%s = %v for a memory-only store", metricDiskBytes, got)
	}
}

// TestStoreWarmHitZeroAllocs pins the repeat-traffic contract: a warm
// memory hit does no training and no allocation at all — resolving is
// a map lookup and an LRU rotation.
func TestStoreWarmHitZeroAllocs(t *testing.T) {
	s := openTestStore(t, Config{})
	key := keyN(2)
	if _, err := s.PutPreload(key, testConfig(), testPreload()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Resolve(ctx, key); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm hit allocates %v objects, want 0", allocs)
	}
}

func TestStoreResolveSpan(t *testing.T) {
	var spans []string
	rec := telemetry.New(telemetry.NewRegistry(), telemetry.SinkFunc(func(ev telemetry.Event) {
		if ev.Kind == telemetry.EventTraceSpan {
			if name, ok := ev.Field("name"); ok {
				spans = append(spans, name.(string))
			}
		}
	}))
	s := openTestStore(t, Config{Recorder: rec})
	key := keyN(3)
	if _, err := s.PutPreload(key, testConfig(), testPreload()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range spans {
		if name == SpanDictResolve {
			found = true
		}
	}
	if !found {
		t.Fatalf("no %s span recorded; got %v", SpanDictResolve, spans)
	}
}

func TestStoreMissWithoutTrain(t *testing.T) {
	s := openTestStore(t, Config{})
	if _, err := s.Resolve(context.Background(), keyN(4)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
}

func TestStoreClosed(t *testing.T) {
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resolve(context.Background(), keyN(5)); !errors.Is(err, errClosed) {
		t.Fatalf("resolve after close: %v, want ErrClosed", err)
	}
	if _, err := s.PutPreload(keyN(5), testConfig(), testPreload()); !errors.Is(err, errClosed) {
		t.Fatalf("put after close: %v, want ErrClosed", err)
	}
	if _, err := s.Delete(keyN(5)); !errors.Is(err, errClosed) {
		t.Fatalf("delete after close: %v, want ErrClosed", err)
	}
}

// TestStoreMemLRUBudget: inserting past the memory budget evicts from
// the cold end, the budget is never exceeded, and an entry larger than
// the whole budget is served but not cached.
func TestStoreMemLRUBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	// Size the budget for roughly two decoded entries.
	probe, err := EncodeBlob(testConfig(), preloadN(8))
	if err != nil {
		t.Fatal(err)
	}
	entryMem := newEntry(keyN(0), testConfig(), preloadN(8), probe).memBytes
	s := openTestStore(t, Config{MemBudget: 2*entryMem + entryMem/2, Registry: reg})

	for i := byte(1); i <= 4; i++ {
		if _, err := s.PutPreload(keyN(i), testConfig(), preloadN(8)); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.MemBytes > 2*entryMem+entryMem/2 {
			t.Fatalf("after insert %d: mem %d exceeds budget", i, st.MemBytes)
		}
	}
	st := s.Stats()
	if st.Entries != 2 {
		t.Fatalf("LRU holds %d entries, want 2", st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded past the budget")
	}
	// Coldest entries evicted: 1 and 2 gone, 3 and 4 resident.
	ctx := context.Background()
	if _, err := s.Resolve(ctx, keyN(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("key 1 still resident: %v", err)
	}
	if _, err := s.Resolve(ctx, keyN(4)); err != nil {
		t.Fatalf("key 4 evicted: %v", err)
	}

	// An entry bigger than the whole budget is served but never cached.
	before := s.Stats().MemBytes
	huge := preloadN(40)
	if _, err := s.PutPreload(keyN(9), testConfig(), huge); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().MemBytes; got != before {
		t.Fatalf("oversized entry changed mem occupancy %d -> %d", before, got)
	}
}

func TestStoreDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	key := keyN(6)
	blob := func() []byte {
		s := openTestStore(t, Config{Dir: dir})
		ent, err := s.PutPreload(key, testConfig(), testPreload())
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := s.Blob(context.Background(), key)
		if err != nil {
			t.Fatal(err)
		}
		if ent.Digest != BlobDigest(b) {
			t.Fatal("entry digest does not match canonical blob")
		}
		return b
	}()

	// A fresh store over the same directory rehydrates from disk; the
	// second resolve is a memory hit.
	s2 := openTestStore(t, Config{Dir: dir})
	ctx := context.Background()
	ent, src, err := s2.GetOrTrain(ctx, key, core.Config{}, nil)
	if err != nil || src != SourceDisk {
		t.Fatalf("rehydration: src=%v err=%v", src, err)
	}
	if ent.Digest != BlobDigest(blob) {
		t.Fatal("rehydrated digest differs from the persisted blob")
	}
	if _, src, err = s2.GetOrTrain(ctx, key, core.Config{}, nil); err != nil || src != SourceMem {
		t.Fatalf("post-rehydration resolve: src=%v err=%v", src, err)
	}
	st := s2.Stats()
	if st.DiskEntries != 1 || st.DiskBytes != int64(len(blob)) {
		t.Fatalf("disk stats %d entries / %d bytes, want 1 / %d", st.DiskEntries, st.DiskBytes, len(blob))
	}
}

// TestStoreCrashSafety: a partially written temp file left by a
// simulated crash is ignored and cleaned at Open, and a corrupted blob
// file is detected, evicted and treated as a miss — never decoded.
func TestStoreCrashSafety(t *testing.T) {
	dir := t.TempDir()
	key := keyN(7)
	func() {
		s := openTestStore(t, Config{Dir: dir})
		if _, err := s.PutPreload(key, testConfig(), testPreload()); err != nil {
			t.Fatal(err)
		}
	}()

	// Simulate a writer that died mid-blob and mid-manifest.
	tmpBlob := filepath.Join(dir, keyN(8).String()+blobExt+tmpExt)
	if err := os.WriteFile(tmpBlob, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmpMan := filepath.Join(dir, manifestName+tmpExt)
	if err := os.WriteFile(tmpMan, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Corrupt the persisted blob in place (flip one payload bit).
	blobPath := filepath.Join(dir, key.String()+blobExt)
	raw, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(blobPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	s := openTestStore(t, Config{Dir: dir, Registry: reg})
	for _, tmp := range []string{tmpBlob, tmpMan} {
		if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("temp file %s survived Open", filepath.Base(tmp))
		}
	}
	if _, err := s.Resolve(context.Background(), key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt blob resolved: %v, want ErrNotFound", err)
	}
	if _, err := os.Stat(blobPath); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("corrupt blob file not evicted")
	}
	if got := reg.Snapshot().CounterValue(metricEvictions); got != 1 {
		t.Fatalf("%s = %d, want 1 for the corrupt-blob eviction", metricEvictions, got)
	}
}

// TestStoreDiskBudget: the disk index LRU-evicts blob files past its
// byte budget and the manifest tracks the survivors.
func TestStoreDiskBudget(t *testing.T) {
	dir := t.TempDir()
	blob, err := EncodeBlob(testConfig(), preloadN(8))
	if err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, Config{Dir: dir, DiskBudget: int64(2 * len(blob))})
	for i := byte(1); i <= 4; i++ {
		if _, err := s.PutPreload(keyN(i), testConfig(), preloadN(8)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.DiskEntries != 2 || st.DiskBytes > int64(2*len(blob)) {
		t.Fatalf("disk holds %d entries / %d bytes, want 2 / <= %d", st.DiskEntries, st.DiskBytes, 2*len(blob))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	blobs := 0
	for _, de := range entries {
		if strings.HasSuffix(de.Name(), blobExt) {
			blobs++
		}
	}
	if blobs != 2 {
		t.Fatalf("%d blob files on disk, want 2", blobs)
	}
}

// TestStoreManifestCorruption: an unreadable manifest never fails Open;
// the index rebuilds from the blob files alone.
func TestStoreManifestCorruption(t *testing.T) {
	dir := t.TempDir()
	key := keyN(9)
	func() {
		s := openTestStore(t, Config{Dir: dir})
		if _, err := s.PutPreload(key, testConfig(), testPreload()); err != nil {
			t.Fatal(err)
		}
	}()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTestStore(t, Config{Dir: dir})
	if _, src, err := s.GetOrTrain(context.Background(), key, core.Config{}, nil); err != nil || src != SourceDisk {
		t.Fatalf("orphan blob not adopted: src=%v err=%v", src, err)
	}
}

func TestStoreDelete(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, Config{Dir: dir})
	key := keyN(10)
	if _, err := s.PutPreload(key, testConfig(), testPreload()); err != nil {
		t.Fatal(err)
	}
	removed, err := s.Delete(key)
	if err != nil || !removed {
		t.Fatalf("delete: removed=%v err=%v", removed, err)
	}
	if _, err := s.Resolve(context.Background(), key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resolved: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, key.String()+blobExt)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("deleted blob file still on disk")
	}
	if removed, err = s.Delete(key); err != nil || removed {
		t.Fatalf("second delete: removed=%v err=%v", removed, err)
	}
}

func TestStoreResolveDictDigestMismatch(t *testing.T) {
	s := openTestStore(t, Config{})
	key := keyN(11)
	ent, err := s.PutPreload(key, testConfig(), testPreload())
	if err != nil {
		t.Fatal(err)
	}
	ref := wireRef(ent)
	ref.Digest[0] ^= 0xFF
	if _, err := s.ResolveDict(context.Background(), ref); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("got %v, want ErrDigestMismatch", err)
	}
	if pre, err := s.ResolveDict(context.Background(), wireRef(ent)); err != nil || pre.Entries() != ent.Pre.Entries() {
		t.Fatalf("matching digest rejected: %v", err)
	}
}

func TestStorePutBlobValidates(t *testing.T) {
	s := openTestStore(t, Config{})
	blob, err := EncodeBlob(testConfig(), testPreload())
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), blob...)
	mut[len(mut)-1] ^= 1
	if _, err := s.PutBlob(keyN(12), mut); err == nil {
		t.Fatal("PutBlob accepted a corrupt blob")
	}
	if _, err := s.PutBlob(keyN(12), blob); err != nil {
		t.Fatal(err)
	}
}

func TestStoreList(t *testing.T) {
	dir := t.TempDir()
	func() {
		s := openTestStore(t, Config{Dir: dir})
		if _, err := s.PutPreload(keyN(13), testConfig(), testPreload()); err != nil {
			t.Fatal(err)
		}
	}()
	// Reopened: the entry is disk-only until resolved.
	s := openTestStore(t, Config{Dir: dir})
	if _, err := s.PutPreload(keyN(14), testConfig(), testPreload()); err != nil {
		t.Fatal(err)
	}
	infos := s.List()
	if len(infos) != 2 {
		t.Fatalf("List returned %d entries, want 2", len(infos))
	}
	byKey := map[Key]EntryInfo{}
	for _, info := range infos {
		byKey[info.Key] = info
	}
	if info := byKey[keyN(14)]; !info.InMem || info.Entries != testPreload().Entries() {
		t.Fatalf("mem entry listed as %+v", info)
	}
	if info := byKey[keyN(13)]; info.InMem || info.Entries != -1 || info.BlobBytes == 0 {
		t.Fatalf("disk-only entry listed as %+v", info)
	}
}

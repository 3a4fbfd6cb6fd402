package lzwtc

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/dictstore"
	"lzwtc/internal/parallel"
)

// dictDiffConfig maps a conformance configuration onto the dictionary
// tier's contract: preloads are meaningless under FullReset (the
// dictionary is discarded mid-stream), so those corpus entries exercise
// the same corner under FullFreeze instead.
func dictDiffConfig(cfg Config) Config {
	if cfg.Full == FullReset {
		cfg.Full = FullFreeze
	}
	return cfg
}

// fatalTrain is a TrainFunc for paths that must already be warm: any
// call means the store failed to serve from cache.
func fatalTrain(t *testing.T, path string) dictstore.TrainFunc {
	return func(context.Context) (*Preload, error) {
		t.Fatalf("%s resolution invoked the training function", path)
		return nil, nil
	}
}

// cubesText renders a test set in canonical cube-text form for
// byte-level equality checks between decompression paths.
func cubesText(t *testing.T, ts *TestSet) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := ts.WriteCubes(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// dictContainer compresses ts from pre as one shard and renders the
// 'D'-frame wire container naming ref.
func dictContainer(t *testing.T, ts *TestSet, cfg Config, pre *Preload, ref DictRef) []byte {
	t.Helper()
	sr, err := CompressShardedPreloaded(context.Background(), ts, cfg, pre, 0, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteWireDict(&buf, sr, ref); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDictDifferentialCompression proves the store is transparent: for
// every conformance-corpus case, compressing with a dictionary resolved
// cold (trained through the store), warm (memory LRU hit) or
// disk-rehydrated (fresh process over the same directory) produces a
// container byte-identical to compressing with a freshly trained
// in-process preload.
func TestDictDifferentialCompression(t *testing.T) {
	ctx := context.Background()
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := dictDiffConfig(c.cfg)
			ts := c.build()

			// Baseline: train and compress entirely in-process, no store;
			// the container names the key and the digest of the
			// in-process blob.
			key := DictKeyFor(ts, cfg)
			basePre, err := Train(ts, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := EncodeDictBlob(cfg, basePre)
			if err != nil {
				t.Fatal(err)
			}
			want := dictContainer(t, ts, cfg, basePre, DictRef{Key: key, Digest: dictstore.BlobDigest(blob)})

			compressVia := func(ent *dictstore.Entry) []byte {
				t.Helper()
				return dictContainer(t, ts, cfg, ent.Pre, DictEntryRef(ent))
			}

			dir := t.TempDir()
			store, err := OpenDictStore(DictStoreConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()

			// Cold: first resolution trains through the store.
			trains := 0
			cold, src, err := store.GetOrTrain(ctx, key, cfg, func(context.Context) (*Preload, error) {
				trains++
				return Train(ts, cfg, 0)
			})
			if err != nil {
				t.Fatal(err)
			}
			if src != dictstore.SourceTrained || trains != 1 {
				t.Fatalf("cold resolve: source %v, %d trains", src, trains)
			}
			if got := compressVia(cold); !bytes.Equal(got, want) {
				t.Fatal("cold-store dictionary compressed differently from the in-process baseline")
			}

			// Warm: the memory LRU serves the entry; training must not run.
			warm, src, err := store.GetOrTrain(ctx, key, cfg, fatalTrain(t, "warm"))
			if err != nil {
				t.Fatal(err)
			}
			if src != dictstore.SourceMem {
				t.Fatalf("warm resolve came from %v, want memory", src)
			}
			if got := compressVia(warm); !bytes.Equal(got, want) {
				t.Fatal("warm-hit dictionary compressed differently from the in-process baseline")
			}

			// Disk: a fresh store over the same directory rehydrates the
			// blob; the digest proves it is bit-identical to what was stored.
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			reopened, err := OpenDictStore(DictStoreConfig{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			rehydrated, src, err := reopened.GetOrTrain(ctx, key, cfg, fatalTrain(t, "disk"))
			if err != nil {
				t.Fatal(err)
			}
			if src != dictstore.SourceDisk {
				t.Fatalf("rehydrated resolve came from %v, want disk", src)
			}
			if rehydrated.Digest != cold.Digest {
				t.Fatal("disk rehydration changed the dictionary digest")
			}
			if got := compressVia(rehydrated); !bytes.Equal(got, want) {
				t.Fatal("disk-rehydrated dictionary compressed differently from the in-process baseline")
			}
		})
	}
}

// TestDictDifferentialWireRoundTrip proves the 'D'-frame container
// closes the loop for every conformance case: a receiver holding only
// the store reconstructs the same fully specified set the sender's
// in-process decompression produces, in both the single-frame and the
// sharded container forms.
func TestDictDifferentialWireRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := dictDiffConfig(c.cfg)
			ts := c.build()
			store, err := OpenDictStore(DictStoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			ent, _, err := store.GetOrTrain(ctx, DictKeyFor(ts, cfg), cfg,
				func(context.Context) (*Preload, error) { return Train(ts, cfg, 0) })
			if err != nil {
				t.Fatal(err)
			}
			ref := DictEntryRef(ent)

			// In-process reference: the core codec with the preload
			// installed, no container.
			res, err := core.CompressWithPreload(ts.SerializeAligned(cfg.CharBits), cfg, ent.Pre)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := core.DecompressWithPreload(res.Codes, cfg, ent.Pre, res.InputBits)
			if err != nil {
				t.Fatal(err)
			}
			wantSet, err := bitvec.DeserializeAligned(stream, ts.Width, cfg.CharBits)
			if err != nil {
				t.Fatal(err)
			}
			want := cubesText(t, wantSet)

			// Single-frame 'D' container.
			got, err := DecompressWireDict(bytes.NewReader(dictContainer(t, ts, cfg, ent.Pre, ref)), store)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(ts, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cubesText(t, got), want) {
				t.Fatal("wire 'D'-frame decompression diverged from in-process decompression")
			}

			// Sharded 'D' container: every frame reinstalls the preload, so
			// the in-process reference is the sharded decompressor (per-shard
			// dictionary restarts fill don't-cares differently from the
			// continuous stream).
			sharded, err := CompressShardedPreloaded(ctx, ts, cfg, ent.Pre, 5, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantShardSet, err := parallel.DecompressShardedPreloaded(ctx, sharded, ent.Pre, BatchOptions{})
			if err != nil {
				t.Fatal(err)
			}
			wantShard := cubesText(t, wantShardSet)
			var buf bytes.Buffer
			if err := WriteWireDict(&buf, sharded, ref); err != nil {
				t.Fatal(err)
			}
			got, err = DecompressWireDict(bytes.NewReader(buf.Bytes()), store)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(ts, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cubesText(t, got), wantShard) {
				t.Fatal("sharded 'D'-frame decompression diverged from in-process sharded decompression")
			}

			// A container naming a dictionary nobody has fails typed, and a
			// resolver-less receiver reports the same class.
			if _, err := DecompressWireDict(bytes.NewReader(buf.Bytes()), nil); !errors.Is(err, ErrDictNotFound) {
				t.Fatalf("resolver-less decode: got %v, want ErrDictNotFound", err)
			}
			empty, err := OpenDictStore(DictStoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer empty.Close()
			if _, err := DecompressWireDict(bytes.NewReader(buf.Bytes()), empty); !errors.Is(err, ErrDictNotFound) {
				t.Fatalf("empty-store decode: got %v, want ErrDictNotFound", err)
			}
		})
	}
}

// TestDecompressWireRejectsDictContainer: the plain wire decoders must
// not decode a 'D'-frame container cold. Its codes only mean something
// with the named dictionary installed, so DecompressWire and
// DecompressWireObserved fail with ErrDictNotFound for every
// conformance case and for random small configurations with a trained
// preload, whether or not the preload holds any strings.
func TestDecompressWireRejectsDictContainer(t *testing.T) {
	check := func(t *testing.T, ts *TestSet, cfg Config) {
		t.Helper()
		pre, err := Train(ts, cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := EncodeDictBlob(cfg, pre)
		if err != nil {
			t.Fatal(err)
		}
		ref := DictRef{Key: DictKeyFor(ts, cfg), Digest: dictstore.BlobDigest(blob)}
		container := dictContainer(t, ts, cfg, pre, ref)
		if _, err := DecompressWire(bytes.NewReader(container)); !errors.Is(err, ErrDictNotFound) {
			t.Fatalf("DecompressWire: got %v, want ErrDictNotFound", err)
		}
		if _, err := DecompressWireObserved(context.Background(), bytes.NewReader(container), nil); !errors.Is(err, ErrDictNotFound) {
			t.Fatalf("DecompressWireObserved: got %v, want ErrDictNotFound", err)
		}
	}
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) { check(t, c.build(), dictDiffConfig(c.cfg)) })
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(16))
		for i := 0; i < 40; i++ {
			cc := 1 + rng.Intn(8)
			cfg := Config{CharBits: cc, DictSize: 1<<cc + 16 + rng.Intn(200), EntryBits: cc * (1 + rng.Intn(8))}
			ts := conformanceSet(rng.Int63(), 1+rng.Intn(12), 1+rng.Intn(40), rng.Float64())
			check(t, ts, cfg)
		}
	})
}

// TestDecodeWireResultCarriesDictRef: for every conformance case, a
// single-frame container with a 'D' frame decodes to a Result whose
// Dict is the container's reference. Such a Result re-encodes to the
// same container, and the decoders that start from an empty dictionary
// refuse it with ErrDictNotFound instead of decompressing it cold.
func TestDecodeWireResultCarriesDictRef(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			cfg := dictDiffConfig(c.cfg)
			ts := c.build()
			pre, err := Train(ts, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := EncodeDictBlob(cfg, pre)
			if err != nil {
				t.Fatal(err)
			}
			ref := DictRef{Key: DictKeyFor(ts, cfg), Digest: dictstore.BlobDigest(blob)}
			container := dictContainer(t, ts, cfg, pre, ref)

			res, err := DecodeWireResult(container)
			if err != nil {
				t.Fatal(err)
			}
			if res.Dict == nil || *res.Dict != ref {
				t.Fatalf("Result.Dict = %v, want %x", res.Dict, ref.Key)
			}
			again, err := res.EncodeWire()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, container) {
				t.Fatal("re-encoded Result lost or changed its 'D' frame")
			}
			if _, err := Decompress(res); !errors.Is(err, ErrDictNotFound) {
				t.Fatalf("Decompress: got %v, want ErrDictNotFound", err)
			}
			if cfg.EntryBits > 0 && cfg.Full == FullFreeze {
				if _, _, _, err := SimulateDownload(res, 4); !errors.Is(err, ErrDictNotFound) {
					t.Fatalf("SimulateDownload: got %v, want ErrDictNotFound", err)
				}
			}
		})
	}
}

package lzwtc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/dictstore"
	"lzwtc/internal/telemetry"
	"lzwtc/internal/wire"
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

// dictContainer compresses ts from ent as one shard and renders the
// 'D'-frame wire container naming it.
func dictContainer(t *testing.T, ts *TestSet, cfg Config, ent *dictstore.Entry) []byte {
	t.Helper()
	res, err := Compress(context.Background(), ts, cfg, Options{Dict: ent})
	if err != nil {
		t.Fatal(err)
	}
	return wireBytes(t, res)
}

// trainedEntry trains a preload from ts in-process, with no store, and
// returns it as the store entry it would become.
func trainedEntry(t *testing.T, ts *TestSet, cfg Config) *dictstore.Entry {
	t.Helper()
	pre, err := Train(ts, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeDictBlob(cfg, pre)
	if err != nil {
		t.Fatal(err)
	}
	return &dictstore.Entry{Key: DictKeyFor(ts, cfg), Cfg: cfg, Pre: pre, Digest: dictstore.BlobDigest(blob)}
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
			want := dictContainer(t, ts, cfg, trainedEntry(t, ts, cfg))

			compressVia := func(ent *dictstore.Entry) []byte {
				t.Helper()
				return dictContainer(t, ts, cfg, ent)
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
// in-process decompression produces. It also pins the deprecated entry
// forms to Compress and Decompress, cold and warm, in one shard and in
// 3-pattern shards: the same container bytes and the same decoded set.
// It is the only test that calls the deprecated forms; it loses those
// calls when ROADMAP item 3 step 2 deletes them.
func TestDictDifferentialWireRoundTrip(t *testing.T) {
	ctx := context.Background()
	for _, c := range conformanceCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			warmCfg := dictDiffConfig(c.cfg)
			ts := c.build()
			store, err := OpenDictStore(DictStoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			ent, _, err := store.GetOrTrain(ctx, DictKeyFor(ts, warmCfg), warmCfg,
				func(context.Context) (*Preload, error) { return Train(ts, warmCfg, 0) })
			if err != nil {
				t.Fatal(err)
			}
			ref := DictRef{Key: ent.Key, Digest: ent.Digest}

			// In-process reference: the core codec with the preload
			// installed, no container.
			res, err := core.CompressWithPreload(ts.SerializeAligned(warmCfg.CharBits), warmCfg, ent.Pre)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := core.DecompressWithPreload(res.Codes, warmCfg, ent.Pre, res.InputBits)
			if err != nil {
				t.Fatal(err)
			}
			wantSet, err := bitvec.DeserializeAligned(stream, ts.Width, warmCfg.CharBits)
			if err != nil {
				t.Fatal(err)
			}
			inProcess := cubesText(t, wantSet)

			for _, warm := range []bool{false, true} {
				for _, per := range []int{0, 3} {
					name := fmt.Sprintf("cold-shards%d", per)
					cfg, opts := c.cfg, Options{ShardPatterns: per}
					if warm {
						name = fmt.Sprintf("warm-shards%d", per)
						cfg, opts.Dict = warmCfg, ent
					}
					t.Run(name, func(t *testing.T) {
						res, err := Compress(ctx, ts, cfg, opts)
						if err != nil {
							t.Fatal(err)
						}
						container := wireBytes(t, res)

						// The deprecated compress and write forms emit the
						// same bytes.
						var pre *Preload
						if warm {
							pre = ent.Pre
						}
						old, err := CompressShardedPreloaded(ctx, ts, cfg, pre, per, BatchOptions{})
						if err != nil {
							t.Fatal(err)
						}
						var oldBuf bytes.Buffer
						if warm {
							err = WriteWireDict(&oldBuf, old, ref)
						} else {
							err = WriteWireSharded(&oldBuf, old)
						}
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(oldBuf.Bytes(), container) {
							t.Fatal("CompressShardedPreloaded + WriteWireDict/WriteWireSharded differ from Compress + WriteWire")
						}
						var observedBuf bytes.Buffer
						var encodeSpans int
						encRec := telemetry.New(nil, telemetry.SinkFunc(func(ev telemetry.Event) {
							if sp, ok := telemetry.SpanRecordFromEvent(ev); ok && sp.Name == SpanWireEncode {
								encodeSpans++
							}
						}))
						if err := res.WriteWireObserved(ctx, &observedBuf, encRec); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(observedBuf.Bytes(), container) {
							t.Fatal("WriteWireObserved differs from WriteWire")
						}
						if encodeSpans != 1 {
							t.Fatalf("WriteWireObserved recorded %d %s spans, want 1", encodeSpans, SpanWireEncode)
						}
						if !warm {
							sharded, err := CompressSharded(ctx, ts, cfg, per, BatchOptions{})
							if err != nil {
								t.Fatal(err)
							}
							if !bytes.Equal(wireBytes(t, sharded), container) {
								t.Fatal("CompressSharded differs from Compress")
							}
							if per == 0 {
								observed, err := CompressObservedCtx(ctx, ts, cfg, nil)
								if err != nil {
									t.Fatal(err)
								}
								if !bytes.Equal(wireBytes(t, observed), container) {
									t.Fatal("CompressObservedCtx differs from Compress")
								}
							}
						}

						// Every decoder yields the same set: the stream
						// decoder, the Result decoder, and the deprecated
						// stream decoders.
						got, err := Decompress(ctx, bytes.NewReader(container), Options{Resolver: store})
						if err != nil {
							t.Fatal(err)
						}
						if err := Verify(ts, got); err != nil {
							t.Fatal(err)
						}
						want := cubesText(t, got)
						if warm && per == 0 && !bytes.Equal(want, inProcess) {
							t.Fatal("wire 'D'-frame decompression diverged from in-process decompression")
						}
						decoded, err := DecodeWireResult(bytes.NewReader(container))
						if err != nil {
							t.Fatal(err)
						}
						viaResult, err := decoded.Decompress(ctx, Options{Resolver: store})
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(cubesText(t, viaResult), want) {
							t.Fatal("DecodeWireResult + Result.Decompress differs from Decompress")
						}
						viaOld, err := DecompressWireDict(bytes.NewReader(container), store)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(cubesText(t, viaOld), want) {
							t.Fatal("DecompressWireDict differs from Decompress")
						}
						viaObserved, err := DecompressWireObserved(ctx, bytes.NewReader(container), nil)
						if warm {
							if !errors.Is(err, ErrDictNotFound) {
								t.Fatalf("DecompressWireObserved of a 'D' container: got %v, want ErrDictNotFound", err)
							}
							return
						}
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(cubesText(t, viaObserved), want) {
							t.Fatal("DecompressWireObserved differs from Decompress")
						}
					})
				}
			}

			// A container naming a dictionary nobody has fails typed, and
			// a resolver-less receiver reports the same class.
			container := dictContainer(t, ts, warmCfg, ent)
			if _, err := Decompress(ctx, bytes.NewReader(container), Options{}); !errors.Is(err, ErrDictNotFound) {
				t.Fatalf("resolver-less decode: got %v, want ErrDictNotFound", err)
			}
			empty, err := OpenDictStore(DictStoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer empty.Close()
			if _, err := Decompress(ctx, bytes.NewReader(container), Options{Resolver: empty}); !errors.Is(err, ErrDictNotFound) {
				t.Fatalf("empty-store decode: got %v, want ErrDictNotFound", err)
			}
		})
	}
}

// TestDecompressWireRejectsDictContainer: a warm Compress names its
// dictionary, and no decoder decompresses it cold. For every
// conformance case and for random small configurations with a trained
// preload, whether or not the preload holds any strings, the Result
// and its container carry the entry's reference in a 'D' frame;
// Decompress, with or without a recorder, and Result.Decompress fail
// with ErrDictNotFound when given no resolver, and reproduce the same
// fully specified set when given the store.
func TestDecompressWireRejectsDictContainer(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, ts *TestSet, cfg Config) {
		t.Helper()
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
		ref := DictRef{Key: ent.Key, Digest: ent.Digest}
		res, err := Compress(ctx, ts, cfg, Options{Dict: ent})
		if err != nil {
			t.Fatal(err)
		}
		if res.Dict == nil || *res.Dict != ref {
			t.Fatalf("Result.Dict = %v, want %x", res.Dict, ref.Key)
		}
		container := wireBytes(t, res)
		wr, err := wire.NewReader(bytes.NewReader(container))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wr.ReadFrame(); err != nil {
			t.Fatal(err)
		}
		if got, ok := wr.DictRef(); !ok || got != ref {
			t.Fatalf("container 'D' frame = %x (present %v), want %x", got.Key, ok, ref.Key)
		}

		if _, err := Decompress(ctx, bytes.NewReader(container), Options{}); !errors.Is(err, ErrDictNotFound) {
			t.Fatalf("Decompress: got %v, want ErrDictNotFound", err)
		}
		rec := telemetry.New(telemetry.NewRegistry())
		if _, err := Decompress(ctx, bytes.NewReader(container), Options{Recorder: rec}); !errors.Is(err, ErrDictNotFound) {
			t.Fatalf("Decompress with a recorder: got %v, want ErrDictNotFound", err)
		}
		if _, err := res.Decompress(ctx, Options{}); !errors.Is(err, ErrDictNotFound) {
			t.Fatalf("Result.Decompress: got %v, want ErrDictNotFound", err)
		}

		got, err := Decompress(ctx, bytes.NewReader(container), Options{Resolver: store})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(ts, got); err != nil {
			t.Fatal(err)
		}
		back, err := res.Decompress(ctx, Options{Resolver: store})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cubesText(t, back), cubesText(t, got)) {
			t.Fatal("Result.Decompress and Decompress of its container differ")
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
// same container, and the decoders and the cycle model, which would
// start it from an empty dictionary, refuse it with ErrDictNotFound
// instead of running it cold.
func TestDecodeWireResultCarriesDictRef(t *testing.T) {
	for _, c := range conformanceCases() {
		t.Run(c.name, func(t *testing.T) {
			cfg := dictDiffConfig(c.cfg)
			ts := c.build()
			ent := trainedEntry(t, ts, cfg)
			ref := DictRef{Key: ent.Key, Digest: ent.Digest}
			container := dictContainer(t, ts, cfg, ent)

			res, err := DecodeWireResult(bytes.NewReader(container))
			if err != nil {
				t.Fatal(err)
			}
			if res.Dict == nil || *res.Dict != ref {
				t.Fatalf("Result.Dict = %v, want %x", res.Dict, ref.Key)
			}
			if again := wireBytes(t, res); !bytes.Equal(again, container) {
				t.Fatal("re-encoded Result lost or changed its 'D' frame")
			}
			if _, err := res.Decompress(context.Background(), Options{}); !errors.Is(err, ErrDictNotFound) {
				t.Fatalf("Result.Decompress: got %v, want ErrDictNotFound", err)
			}
			if cfg.EntryBits > 0 && cfg.Full == FullFreeze {
				if _, _, _, err := SimulateDownload(res, 4, nil); !errors.Is(err, ErrDictNotFound) {
					t.Fatalf("SimulateDownload: got %v, want ErrDictNotFound", err)
				}
				if _, err := PredictDownloadCycles(res, 4); !errors.Is(err, ErrDictNotFound) {
					t.Fatalf("PredictDownloadCycles: got %v, want ErrDictNotFound", err)
				}
			}
		})
	}
}

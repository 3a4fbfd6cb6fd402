// Shared-dictionary endpoint tests: the /v1/dict lifecycle over HTTP,
// and the differential guarantee that compress-by-dictionary-ID — sync,
// sharded and async-job — is byte-identical to the in-process preloaded
// path for every conformance-corpus case.
package server_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"lzwtc"
	"lzwtc/client"
	"lzwtc/internal/jobs"
	"lzwtc/internal/server"
)

// dictCorpusCases is corpusCases with the dictionary tier's contract
// applied: FullReset cannot carry a preload, so those corpus entries
// run under FullFreeze.
func dictCorpusCases() map[string]lzwtc.Config {
	out := map[string]lzwtc.Config{}
	for name, cfg := range corpusCases() {
		if cfg.Full == lzwtc.FullReset {
			cfg.Full = lzwtc.FullFreeze
		}
		out[name] = cfg
	}
	return out
}

// TestDictHTTPLifecycle walks one dictionary through every endpoint:
// train (fresh then cached), fetch, delete, miss, re-upload.
func TestDictHTTPLifecycle(t *testing.T) {
	c, srv := startService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc4-freeze")
	cfg := dictCorpusCases()["cc4-freeze"]

	info, err := c.TrainDict(ctx, ts, cfg, 0)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	if info.Source != "trained" {
		t.Fatalf("first training resolved from %q, want trained", info.Source)
	}
	if want := lzwtc.DictKeyFor(ts, cfg).String(); info.Key != want {
		t.Fatalf("server derived key %s, client derives %s — content addressing diverged", info.Key, want)
	}
	if info.Entries == 0 || info.BlobBytes == 0 {
		t.Fatalf("trained dictionary is empty: %+v", info)
	}

	// The same corpus trains idempotently: second call is a cache hit.
	again, err := c.TrainDict(ctx, ts, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if again.Source != "mem" || again.Digest != info.Digest {
		t.Fatalf("repeat training: source %q digest match %v", again.Source, again.Digest == info.Digest)
	}

	blob, err := c.FetchDict(ctx, info.Key)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	gotCfg, pre, err := lzwtc.DecodeDictBlob(blob)
	if err != nil {
		t.Fatalf("fetched blob does not decode: %v", err)
	}
	if gotCfg != cfg || pre.Entries() != info.Entries {
		t.Fatalf("fetched blob decodes to cfg %+v / %d entries, want %+v / %d",
			gotCfg, pre.Entries(), cfg, info.Entries)
	}

	if err := c.DeleteDict(ctx, info.Key); err != nil {
		t.Fatalf("delete: %v", err)
	}
	var apiErr *client.APIError
	if _, err := c.FetchDict(ctx, info.Key); !errors.As(err, &apiErr) || apiErr.Code != server.CodeDictNotFound {
		t.Fatalf("fetch after delete: got %v, want %s", err, server.CodeDictNotFound)
	}
	if err := c.DeleteDict(ctx, info.Key); !errors.As(err, &apiErr) || apiErr.Code != server.CodeDictNotFound {
		t.Fatalf("double delete: got %v, want %s", err, server.CodeDictNotFound)
	}

	// Push restores the exact dictionary from the blob alone.
	pushed, err := c.PushDict(ctx, info.Key, blob)
	if err != nil {
		t.Fatalf("push: %v", err)
	}
	if pushed.Digest != info.Digest || pushed.Entries != info.Entries {
		t.Fatalf("pushed dictionary %+v does not match the trained one %+v", pushed, info)
	}

	// Every dictionary operation rode the dedicated endpoint counter.
	if n := srv.Registry().Snapshot().CounterValue(server.MetricDictRequests); n < 6 {
		t.Fatalf("%s = %d after 7 dictionary calls", server.MetricDictRequests, n)
	}
}

// TestDictHTTPRejects covers the endpoint's input validation: garbage
// keys, blobs whose digest does not match their claimed key, and
// training under a reset policy.
func TestDictHTTPRejects(t *testing.T) {
	c, _ := startService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc4-freeze")
	cfg := dictCorpusCases()["cc4-freeze"]

	var apiErr *client.APIError
	if _, err := c.FetchDict(ctx, "not-a-key"); !errors.As(err, &apiErr) || apiErr.Code != server.CodeBadRequest {
		t.Fatalf("malformed key: got %v, want %s", err, server.CodeBadRequest)
	}

	resetCfg := cfg
	resetCfg.Full = lzwtc.FullReset
	if _, err := c.TrainDict(ctx, ts, resetCfg, 0); !errors.As(err, &apiErr) || apiErr.Code != server.CodeBadRequest {
		t.Fatalf("full=reset training: got %v, want %s", err, server.CodeBadRequest)
	}

	// The key is an opaque handle (only the trainer can derive it from
	// the corpus), so a push under any key is accepted — but the blob's
	// content digest travels with it, which is what 'D'-frame resolution
	// verifies.
	info, err := c.TrainDict(ctx, ts, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.FetchDict(ctx, info.Key)
	if err != nil {
		t.Fatal(err)
	}
	otherKey := lzwtc.DictKeyFor(ts, cfg)
	otherKey[0] ^= 0xFF
	aliased, err := c.PushDict(ctx, otherKey.String(), blob)
	if err != nil {
		t.Fatalf("push under an alias key: %v", err)
	}
	if aliased.Digest != info.Digest {
		t.Fatal("alias push changed the content digest")
	}
	if _, err := c.PushDict(ctx, info.Key, blob[:len(blob)-2]); !errors.As(err, &apiErr) || apiErr.Code != server.CodeDictInvalid {
		t.Fatalf("truncated blob: got %v, want %s", err, server.CodeDictInvalid)
	}
}

// TestDictRemoteCompressDifferential is the remote half of the
// differential guarantee: for every conformance case, compressing by
// dictionary ID over HTTP yields a container byte-identical to the
// in-process preloaded compression, and the server decompresses it back
// to the in-process text.
func TestDictRemoteCompressDifferential(t *testing.T) {
	c, _ := startService(t, server.Config{})
	ctx := context.Background()
	for name, cfg := range dictCorpusCases() {
		name, cfg := name, cfg
		t.Run(name, func(t *testing.T) {
			ts := readCorpusSet(t, name)

			info, err := c.TrainDict(ctx, ts, cfg, 0)
			if err != nil {
				t.Fatalf("train: %v", err)
			}
			container, err := c.Compress(ctx, ts, cfg, client.CompressOptions{DictID: info.Key})
			if err != nil {
				t.Fatalf("remote compress: %v", err)
			}

			// In-process reference: same training, same sharding (0 ⇒ one
			// frame), same 'D'-frame container.
			pre, err := lzwtc.Train(ts, cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			key, err := lzwtc.ParseDictKey(info.Key)
			if err != nil {
				t.Fatal(err)
			}
			store, err := lzwtc.OpenDictStore(lzwtc.DictStoreConfig{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			ent, err := store.PutPreload(key, cfg, pre)
			if err != nil {
				t.Fatal(err)
			}
			if ent.Digest.String() != info.Digest {
				t.Fatal("local and remote training produced different canonical blobs")
			}
			sr, err := lzwtc.Compress(ctx, ts, cfg, lzwtc.Options{Dict: ent})
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := sr.WriteWire(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(container, want.Bytes()) {
				t.Fatalf("remote dict container differs from in-process (%d vs %d bytes)",
					len(container), want.Len())
			}

			// The hosting server resolves its own 'D' frame on the way back.
			remoteSet, err := c.Decompress(ctx, container)
			if err != nil {
				t.Fatalf("remote decompress: %v", err)
			}
			localSet, err := lzwtc.Decompress(ctx, bytes.NewReader(container), lzwtc.Options{Resolver: store})
			if err != nil {
				t.Fatal(err)
			}
			var remoteText, localText bytes.Buffer
			if err := remoteSet.WriteCubes(&remoteText); err != nil {
				t.Fatal(err)
			}
			if err := localSet.WriteCubes(&localText); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(remoteText.Bytes(), localText.Bytes()) {
				t.Fatal("remote decompression of the dict container diverged from in-process")
			}
			if err := lzwtc.Verify(ts, remoteSet); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDictJobDifferential: the async tier accepts dictid at submit,
// produces the same container the sync endpoint does, and rejects a
// dangling dictionary reference at submit time (not at run time).
func TestDictJobDifferential(t *testing.T) {
	c, srv := startService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc4-freeze")
	cfg := dictCorpusCases()["cc4-freeze"]

	info, err := c.TrainDict(ctx, ts, cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := client.CompressOptions{DictID: info.Key, ShardPatterns: 7}
	sync, err := c.Compress(ctx, ts, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	async, err := c.CompressJob(ctx, ts, cfg, opts)
	if err != nil {
		t.Fatalf("async compress: %v", err)
	}
	if !bytes.Equal(async, sync) {
		t.Fatalf("async dict container differs from sync (%d vs %d bytes)", len(async), len(sync))
	}

	// A dictid nobody trained fails the submit itself with the typed
	// code — no job is enqueued for a doomed compression.
	before := srv.Registry().Snapshot().CounterValue(jobs.MetricJobsSubmitted)
	if before == 0 {
		t.Fatal("submit counter did not register the successful job")
	}
	dangling := lzwtc.DictKeyFor(ts, cfg)
	dangling[31] ^= 0x01
	var apiErr *client.APIError
	_, err = c.SubmitCompressJob(ctx, ts, cfg, client.CompressOptions{DictID: dangling.String()})
	if !errors.As(err, &apiErr) || apiErr.Code != server.CodeDictNotFound {
		t.Fatalf("dangling dictid submit: got %v, want %s", err, server.CodeDictNotFound)
	}
	if after := srv.Registry().Snapshot().CounterValue(jobs.MetricJobsSubmitted); after != before {
		t.Fatalf("dangling dictid still enqueued a job (%d -> %d)", before, after)
	}
}

// TestDictStatsSection: /v1/stats carries the dictionary-store section
// and it moves with traffic.
func TestDictStatsSection(t *testing.T) {
	c, _ := startService(t, server.Config{})
	ctx := context.Background()
	ts := readCorpusSet(t, "cc2-freeze")
	cfg := dictCorpusCases()["cc2-freeze"]

	if _, err := c.TrainDict(ctx, ts, cfg, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.TrainDict(ctx, ts, cfg, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		ds := stats.DictStore
		if ds.Entries == 1 && ds.Trains == 1 && ds.Hits >= 1 && ds.MemBytes > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("dict_store stats never settled: %+v", ds)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

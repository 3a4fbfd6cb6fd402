package lzwtc

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"lzwtc/internal/core"
	"lzwtc/internal/dictstore"
	"lzwtc/internal/parallel"
	"lzwtc/internal/wire"
)

// Preload is a warm-start dictionary: strings installed before
// compression begins, so repeat traffic skips the cold-start ramp the
// paper's ratio curves pay on every session.
type Preload = core.Preload

// DictStore is the shared-dictionary cache tier: a content-addressed
// store of trained dictionaries (memory LRU + optional disk index).
type DictStore = dictstore.Store

// DictStoreConfig configures OpenDictStore.
type DictStoreConfig = dictstore.Config

// DictKey is a content address in the dictionary store: SHA-256 of the
// canonicalized training input and configuration.
type DictKey = dictstore.Key

// DictRef names a stored dictionary inside a wire container: the store
// key plus the canonical blob digest that proves the resolved
// dictionary is the one the compressor used.
type DictRef = wire.DictRef

// ParseDictKey parses the 64-char hex form of a store key (the form
// the CLI and the HTTP API speak).
func ParseDictKey(s string) (DictKey, error) { return dictstore.ParseKey(s) }

// Dictionary-store typed errors, re-exported for callers that never
// import internal packages. Test with errors.Is.
var (
	ErrDictNotFound       = dictstore.ErrNotFound
	ErrDictChecksum       = dictstore.ErrDictChecksum
	ErrDictTruncated      = dictstore.ErrDictTruncated
	ErrDictDigestMismatch = dictstore.ErrDigestMismatch
	ErrWireDictFrame      = wire.ErrDictFrame
)

// OpenDictStore opens a dictionary store. The zero config is a
// memory-only store with default budgets; set Dir for persistence.
func OpenDictStore(cfg DictStoreConfig) (*DictStore, error) { return dictstore.Open(cfg) }

// Train builds a preload dictionary from a training test set: the set
// is compressed once and the dictionary state it built becomes the
// preload. maxEntries <= 0 keeps every entry the run created.
func Train(ts *TestSet, cfg Config, maxEntries int) (*Preload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ts.Cubes) == 0 {
		return nil, fmt.Errorf("lzwtc: empty training set")
	}
	return core.Train(ts.SerializeAligned(cfg.CharBits), cfg, maxEntries)
}

// DictKeyFor derives the content address a training set compresses
// under: SHA-256 over the canonical text form of the patterns (width
// plus one '0'/'1'/'X' line per pattern) and the configuration. The
// same patterns under the same config always map to the same key, no
// matter how they were parsed or transported.
func DictKeyFor(ts *TestSet, cfg Config) DictKey {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%d\n", ts.Width)
	for _, c := range ts.Cubes {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return dictstore.KeyFor(b.Bytes(), cfg)
}

// EncodeDictBlob renders a trained dictionary as a portable LZWD blob
// (the form `lzwtc dict push` uploads and /v1/dict serves).
func EncodeDictBlob(cfg Config, pre *Preload) ([]byte, error) {
	return dictstore.EncodeBlob(cfg, pre)
}

// DecodeDictBlob parses and fully validates an LZWD blob.
func DecodeDictBlob(data []byte) (Config, *Preload, error) {
	return dictstore.DecodeBlob(data)
}

// CompressShardedPreloaded is CompressSharded with every shard starting
// from the same warm dictionary — the multi-frame form of a 'D'-frame
// container (each frame reinstalls the preload). A nil pre is a cold
// start and patternsPerShard <= 0 is one shard, so this one call covers
// every compression the service runs.
func CompressShardedPreloaded(ctx context.Context, ts *TestSet, cfg Config, pre *Preload, patternsPerShard int, opts BatchOptions) (*Result, error) {
	shards, patterns, err := parallel.CompressShardedPreloaded(ctx, ts, cfg, pre, patternsPerShard, opts)
	if err != nil {
		return nil, err
	}
	return newResult(ts, cfg, shards, patterns), nil
}

// WriteWireDict is s.WriteWire(w) with ref as the dictionary the 'D'
// frame names; s itself is not modified. The receiver resolves ref
// through its own store and verifies the digest before decompressing.
func WriteWireDict(w io.Writer, s *Result, ref DictRef) error {
	r := *s
	r.Dict = &ref
	return r.WriteWire(w)
}

// DictEntryRef derives the container reference for a store entry.
func DictEntryRef(ent *dictstore.Entry) DictRef {
	return DictRef{Key: ent.Key, Digest: ent.Digest}
}

// DictResolver resolves a container's dictionary reference into the
// preload it names. *DictStore implements it; a test double or a
// remote-fetching resolver fits the same seam.
type DictResolver interface {
	ResolveDict(ctx context.Context, ref DictRef) (*Preload, error)
}

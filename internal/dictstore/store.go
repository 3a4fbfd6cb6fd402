package dictstore

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"lzwtc/internal/core"
	"lzwtc/internal/telemetry"
	"lzwtc/internal/wire"
)

// Typed store errors.
var (
	// ErrNotFound reports a key present in neither the memory LRU nor
	// the disk index.
	ErrNotFound = errors.New("dictstore: dictionary not found")
	// errClosed reports an operation on a closed store.
	errClosed = errors.New("dictstore: store closed")
	// ErrDigestMismatch reports a resolved dictionary whose canonical
	// blob digest differs from the one a container references: the key
	// named a dictionary, but not the dictionary the container was
	// compressed with.
	ErrDigestMismatch = errors.New("dictstore: dictionary digest mismatch")
)

// Source reports where a resolution was served from.
type Source uint8

// Resolution sources.
const (
	// SourceMem is a memory-LRU hit.
	SourceMem Source = iota
	// SourceDisk is a disk rehydration (the entry also re-enters the
	// memory LRU).
	SourceDisk
	// SourceTrained means the singleflight leader ran the training
	// function; waiters sharing the flight report the same source.
	SourceTrained
)

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceMem:
		return "mem"
	case SourceDisk:
		return "disk"
	case SourceTrained:
		return "trained"
	default:
		return fmt.Sprintf("Source(%d)", uint8(s))
	}
}

// TrainFunc produces a preload dictionary on a store miss. It runs at
// most once per key across concurrent GetOrTrain calls (singleflight).
type TrainFunc func(ctx context.Context) (*core.Preload, error)

// Config tunes a Store. The zero value is a memory-only store with the
// default budget.
type Config struct {
	// MemBudget bounds the decoded bytes the in-memory LRU holds;
	// <= 0 means 64 MiB. An entry larger than the whole budget is
	// served and persisted but never cached in memory.
	MemBudget int64
	// Dir is the on-disk persistent index directory (created if
	// absent); empty disables persistence.
	Dir string
	// DiskBudget bounds the blob bytes the disk index holds; <= 0
	// means 256 MiB.
	DiskBudget int64
	// Registry receives store metrics; nil allocates a private one.
	Registry *telemetry.Registry
	// Recorder records one SpanDictResolve trace span per resolution;
	// nil disables spans.
	Recorder *telemetry.Recorder
}

// Entry is one resolved dictionary: the decoded preload plus the
// identity of its canonical blob. Entries are immutable once stored
// and may be shared across goroutines.
type Entry struct {
	// Key is the content address the entry is stored under.
	Key Key
	// Cfg is the configuration the dictionary was trained under.
	Cfg core.Config
	// Pre is the decoded preload dictionary.
	Pre *core.Preload
	// Digest is the SHA-256 of the canonical blob encoding.
	Digest Digest
	// BlobBytes is the canonical blob size.
	BlobBytes int

	memBytes int64
}

// Stats is a point-in-time store snapshot.
type Stats struct {
	// Entries and MemBytes describe the memory LRU.
	Entries  int
	MemBytes int64
	// DiskEntries and DiskBytes describe the disk index (zero for a
	// memory-only store).
	DiskEntries int
	DiskBytes   int64
	// Hits, Misses, Evictions and Trains mirror the registry counters.
	Hits      int64
	Misses    int64
	Evictions int64
	Trains    int64
}

// flight is one in-progress miss resolution; waiters block on done.
type flight struct {
	done chan struct{}
	ent  *Entry
	src  Source
	err  error
}

// Store is the shared-dictionary cache: a byte-budgeted LRU over
// decoded preload dictionaries, singleflight miss resolution, and an
// optional crash-safe disk index behind it.
type Store struct {
	memBudget int64
	rec       *telemetry.Recorder
	hits      *telemetry.Counter
	misses    *telemetry.Counter
	evictions *telemetry.Counter
	trains    *telemetry.Counter
	memG      *telemetry.Gauge
	diskG     *telemetry.Gauge

	mu       sync.Mutex
	elems    map[Key]*list.Element // -> *Entry, LRU front = most recent
	lru      *list.List
	memBytes int64
	flights  map[Key]*flight
	disk     *diskIndex
	closed   bool
}

// Open builds a Store, creating and reconciling the disk index when
// Config.Dir is set (leftover temp files from a crashed writer are
// removed; manifest entries without blob files are dropped; blob files
// without manifest entries are adopted).
func Open(cfg Config) (*Store, error) {
	if cfg.MemBudget <= 0 {
		cfg.MemBudget = 64 << 20
	}
	if cfg.DiskBudget <= 0 {
		cfg.DiskBudget = 256 << 20
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Store{
		memBudget: cfg.MemBudget,
		rec:       cfg.Recorder,
		hits:      reg.Counter(metricHits, "dictionary resolutions served without training"),
		misses:    reg.Counter(metricMisses, "dictionary resolutions that trained or found nothing"),
		evictions: reg.Counter(metricEvictions, "dictionary entries evicted from memory or disk"),
		trains:    reg.Counter(metricTrains, "training runs executed through the singleflight gate"),
		memG:      reg.Gauge(metricBytes, "decoded bytes held by the memory LRU"),
		diskG:     reg.Gauge(metricDiskBytes, "blob bytes held by the disk index"),
		elems:     map[Key]*list.Element{},
		lru:       list.New(),
		flights:   map[Key]*flight{},
	}
	if cfg.Dir != "" {
		disk, err := openDiskIndex(cfg.Dir, cfg.DiskBudget)
		if err != nil {
			return nil, err
		}
		s.disk = disk
		s.diskG.Set(float64(disk.totalBytes()))
	}
	return s, nil
}

// SetRecorder re-points the store's trace spans at rec (metrics keep
// the registry chosen at Open). The server calls it once while wiring
// an injected store into its request tracing, before traffic starts;
// it is not synchronized against concurrent resolutions.
func (s *Store) SetRecorder(rec *telemetry.Recorder) { s.rec = rec }

// Close marks the store closed. In-flight resolutions complete; new
// operations fail with errClosed. The disk index needs no flush — every
// mutation already persisted via rename.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// Resolve returns the entry for key from the memory LRU or the disk
// index, without training: ErrNotFound when neither layer has it.
func (s *Store) Resolve(ctx context.Context, key Key) (*Entry, error) {
	ent, _, err := s.GetOrTrain(ctx, key, core.Config{}, nil)
	return ent, err
}

// GetOrTrain resolves key: memory LRU, then disk, then — on a full
// miss — the training function, executed exactly once per key across
// concurrent callers (later callers block on the first's flight and
// share its result). A nil train turns the full miss into ErrNotFound.
// cfg is the configuration train trains under; it is ignored for hits
// (the stored entry's own configuration governs).
func (s *Store) GetOrTrain(ctx context.Context, key Key, cfg core.Config, train TrainFunc) (*Entry, Source, error) {
	if s.rec == nil {
		// No recorder: skip span bookkeeping so a warm memory hit is
		// allocation-free (the hot repeat-traffic path).
		return s.getOrTrain(ctx, key, cfg, train)
	}
	rctx, sp := s.rec.StartSpan(ctx, SpanDictResolve)
	ent, src, err := s.getOrTrain(rctx, key, cfg, train)
	sp.End(telemetry.F("source", src.String()), telemetry.F("ok", err == nil))
	return ent, src, err
}

func (s *Store) getOrTrain(ctx context.Context, key Key, cfg core.Config, train TrainFunc) (*Entry, Source, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, SourceMem, errClosed
	}
	if el, ok := s.elems[key]; ok {
		s.lru.MoveToFront(el)
		ent := el.Value.(*Entry)
		s.mu.Unlock()
		s.hits.Inc()
		return ent, SourceMem, nil
	}
	if fl, ok := s.flights[key]; ok {
		s.mu.Unlock()
		select {
		case <-fl.done:
			if fl.err != nil {
				return nil, fl.src, fl.err
			}
			s.hits.Inc()
			return fl.ent, fl.src, nil
		case <-ctx.Done():
			return nil, SourceMem, ctx.Err()
		}
	}
	fl := &flight{done: make(chan struct{})}
	s.flights[key] = fl
	s.mu.Unlock()

	fl.ent, fl.src, fl.err = s.resolveMiss(ctx, key, cfg, train)

	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(fl.done)
	return fl.ent, fl.src, fl.err
}

// resolveMiss is the flight leader's path: disk rehydration, then
// training. Runs without the store lock (insert re-acquires it).
func (s *Store) resolveMiss(ctx context.Context, key Key, cfg core.Config, train TrainFunc) (*Entry, Source, error) {
	if s.disk != nil {
		blob, ok, err := s.disk.load(key)
		if err != nil {
			return nil, SourceDisk, err
		}
		if ok {
			bcfg, pre, derr := DecodeBlob(blob)
			if derr == nil {
				ent := newEntry(key, bcfg, pre, blob)
				s.insertMem(ent)
				s.hits.Inc()
				return ent, SourceDisk, nil
			}
			// A corrupt on-disk blob is detected, evicted, and treated
			// as a miss — never decoded into a wrong dictionary.
			if rerr := s.disk.remove(key); rerr != nil {
				return nil, SourceDisk, errors.Join(derr, rerr)
			}
			s.evictions.Inc()
			s.diskG.Set(float64(s.disk.totalBytes()))
		}
	}
	if train == nil {
		s.misses.Inc()
		return nil, SourceTrained, ErrNotFound
	}
	s.misses.Inc()
	s.trains.Inc()
	pre, err := train(ctx)
	if err != nil {
		return nil, SourceTrained, err
	}
	ent, err := s.insert(key, cfg, pre)
	if err != nil {
		return nil, SourceTrained, err
	}
	return ent, SourceTrained, nil
}

// PutPreload stores an already-trained dictionary under key, encoding
// its canonical blob, inserting it into the memory LRU and persisting
// it to the disk index. An existing entry under the same key is
// replaced.
func (s *Store) PutPreload(key Key, cfg core.Config, pre *core.Preload) (*Entry, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, errClosed
	}
	return s.insert(key, cfg, pre)
}

// PutBlob validates an uploaded blob and stores it under key. The blob
// is fully decoded (every structural rule re-checked) and re-encoded
// canonically, so a non-canonical but valid upload converges to the
// same digest as a local training run.
func (s *Store) PutBlob(key Key, blob []byte) (*Entry, error) {
	cfg, pre, err := DecodeBlob(blob)
	if err != nil {
		return nil, err
	}
	return s.PutPreload(key, cfg, pre)
}

// insert encodes, caches and persists one entry.
func (s *Store) insert(key Key, cfg core.Config, pre *core.Preload) (*Entry, error) {
	blob, err := EncodeBlob(cfg, pre)
	if err != nil {
		return nil, err
	}
	ent := newEntry(key, cfg, pre, blob)
	s.insertMem(ent)
	if s.disk != nil {
		evicted, err := s.disk.put(key, blob)
		if err != nil {
			return nil, err
		}
		s.evictions.Add(int64(evicted))
		s.diskG.Set(float64(s.disk.totalBytes()))
	}
	return ent, nil
}

// newEntry builds an Entry, accounting the decoded footprint: the
// blob plus the reconstructed strings (8 bytes per character plus
// slice headers).
func newEntry(key Key, cfg core.Config, pre *core.Preload, blob []byte) *Entry {
	mem := int64(len(blob))
	for _, str := range pre.Strings {
		mem += int64(8*len(str)) + 24
	}
	return &Entry{
		Key:       key,
		Cfg:       cfg,
		Pre:       pre,
		Digest:    BlobDigest(blob),
		BlobBytes: len(blob),
		memBytes:  mem,
	}
}

// insertMem adds (or replaces) an entry in the memory LRU and evicts
// from the cold end until the byte budget holds. An entry larger than
// the whole budget is not cached at all, so the budget is never
// exceeded.
func (s *Store) insertMem(ent *Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.elems[ent.Key]; ok {
		s.memBytes -= el.Value.(*Entry).memBytes
		s.lru.Remove(el)
		delete(s.elems, ent.Key)
	}
	if ent.memBytes > s.memBudget {
		s.memG.Set(float64(s.memBytes))
		return
	}
	s.elems[ent.Key] = s.lru.PushFront(ent)
	s.memBytes += ent.memBytes
	for s.memBytes > s.memBudget {
		back := s.lru.Back()
		old := back.Value.(*Entry)
		s.lru.Remove(back)
		delete(s.elems, old.Key)
		s.memBytes -= old.memBytes
		s.evictions.Inc()
	}
	s.memG.Set(float64(s.memBytes))
}

// ResolveDict resolves a wire dictionary reference for decompression:
// the key is looked up (memory, then disk) and the resolved entry's
// canonical digest must match the one the container carries —
// ErrDigestMismatch otherwise, so a same-key-different-dictionary
// store can never silently misdecode a container.
func (s *Store) ResolveDict(ctx context.Context, ref wire.DictRef) (*core.Preload, error) {
	ent, err := s.Resolve(ctx, Key(ref.Key))
	if err != nil {
		return nil, err
	}
	if ent.Digest != Digest(ref.Digest) {
		return nil, fmt.Errorf("%w: key %s resolved digest %s, container wants %x",
			ErrDigestMismatch, ent.Key, ent.Digest, ref.Digest)
	}
	return ent.Pre, nil
}

// Blob returns the canonical blob encoding of a stored dictionary
// (resolving through memory or disk), for serving fetches.
func (s *Store) Blob(ctx context.Context, key Key) ([]byte, *Entry, error) {
	ent, err := s.Resolve(ctx, key)
	if err != nil {
		return nil, nil, err
	}
	blob, err := EncodeBlob(ent.Cfg, ent.Pre)
	if err != nil {
		return nil, nil, err
	}
	return blob, ent, nil
}

// Delete evicts key from both layers, reporting whether anything was
// removed.
func (s *Store) Delete(key Key) (bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, errClosed
	}
	removed := false
	if el, ok := s.elems[key]; ok {
		s.memBytes -= el.Value.(*Entry).memBytes
		s.lru.Remove(el)
		delete(s.elems, key)
		s.memG.Set(float64(s.memBytes))
		removed = true
	}
	s.mu.Unlock()
	if s.disk != nil {
		had, err := s.disk.contains(key)
		if err == nil && had {
			err = s.disk.remove(key)
			removed = removed || err == nil
		}
		if err != nil {
			return removed, err
		}
		s.diskG.Set(float64(s.disk.totalBytes()))
	}
	if removed {
		s.evictions.Inc()
	}
	return removed, nil
}

// EntryInfo is one listed entry.
type EntryInfo struct {
	Key Key
	// Entries is the preload string count (-1 when only the disk
	// index knows the key and the blob has not been decoded).
	Entries int
	// BlobBytes is the canonical blob size.
	BlobBytes int
	// InMem reports memory-LRU residency.
	InMem bool
}

// List snapshots the store's contents: every memory-resident entry
// plus disk-only keys (undecoded, size from the index).
func (s *Store) List() []EntryInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []EntryInfo
	seen := map[Key]bool{}
	for el := s.lru.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*Entry)
		out = append(out, EntryInfo{Key: ent.Key, Entries: ent.Pre.Entries(), BlobBytes: ent.BlobBytes, InMem: true})
		seen[ent.Key] = true
	}
	if s.disk != nil {
		for _, de := range s.disk.list() {
			if !seen[de.key] {
				out = append(out, EntryInfo{Key: de.key, Entries: -1, BlobBytes: int(de.bytes)})
			}
		}
	}
	return out
}

// Stats snapshots the store counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		Entries:   s.lru.Len(),
		MemBytes:  s.memBytes,
		Hits:      s.hits.Value(),
		Misses:    s.misses.Value(),
		Evictions: s.evictions.Value(),
		Trains:    s.trains.Value(),
	}
	s.mu.Unlock()
	if s.disk != nil {
		entries, bytes := s.disk.stats()
		st.DiskEntries, st.DiskBytes = entries, bytes
	}
	return st
}

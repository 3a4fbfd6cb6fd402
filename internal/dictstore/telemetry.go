package dictstore

// Metric names exported by the store. Every name is a distinct package
// const — never computed — so the lzwtcvet metricname check can audit
// the full surface against the names the tests assert.
const (
	// metricHits counts resolutions served from the store (memory LRU
	// or disk rehydration) without training.
	metricHits = "lzwtc_dictstore_hits_total"
	// metricMisses counts resolutions that had to train (or that found
	// nothing, for pure lookups).
	metricMisses = "lzwtc_dictstore_misses_total"
	// metricEvictions counts entries dropped from the memory LRU or
	// the disk index — by byte budget, explicit delete, or corruption.
	metricEvictions = "lzwtc_dictstore_evictions_total"
	// metricBytes gauges the decoded bytes currently held by the
	// memory LRU.
	metricBytes = "lzwtc_dictstore_bytes"
	// metricDiskBytes gauges the blob bytes currently in the disk
	// index.
	metricDiskBytes = "lzwtc_dictstore_disk_bytes"
	// metricTrains counts actual core.Train executions through the
	// singleflight gate — under concurrent misses on one key this
	// advances once, which the concurrency suite asserts.
	metricTrains = "lzwtc_dictstore_trains_total"
)

// SpanDictResolve is the trace span one store resolution records
// (lookup, singleflight wait, disk rehydration or training — whatever
// the request paid for), nesting under the caller's request span.
const SpanDictResolve = "dict.resolve"

package core

import (
	"sync"
	"sync/atomic"

	"lzwtc/internal/telemetry"
)

// The dictionary arena: compression and decompression runs check their
// dict back in when they finish, and the next run — same goroutine or a
// different internal/parallel worker — reinitializes the backing arrays
// in place instead of reallocating seven columns plus the probe table.
// Per-shard and per-batch-job dictionary construction (the FullReset-
// equivalent boundaries of the sharded mode) therefore costs a memclr,
// not an allocation storm. A recycled dict whose arrays are too small
// for the requested configuration is dropped and a fresh one allocated
// (an arena miss).
var dictPool sync.Pool

// Global arena effectiveness counters. Runs without a telemetry
// recorder still count here, so ArenaStats always reflects the whole
// process; recorder-carrying runs additionally mirror the counts into
// their registry (MetricDictPoolRecycles / MetricDictPoolMisses).
var (
	arenaRecycles atomic.Int64
	arenaMisses   atomic.Int64
)

// ArenaStats reports process-lifetime dictionary arena counts: recycles
// (a pooled dict was reinitialized in place) and misses (a fresh dict
// was allocated).
func ArenaStats() (recycles, misses int64) {
	return arenaRecycles.Load(), arenaMisses.Load()
}

// acquireDict returns a ready dictionary for cfg, recycled from the
// arena when possible. rec (nil-safe) receives the recycle/miss counter
// increment when it carries a registry.
func acquireDict(cfg Config, rec *telemetry.Recorder) *dict {
	if v := dictPool.Get(); v != nil {
		d := v.(*dict)
		if d.fits(cfg) {
			d.reinit(cfg)
			countArena(rec, true)
			return d
		}
		// Too small for this configuration: let the GC have it and pay
		// for a fresh allocation.
	}
	countArena(rec, false)
	return newDict(cfg)
}

// maxPooledCodes caps the code column a pooled dictionary keeps: 4 MiB
// of codes. A larger column, left by one huge body, is dropped on
// release rather than pinned in the arena.
const maxPooledCodes = 1 << 20

// releaseDict checks a dictionary back into the arena. Safe on nil. The
// dict must not be referenced by the caller afterwards; every acquire
// path reinitializes before use, so stale contents can never leak into
// a later run.
func releaseDict(d *dict) {
	if d == nil {
		return
	}
	if cap(d.emit) > maxPooledCodes {
		d.emit = nil
	}
	dictPool.Put(d)
}

func countArena(rec *telemetry.Recorder, recycled bool) {
	if recycled {
		arenaRecycles.Add(1)
	} else {
		arenaMisses.Add(1)
	}
	reg := rec.Registry()
	if reg == nil {
		return
	}
	if recycled {
		reg.Counter(MetricDictPoolRecycles, "dictionaries recycled from the arena").Inc()
	} else {
		reg.Counter(MetricDictPoolMisses, "dictionaries freshly allocated (arena miss)").Inc()
	}
}

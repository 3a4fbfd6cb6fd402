package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"time"

	"lzwtc"
	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/dictstore"
	"lzwtc/internal/parallel"
	"lzwtc/internal/wire"
)

// replayLoops is how many timed loops replay runs; each gets an equal
// share of the replay budget.
const replayLoops = 12

// resolvesPerCall batches warm dictionary resolutions, which take tens
// of nanoseconds each, so clock reads do not dominate the loop.
const resolvesPerCall = 1000

// timeLoop calls fn, which returns the units of work it did, once
// untimed and then repeatedly for at least d (and at least twice). It
// returns the time and the heap bytes allocated per unit.
func timeLoop(d time.Duration, fn func() (float64, error)) (nsPerUnit, bytesPerUnit float64, err error) {
	if _, err := fn(); err != nil {
		return 0, 0, err
	}
	allocs0 := heapAllocBytes()
	start := time.Now()
	units := 0.0
	for iters := 0; iters < 2 || time.Since(start) < d; iters++ {
		u, err := fn()
		if err != nil {
			return 0, 0, err
		}
		units += u
	}
	elapsed := time.Since(start)
	return ratio(float64(elapsed.Nanoseconds()), units), ratio(float64(heapAllocBytes()-allocs0), units), nil
}

// replayInput is one input cut the way the service cuts it: one group
// of patterns per frame, each serialized once up front.
type replayInput struct {
	*input
	groups   []*lzwtc.TestSet
	streams  []*bitvec.Vector // groups, serialized aligned
	filledSt []*bitvec.Vector // the reference's filled groups, serialized aligned
}

func newReplayInputs(inputs []*input) []replayInput {
	out := make([]replayInput, len(inputs))
	for i, in := range inputs {
		r := replayInput{input: in, groups: parallel.SplitPatterns(in.ts, in.shard)}
		for _, g := range r.groups {
			r.streams = append(r.streams, g.SerializeAligned(in.cfg.CharBits))
		}
		for _, g := range parallel.SplitPatterns(in.filled, in.shard) {
			r.filledSt = append(r.filledSt, g.SerializeAligned(in.cfg.CharBits))
		}
		out[i] = r
	}
	return out
}

// compressStream is the core compressor, warm-started when the input
// names a dictionary.
func (r replayInput) compressStream(s *bitvec.Vector) (*core.Result, error) {
	if r.pre != nil {
		return core.CompressWithPreload(s, r.cfg, r.pre)
	}
	return core.Compress(s, r.cfg)
}

// replay times each layer's public functions on the workload's inputs,
// calling them directly in this goroutine, and returns per-layer
// metrics by name.
func replay(ctx context.Context, inputs []*input, budget time.Duration) (map[string]float64, error) {
	d := budget / replayLoops
	rs := newReplayInputs(inputs)
	m := map[string]float64{}
	var err error
	// each runs fn over every input and sums the units it reports.
	each := func(fn func(r replayInput) (float64, error)) func() (float64, error) {
		return func() (float64, error) {
			total := 0.0
			for _, r := range rs {
				u, err := fn(r)
				if err != nil {
					return 0, err
				}
				total += u
			}
			return total, nil
		}
	}
	bits := func(r replayInput) float64 { return float64(r.ts.TotalBits()) }
	timed := func(perUnit, allocPerUnit string, fn func(r replayInput) (float64, error)) {
		if err != nil {
			return
		}
		var ns, alloc float64
		ns, alloc, err = timeLoop(d, each(fn))
		m[perUnit] = ns
		if allocPerUnit != "" {
			m[allocPerUnit] = alloc
		}
	}

	timed("bitvec.parse.ns_per_bit", "bitvec.parse.alloc_bytes_per_bit", func(r replayInput) (float64, error) {
		_, err := lzwtc.ReadTestSet(bytes.NewReader(r.text))
		return bits(r), err
	})
	timed("bitvec.serialize.ns_per_bit", "bitvec.serialize.alloc_bytes_per_bit", func(r replayInput) (float64, error) {
		for _, g := range r.groups {
			g.SerializeAligned(r.cfg.CharBits)
		}
		return bits(r), nil
	})
	timed("bitvec.deserialize.ns_per_bit", "bitvec.deserialize.alloc_bytes_per_bit", func(r replayInput) (float64, error) {
		for _, s := range r.filledSt {
			if _, err := bitvec.DeserializeAligned(s, r.ts.Width, r.cfg.CharBits); err != nil {
				return 0, err
			}
		}
		return bits(r), nil
	})
	var text bytes.Buffer
	timed("bitvec.render.ns_per_bit", "bitvec.render.alloc_bytes_per_bit", func(r replayInput) (float64, error) {
		text.Reset()
		return bits(r), r.filled.WriteCubes(&text)
	})
	timed("core.compress.ns_per_char", "core.compress.alloc_bytes_per_char", func(r replayInput) (float64, error) {
		chars := 0
		for _, s := range r.streams {
			res, err := r.compressStream(s)
			if err != nil {
				return 0, err
			}
			chars += res.Stats.Chars
		}
		return float64(chars), nil
	})
	timed("core.decompress.ns_per_char", "core.decompress.alloc_bytes_per_char", func(r replayInput) (float64, error) {
		chars := 0
		for _, sh := range r.sharded.Shards {
			var err error
			if r.pre != nil {
				_, err = core.DecompressWithPreload(sh.Codes, r.cfg, r.pre, sh.InputBits)
			} else {
				_, err = core.Decompress(sh.Codes, r.cfg, sh.InputBits)
			}
			if err != nil {
				return 0, err
			}
			chars += sh.Stats.Chars
		}
		return float64(chars), nil
	})
	codes := func(r replayInput) float64 {
		n := 0
		for _, sh := range r.sharded.Shards {
			n += len(sh.Codes)
		}
		return float64(n)
	}
	var container bytes.Buffer
	timed("wire.encode.ns_per_code", "", func(r replayInput) (float64, error) {
		container.Reset()
		if r.pre != nil {
			return codes(r), lzwtc.WriteWireDict(&container, r.sharded, r.ref)
		}
		return codes(r), lzwtc.WriteWireSharded(&container, r.sharded)
	})
	timed("wire.read.ns_per_code", "", func(r replayInput) (float64, error) {
		wr, err := wire.NewReader(bytes.NewReader(r.container))
		if err != nil {
			return 0, err
		}
		for {
			if _, err := wr.ReadFrame(); errors.Is(err, io.EOF) {
				return codes(r), nil
			} else if err != nil {
				return 0, err
			}
		}
	})

	// parallel.speedup: the frames compressed one after another in this
	// goroutine, against the sharded pipeline's wall time.
	timed("parallel.serial_ns", "", func(r replayInput) (float64, error) {
		for _, g := range r.groups {
			if _, err := r.compressStream(g.SerializeAligned(r.cfg.CharBits)); err != nil {
				return 0, err
			}
		}
		return 1, nil
	})
	timed("parallel.sharded_ns", "", func(r replayInput) (float64, error) {
		var err error
		if r.pre != nil {
			_, err = lzwtc.CompressShardedPreloaded(ctx, r.ts, r.cfg, r.pre, r.shard, lzwtc.BatchOptions{})
		} else {
			_, err = lzwtc.CompressSharded(ctx, r.ts, r.cfg, r.shard, lzwtc.BatchOptions{})
		}
		return 1, err
	})
	m["parallel.speedup"] = ratio(m["parallel.serial_ns"], m["parallel.sharded_ns"])
	delete(m, "parallel.serial_ns")
	delete(m, "parallel.sharded_ns")

	m["dictstore.resolve.ns"], m["core.train.ms"] = 0, 0
	for _, r := range rs {
		if r.pre == nil || err != nil {
			continue
		}
		err = replayDict(ctx, r, d, m)
	}
	return m, err
}

// replayDict times a warm resolution of the input's dictionary in a
// private memory store and a training run on its training half.
func replayDict(ctx context.Context, r replayInput, d time.Duration, m map[string]float64) error {
	store, err := dictstore.Open(dictstore.Config{})
	if err != nil {
		return err
	}
	defer store.Close() //nolint:errcheck // memory-only store; Close cannot fail
	if _, err := store.PutPreload(dictstore.Key(r.ref.Key), r.cfg, r.pre); err != nil {
		return err
	}
	ns, _, err := timeLoop(d, func() (float64, error) {
		for i := 0; i < resolvesPerCall; i++ {
			if _, err := store.ResolveDict(ctx, r.ref); err != nil {
				return 0, err
			}
		}
		return resolvesPerCall, nil
	})
	if err != nil {
		return err
	}
	m["dictstore.resolve.ns"] = ns
	ns, _, err = timeLoop(d, func() (float64, error) {
		_, err := lzwtc.Train(r.train, r.cfg, 0)
		return 1, err
	})
	m["core.train.ms"] = ns / 1e6
	return err
}

package lzwtc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"lzwtc/internal/bench"
	"lzwtc/internal/core"
	"lzwtc/internal/parallel"
	"lzwtc/internal/telemetry"
)

// batchJobs builds a job grid: a few seeded sets crossed with a few
// configurations, including FullReset and the DictSize==2^CharBits
// edge.
func batchJobs() []BatchJob {
	sets := []*TestSet{
		conformanceSet(1, 40, 61, 0.8),
		conformanceSet(2, 25, 33, 0.5),
		conformanceSet(3, 10, 97, 0.95),
		conformanceSet(4, 17, 24, 0.0),
	}
	cfgs := []Config{
		{CharBits: 4, DictSize: 64, EntryBits: 16},
		{CharBits: 2, DictSize: 16, EntryBits: 8, Full: FullReset},
		{CharBits: 3, DictSize: 8, EntryBits: 9, Full: FullReset}, // literal-only edge
		{CharBits: 7, DictSize: 256, EntryBits: 63, Tie: TieNewest},
	}
	var jobs []BatchJob
	for si, s := range sets {
		for ci, cfg := range cfgs {
			jobs = append(jobs, BatchJob{Name: fmt.Sprintf("set%d/cfg%d", si, ci), Set: s, Cfg: cfg})
		}
	}
	return jobs
}

// sequentialResults compresses the jobs one at a time through the
// core's serialized-stream entry point, sharing no code with the pool.
func sequentialResults(t *testing.T, jobs []BatchJob) []*core.Result {
	t.Helper()
	out := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		res, err := core.Compress(j.Set.SerializeAligned(j.Cfg.CharBits), j.Cfg)
		if err != nil {
			t.Fatalf("sequential %s: %v", j.Name, err)
		}
		out[i] = res
	}
	return out
}

// TestCompressBatchMatchesSequential is the differential property: for
// every worker count and job order, CompressBatch's output is
// byte-identical to the sequential loop, result i always belonging to
// job i.
func TestCompressBatchMatchesSequential(t *testing.T) {
	jobs := batchJobs()
	want := sequentialResults(t, jobs)

	workerCounts := []int{1, runtime.NumCPU(), 2 * runtime.NumCPU()}
	for _, workers := range workerCounts {
		for trial := 0; trial < 3; trial++ {
			// Shuffle the submission order; expectations follow the
			// permutation, so this also proves order-independence.
			perm := rand.New(rand.NewSource(int64(workers*100 + trial))).Perm(len(jobs))
			shuffled := make([]BatchJob, len(jobs))
			for i, p := range perm {
				shuffled[i] = jobs[p]
			}
			results, err := CompressBatch(context.Background(), shuffled, BatchOptions{Workers: workers})
			if err != nil {
				t.Fatalf("workers=%d trial=%d: %v", workers, trial, err)
			}
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("workers=%d job %s: %v", workers, r.Job.Name, r.Err)
				}
				exp := want[perm[i]]
				if len(r.Result.Shards) != 1 || !bytes.Equal(r.Result.Shards[0].Pack(), exp.Pack()) {
					t.Fatalf("workers=%d job %s: packed stream differs from sequential", workers, r.Job.Name)
				}
				if r.Result.Stats() != exp.Stats {
					t.Fatalf("workers=%d job %s: stats differ: %+v vs %+v", workers, r.Job.Name, r.Result.Stats(), exp.Stats)
				}
				if r.Result.OriginalBits != shuffled[i].Set.TotalBits() {
					t.Fatalf("workers=%d job %s: OriginalBits %d, want %d", workers, r.Job.Name, r.Result.OriginalBits, shuffled[i].Set.TotalBits())
				}
			}
		}
	}
}

// TestCompressBatchReportsBadJobs: under CollectAll a bad config or an
// empty set errors in its own job while the others complete; under
// FailFast the first bad job fails the batch and the jobs that never
// started report ErrSkipped.
func TestCompressBatchReportsBadJobs(t *testing.T) {
	good := conformanceSet(9, 5, 16, 0.5)
	cfg := Config{CharBits: 4, DictSize: 32, EntryBits: 8}
	jobs := []BatchJob{
		{Name: "ok", Set: good, Cfg: cfg},
		{Name: "bad-cfg", Set: good, Cfg: Config{CharBits: 0, DictSize: 32}},
		{Name: "empty", Set: NewTestSet(16), Cfg: cfg},
	}
	results, err := CompressBatch(context.Background(), jobs, BatchOptions{Policy: CollectAll})
	if err != nil {
		t.Fatalf("collect-all: %v", err)
	}
	if results[0].Err != nil || results[0].Result == nil {
		t.Fatalf("good job failed: %v", results[0].Err)
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Fatalf("bad jobs did not error: %v / %v", results[1].Err, results[2].Err)
	}
	if results[1].Result != nil || results[2].Result != nil {
		t.Fatal("failed jobs carry results")
	}

	failFast := []BatchJob{jobs[1], jobs[0], jobs[0], jobs[0]}
	results, err = CompressBatch(context.Background(), failFast, BatchOptions{Workers: 1, Policy: FailFast})
	if err == nil || !errors.Is(err, results[0].Err) {
		t.Fatalf("fail-fast overall error = %v, want the bad job's error %v", err, results[0].Err)
	}
	for i := 1; i < len(results); i++ {
		if !errors.Is(results[i].Err, ErrSkipped) || results[i].Result != nil {
			t.Fatalf("job %d after the failure: (%v, %v), want ErrSkipped and no result", i, results[i].Result, results[i].Err)
		}
	}
}

// TestBatchRecyclesDictArena pins the arena contract for the pool: every
// job acquires exactly one dictionary (recycles + misses == jobs), and a
// batch with more jobs than workers reuses dictionaries released by
// earlier jobs rather than allocating fresh ones throughout.
func TestBatchRecyclesDictArena(t *testing.T) {
	// Many copies of the same moderate config so released dictionaries
	// always fit the next acquisition.
	set := conformanceSet(9, 12, 48, 0.7)
	cfg := Config{CharBits: 4, DictSize: 128, EntryBits: 20}
	var jobs []BatchJob
	for i := 0; i < 48; i++ {
		jobs = append(jobs, BatchJob{Name: fmt.Sprintf("job%d", i), Set: set, Cfg: cfg})
	}

	reg := telemetry.NewRegistry()
	opts := BatchOptions{Workers: 2, Recorder: telemetry.New(reg)}
	if _, err := CompressBatch(context.Background(), jobs, opts); err != nil {
		t.Fatal(err)
	}

	var recycles, misses int64
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case core.MetricDictPoolRecycles:
			recycles = c.Value
		case core.MetricDictPoolMisses:
			misses = c.Value
		}
	}
	if recycles+misses != int64(len(jobs)) {
		t.Fatalf("recycles(%d) + misses(%d) = %d, want one acquisition per job (%d)",
			recycles, misses, recycles+misses, len(jobs))
	}
	// 48 jobs over 2 workers: at most a handful of dictionaries can be
	// live at once, so the vast majority of acquisitions must recycle.
	// (sync.Pool may shed entries under GC pressure, hence > 0 rather
	// than an exact count.)
	if recycles == 0 {
		t.Fatalf("no dictionary recycled across %d same-config jobs (misses=%d)", len(jobs), misses)
	}
}

func shardConfig() Config {
	return Config{CharBits: 4, DictSize: 128, EntryBits: 16}
}

// TestShardedMatchesSequentialShards: the packed per-shard streams
// Compress produces are byte-identical to compressing each shard alone
// — the sharded half of the differential property, across worker
// counts.
func TestShardedMatchesSequentialShards(t *testing.T) {
	cs := conformanceSet(12, 50, 29, 0.85)
	cfg := shardConfig()
	const per = 7
	groups := parallel.SplitPatterns(cs, per)
	want := make([][]byte, len(groups))
	for i, g := range groups {
		res, err := core.Compress(g.SerializeAligned(cfg.CharBits), cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Pack()
	}
	for _, workers := range []int{1, runtime.NumCPU(), 2 * runtime.NumCPU()} {
		res, err := Compress(context.Background(), cs, cfg, Options{ShardPatterns: per, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Shards) != len(groups) {
			t.Fatalf("workers=%d: %d shards, want %d", workers, len(res.Shards), len(groups))
		}
		for i, sh := range res.Shards {
			if !bytes.Equal(sh.Pack(), want[i]) {
				t.Fatalf("workers=%d: shard %d stream differs from sequential", workers, i)
			}
		}
	}
}

// TestShardRatioCostMeasured: sharding costs ratio (fresh dictionaries
// per shard) — the summed shard volume is no smaller than the
// monolithic run on a workload with cross-pattern structure.
func TestShardRatioCostMeasured(t *testing.T) {
	cs := conformanceSet(13, 120, 64, 0.8)
	cfg := Config{CharBits: 4, DictSize: 256, EntryBits: 32}
	mono, err := core.Compress(cs.SerializeAligned(cfg.CharBits), cfg)
	if err != nil {
		t.Fatal(err)
	}
	monoRatio := 1 - float64(mono.Stats.CompressedBits)/float64(cs.TotalBits())
	res, err := Compress(context.Background(), cs, cfg, Options{ShardPatterns: 10})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, sh := range res.Shards {
		sum += sh.Stats.CompressedBits
	}
	if ratio := 1 - float64(sum)/float64(cs.TotalBits()); ratio > monoRatio+1e-9 {
		t.Fatalf("sharded ratio %.4f beats monolithic %.4f — dictionary reset cost vanished", ratio, monoRatio)
	}
}

// TestShardTelemetry: every compressed shard, and every batch job,
// counts once on the shard counter and observes its ratio once.
func TestShardTelemetry(t *testing.T) {
	shardMetrics := func(reg *telemetry.Registry) (shards, observed int64) {
		snap := reg.Snapshot()
		for _, c := range snap.Counters {
			if c.Name == metricShards {
				shards = c.Value
			}
		}
		for _, h := range snap.Histograms {
			if h.Name == metricShardRatio {
				observed = h.Count
			}
		}
		return shards, observed
	}

	reg := telemetry.NewRegistry()
	cs := conformanceSet(14, 30, 32, 0.6)
	res, err := Compress(context.Background(), cs, shardConfig(), Options{ShardPatterns: 5, Recorder: telemetry.New(reg)})
	if err != nil {
		t.Fatal(err)
	}
	if shards, observed := shardMetrics(reg); shards != int64(len(res.Shards)) || observed != int64(len(res.Shards)) {
		t.Fatalf("%s = %d, %s observations = %d, want %d each", metricShards, shards, metricShardRatio, observed, len(res.Shards))
	}

	reg = telemetry.NewRegistry()
	jobs := batchJobs()
	if _, err := CompressBatch(context.Background(), jobs, BatchOptions{Recorder: telemetry.New(reg)}); err != nil {
		t.Fatal(err)
	}
	if shards, observed := shardMetrics(reg); shards != int64(len(jobs)) || observed != int64(len(jobs)) {
		t.Fatalf("batch: %s = %d, %s observations = %d, want %d each", metricShards, shards, metricShardRatio, observed, len(jobs))
	}
}

// spanCapture is a threadsafe sink collecting decoded span records;
// pool workers emit concurrently.
type spanCapture struct {
	mu    sync.Mutex
	spans []telemetry.SpanRecord
}

func (c *spanCapture) Emit(ev telemetry.Event) {
	if rec, ok := telemetry.SpanRecordFromEvent(ev); ok {
		c.mu.Lock()
		c.spans = append(c.spans, rec)
		c.mu.Unlock()
	}
}

// TestBatchTraceLinkage: every pool job span and the core phases inside
// it must join the request trace carried by ctx — one batch, one trace.
func TestBatchTraceLinkage(t *testing.T) {
	cap := &spanCapture{}
	rec := telemetry.New(telemetry.NewRegistry(), cap)
	ctx, root := rec.StartSpan(context.Background(), "test.batch")

	jobs := batchJobs()
	if _, err := CompressBatch(ctx, jobs, BatchOptions{Workers: 4, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	root.End()

	rootSC := root.Context()
	byName := map[string][]telemetry.SpanRecord{}
	for _, s := range cap.spans {
		if s.TraceID != rootSC.String()[:16] {
			t.Fatalf("span %s in trace %s, want %s", s.Name, s.TraceID, rootSC.String()[:16])
		}
		byName[s.Name] = append(byName[s.Name], s)
	}

	jobSpans := byName[parallel.EventJob]
	if len(jobSpans) != len(jobs) {
		t.Fatalf("%q spans = %d, want %d", parallel.EventJob, len(jobSpans), len(jobs))
	}
	rootID := rootSC.String()[17:]
	jobIDs := map[string]bool{}
	for _, js := range jobSpans {
		if js.ParentID != rootID {
			t.Fatalf("job span parent %s, want batch root %s", js.ParentID, rootID)
		}
		if js.Attrs["status"] != "ok" {
			t.Fatalf("job span status = %q: %+v", js.Attrs["status"], js)
		}
		jobIDs[js.SpanID] = true
	}

	// Each job compresses straight from its cube set: one match loop per
	// job, and no serialization span.
	if n := len(byName[core.SpanMatchLoop]); n != len(jobs) {
		t.Fatalf("%q spans = %d, want %d", core.SpanMatchLoop, n, len(jobs))
	}
	if n := len(byName[core.SpanSerialize]); n != 0 {
		t.Fatalf("%q spans = %d, want none", core.SpanSerialize, n)
	}
	// Core phases nest beneath the job spans too — the trace descends
	// through the pool into the compression core.
	for _, name := range []string{core.SpanDictBuild, core.SpanMatchLoop} {
		for _, ps := range byName[name] {
			if !jobIDs[ps.ParentID] {
				t.Fatalf("%s span parented on %s, not on any job span", name, ps.ParentID)
			}
		}
		if len(byName[name]) == 0 {
			t.Fatalf("no %s spans recorded", name)
		}
	}
}

// TestShardedTraceLinkage: sharded compression runs one match loop per
// shard; those spans must also join the caller's trace.
func TestShardedTraceLinkage(t *testing.T) {
	cap := &spanCapture{}
	rec := telemetry.New(telemetry.NewRegistry(), cap)
	ctx, root := rec.StartSpan(context.Background(), "test.shard")

	cs := conformanceSet(9, 40, 61, 0.8)
	cfg := Config{CharBits: 4, DictSize: 64, EntryBits: 16}
	if _, err := Compress(ctx, cs, cfg, Options{ShardPatterns: 10, Workers: 2, Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	root.End()

	trace := root.Context().String()[:16]
	var loops int
	for _, s := range cap.spans {
		if s.TraceID != trace {
			t.Fatalf("span %s escaped the trace: %s != %s", s.Name, s.TraceID, trace)
		}
		if s.Name == core.SpanMatchLoop {
			loops++
		}
	}
	if loops < 2 {
		t.Fatalf("sharded run produced %d match-loop spans, want one per shard (>=2)", loops)
	}
}

// table3Jobs builds the Table 3 batch: all twelve calibrated circuits
// under their paper configurations. Generation happens once, outside
// the timed region.
func table3Jobs(b *testing.B) ([]BatchJob, int) {
	b.Helper()
	var jobs []BatchJob
	patterns := 0
	for _, p := range bench.Profiles() {
		cc := 7
		for cc > 1 && 1<<uint(cc) >= p.DictSize {
			cc--
		}
		jobs = append(jobs, BatchJob{
			Name: p.Name,
			Set:  p.Generate(),
			Cfg:  Config{CharBits: cc, DictSize: p.DictSize, EntryBits: 63},
		})
		patterns += p.Patterns
	}
	return jobs, patterns
}

// BenchmarkBatchCompress measures CompressBatch throughput
// (patterns/sec and Mbit/sec of scan data) over the full Table 3
// workload at 1, 4 and NumCPU workers. On a machine with NumCPU >= 4
// the parallel rows should clear 3x the workers=1 row; output
// equivalence with the sequential path is pinned separately by
// TestCompressBatchMatchesSequential.
func BenchmarkBatchCompress(b *testing.B) {
	jobs, patterns := table3Jobs(b)
	bits := 0
	for _, j := range jobs {
		bits += j.Set.TotalBits()
	}
	seen := map[int]bool{}
	var workerCounts []int
	for _, w := range []int{1, 4, runtime.NumCPU()} {
		if !seen[w] {
			seen[w] = true
			workerCounts = append(workerCounts, w)
		}
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				results, err := CompressBatch(context.Background(), jobs, BatchOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(patterns*b.N)/secs, "patterns/s")
				b.ReportMetric(float64(bits*b.N)/secs/1e6, "Mbit/s")
			}
		})
	}
}

// BenchmarkShardedCompress measures sharded Compress on the largest
// Table 3 circuit (b17): throughput plus the measured ratio cost of
// per-shard dictionary resets, reported as ratio deltas.
func BenchmarkShardedCompress(b *testing.B) {
	p, err := bench.ByName("b17")
	if err != nil {
		b.Fatal(err)
	}
	cs := p.Generate()
	cfg := Config{CharBits: 7, DictSize: p.DictSize, EntryBits: 63}
	mono, err := core.Compress(cs.SerializeAligned(cfg.CharBits), cfg)
	if err != nil {
		b.Fatal(err)
	}
	monoRatio := 1 - float64(mono.Stats.CompressedBits)/float64(cs.TotalBits())
	for _, per := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("shard=%d", per), func(b *testing.B) {
			var res *Result
			for i := 0; i < b.N; i++ {
				res, err = Compress(context.Background(), cs, cfg, Options{ShardPatterns: per})
				if err != nil {
					b.Fatal(err)
				}
			}
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(p.Patterns*b.N)/secs, "patterns/s")
			}
			b.ReportMetric(100*res.Ratio(), "ratio_%")
			b.ReportMetric(100*(monoRatio-res.Ratio()), "ratio_cost_pp")
		})
	}
}

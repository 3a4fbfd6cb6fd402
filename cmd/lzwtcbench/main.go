// Command lzwtcbench is the repository's end-to-end benchmark: it runs
// one named workload against an in-process lzwtcd on loopback through
// the real client package (or, for local_cli, against the library the
// lzwtc CLI uses), checks every reply, and prints its metrics.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash cmd/lzwtcbench/run.sh -workload paper_sync [-seed 1] [-seconds 20] [-trace 0|1] [-trace-out spans.jsonl]
//
// An untraced run (-trace 0) prints the end-to-end metrics. A traced run
// (-trace 1) spends 30% of -seconds on an untraced baseline, 40% on
// traced load, and 30% timing each layer's public functions directly,
// and prints the per-layer metrics; -trace-out also writes the traced
// spans as JSONL for `lzwtc trace`. The last line of standard output is
// one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"},...}}
//
// A run in which any op fails still prints its result, then exits 1.
// See README.md for the workloads, the metrics and what each layer
// metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"lzwtc"
	"lzwtc/client"
	"lzwtc/internal/core"
	"lzwtc/internal/dictstore"
	"lzwtc/internal/jobs"
	"lzwtc/internal/parallel"
	"lzwtc/internal/server"
	"lzwtc/internal/telemetry"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lzwtcbench:", err)
		os.Exit(1)
	}
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports: what a user of the
// CLI or the service sees.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "ops/s"},
	{"compress_p50_ms", "ms"},
	{"compress_tail_ms", "ms"},
	{"decompress_p50_ms", "ms"},
	{"decompress_tail_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"ratio_pct", "%"},
}

// perLayer are the metrics a traced run reports, by layer (repository
// module). Self times are µs per op; a layer a workload never reaches
// reads 0 there.
var perLayer = []metricDef{
	{"bitvec.parse.ns_per_bit", "ns/bit"},
	{"bitvec.parse.alloc_bytes_per_bit", "B/bit"},
	{"bitvec.serialize.ns_per_bit", "ns/bit"},
	{"bitvec.serialize.alloc_bytes_per_bit", "B/bit"},
	{"bitvec.deserialize.ns_per_bit", "ns/bit"},
	{"bitvec.deserialize.alloc_bytes_per_bit", "B/bit"},
	{"bitvec.render.ns_per_bit", "ns/bit"},
	{"bitvec.render.alloc_bytes_per_bit", "B/bit"},
	{"core.compress.ns_per_char", "ns/char"},
	{"core.compress.alloc_bytes_per_char", "B/char"},
	{"core.decompress.ns_per_char", "ns/char"},
	{"core.decompress.alloc_bytes_per_char", "B/char"},
	{"core.compress.dict_hit_share", "fraction"},
	{"core.compress.chars_per_code", "chars/code"},
	{"core.compress.dynamic_fill_share", "fraction"},
	{"core.arena.recycle_share", "fraction"},
	{"core.serialize.self_us", "us"},
	{"core.dict_build.self_us", "us"},
	{"core.match_loop.self_us", "us"},
	{"core.decode.self_us", "us"},
	{"core.train.ms", "ms"},
	{"wire.encode.ns_per_code", "ns/code"},
	{"wire.read.ns_per_code", "ns/code"},
	{"wire.encode.self_us", "us"},
	{"wire.decode.self_us", "us"},
	{"parallel.batch_job.self_us", "us"},
	{"parallel.frames_per_op", "count"},
	{"parallel.speedup", "x"},
	{"dictstore.resolve.ns", "ns"},
	{"dictstore.resolve.self_us", "us"},
	{"dictstore.resolve.count_per_op", "count"},
	{"jobs.queue_wait_us", "us"},
	{"jobs.run.self_us", "us"},
	{"jobs.polls_per_op", "count"},
	{"server.compress.self_us", "us"},
	{"server.decompress.self_us", "us"},
	{"server.job.submit.self_us", "us"},
	{"client.request.self_us", "us"},
	{"client.outside_request.self_us", "us"},
	{"process.heap_live_peak_mb", "MB"},
	{"process.gc_cpu_frac", "fraction"},
	{"process.goroutines_peak", "count"},
	{"process.speed_probe_ms", "ms/call"},
	{"trace.unattributed_share", "fraction"},
	{"trace.self_sum_share", "fraction"},
	{"trace.overhead_pct", "%"},
}

// setupRuns is how many times an untraced run sets up; setup_s is the
// median, since one set-up takes a few tenths of a second and a single
// one is at the mercy of the scheduler.
const setupRuns = 7

// Shares of -seconds a traced run spends untraced, traced, and
// replaying layer functions.
const (
	baseShare   = 0.3
	tracedShare = 0.4
	replayShare = 0.3
)

// benchProcess stamps the benchmark's own spans and its clients'.
const benchProcess = "lzwtcbench"

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lzwtcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper_sync, bulk_async, warm_dict or local_cli")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "measured wall time of the run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, also write the traced spans as JSONL to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	dur := time.Duration(*seconds * float64(time.Second))

	var res result
	var values map[string]float64
	var defs []metricDef
	pr := startProbe()
	if *trace == 0 {
		defs = endToEnd
		values, res, err = measure(ctx, w, *seed, dur, stderr)
	} else {
		defs = perLayer
		values, res, err = measureTraced(ctx, w, *seed, dur, *traceOut, stderr)
	}
	kernelNs := pr.end()
	if err != nil {
		return err
	}
	values["process.speed_probe_ms"] = kernelNs / 1e6
	values["process.heap_live_peak_mb"] = float64(pr.liveBytes) / 1e6
	values["process.goroutines_peak"] = float64(pr.routines)
	fmt.Fprintf(stderr, "speed probe %.3f ms (reference %.3f ms): times scaled by %.3f\n",
		kernelNs/1e6, probeRefNs/1e6, ratio(probeRefNs, kernelNs))
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		raw, ok := values[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		v := scaleToReference(raw, d.unit, kernelNs)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stderr, "%-40s %14.6g %-10s unscaled %.6g\n", d.name, v, d.unit, raw)
	}
	res.Correct = res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	return nil
}

// measure is an untraced run: set up setupRuns times, keep the last
// set-up, and drive it for dur.
func measure(ctx context.Context, w workload, seed int64, dur time.Duration, stderr io.Writer) (map[string]float64, result, error) {
	var e *env
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		start := time.Now()
		var err error
		if e, err = setup(ctx, w, seed, nil); err != nil {
			return nil, result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRuns-1 {
			if err := e.close(); err != nil {
				return nil, result{}, err
			}
		}
	}
	runtime.GC()
	lr := e.load(ctx, dur, nil)
	if err := e.close(); err != nil {
		return nil, result{}, err
	}
	reportLoad(stderr, w, lr)

	q := tailQuantile(minCount(lr.comp), w.tail)
	comp, orig := 0, 0
	for _, in := range e.inputs {
		comp += in.sharded.CompressedBits()
		orig += in.sharded.OriginalBits
	}
	values := map[string]float64{
		"setup_s":            median(setups),
		"ops_per_s":          lr.opsPerSecond(),
		"compress_p50_ms":    perInputQuantile(lr.comp, 0.5),
		"compress_tail_ms":   perInputQuantile(lr.comp, q),
		"decompress_p50_ms":  perInputQuantile(lr.decomp, 0.5),
		"decompress_tail_ms": perInputQuantile(lr.decomp, q),
		"alloc_mb_per_op":    ratio(float64(lr.allocBytes), float64(lr.ops)) / 1e6,
		"ratio_pct":          100 * (1 - ratio(float64(comp), float64(orig))),
	}
	fmt.Fprintf(stderr, "tail quantile p%g over %d+ samples per input\n", 100*q, minCount(lr.comp))
	return values, result{Attempted: lr.ops + lr.failed, Failed: lr.failed}, nil
}

// measureTraced is a traced run: one set-up, an untraced baseline, the
// traced load, then the replay of each layer's functions.
func measureTraced(ctx context.Context, w workload, seed int64, dur time.Duration, traceOut string, stderr io.Writer) (map[string]float64, result, error) {
	sink := &spanSink{}
	e, err := setup(ctx, w, seed, sink)
	if err != nil {
		return nil, result{}, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	recycles0, misses0 := core.ArenaStats()
	gc0, cpu0 := cpuSeconds()
	base := e.load(ctx, time.Duration(baseShare*float64(dur)), nil)
	rec := telemetry.New(telemetry.NewRegistry(), sink).WithProcess(benchProcess)
	sink.on.Store(true)
	traced := e.load(ctx, time.Duration(tracedShare*float64(dur)), rec)
	// Once the server has drained, every job has ended its job.run span.
	closeErr := e.close()
	sink.on.Store(false)
	gc1, cpu1 := cpuSeconds()
	recycles1, misses1 := core.ArenaStats()
	if closeErr != nil {
		return nil, result{}, closeErr
	}
	reportLoad(stderr, w, base)
	reportLoad(stderr, w, traced)
	if traceOut != "" {
		if err := writeTrace(traceOut, sink); err != nil {
			return nil, result{}, err
		}
	}

	values, err := replay(ctx, e.inputs, time.Duration(replayShare*float64(dur)))
	if err != nil {
		return nil, result{}, fmt.Errorf("replay: %w", err)
	}
	addStats(values, e.inputs)
	s := summarize(sink.snapshot())
	fmt.Fprintf(stderr, "traced ops: %d\n", s.ops)
	values["core.serialize.self_us"] = s.perOp(core.SpanSerialize)
	values["core.dict_build.self_us"] = s.perOp(core.SpanDictBuild)
	values["core.match_loop.self_us"] = s.perOp(core.SpanMatchLoop)
	values["core.decode.self_us"] = s.perOp(core.SpanDecode)
	values["wire.encode.self_us"] = s.perOp(lzwtc.SpanWireEncode)
	values["wire.decode.self_us"] = s.perOp(lzwtc.SpanWireDecode)
	values["parallel.batch_job.self_us"] = s.perOp(parallel.EventJob)
	values["dictstore.resolve.self_us"] = s.perOp(dictstore.SpanDictResolve)
	values["dictstore.resolve.count_per_op"] = ratio(float64(s.count[dictstore.SpanDictResolve]), float64(s.ops))
	values["jobs.queue_wait_us"] = ratio(float64(s.queueWaitUS), float64(s.jobs))
	values["jobs.run.self_us"] = s.perOp(jobs.SpanJobRun)
	values["jobs.polls_per_op"] = ratio(float64(s.polls), float64(s.ops))
	values["server.compress.self_us"] = s.perOp(server.SpanCompress)
	values["server.decompress.self_us"] = s.perOp(server.SpanDecompress)
	values["server.job.submit.self_us"] = s.perOp(server.SpanJobSubmit)
	values["client.request.self_us"] = s.perOp(client.SpanClientRequest)
	values["client.outside_request.self_us"] = s.perOp(spanCompress, spanDecompress)
	var selfSum int64
	for _, t := range s.selfUS {
		selfSum += t
	}
	values["trace.unattributed_share"] = 1 - ratio(float64(s.coverUS), float64(s.opUS))
	values["trace.self_sum_share"] = ratio(float64(selfSum), float64(s.opUS))
	values["trace.overhead_pct"] = 100 * (1 - ratio(traced.opsPerSecond(), base.opsPerSecond()))
	values["core.arena.recycle_share"] = ratio(float64(recycles1-recycles0), float64(recycles1-recycles0+misses1-misses0))
	values["process.gc_cpu_frac"] = ratio(gc1-gc0, cpu1-cpu0)

	return values, result{
		Attempted: base.ops + base.failed + traced.ops + traced.failed,
		Failed:    base.failed + traced.failed,
	}, nil
}

// addStats derives the compression-outcome metrics from the reference
// compressions' statistics, weighting every input equally as the
// round-robin load does.
func addStats(values map[string]float64, inputs []*input) {
	var codes, strCodes, chars, dyn, residual, frames int
	for _, in := range inputs {
		frames += len(in.sharded.Shards)
		for _, sh := range in.sharded.Shards {
			st := sh.Stats
			codes += st.CodesEmitted
			strCodes += st.StringCodes
			chars += st.Chars
			dyn += st.DynamicFills
			residual += st.ResidualFills
		}
	}
	values["core.compress.dict_hit_share"] = ratio(float64(strCodes), float64(codes))
	values["core.compress.chars_per_code"] = ratio(float64(chars), float64(codes))
	values["core.compress.dynamic_fill_share"] = ratio(float64(dyn), float64(dyn+residual))
	values["parallel.frames_per_op"] = ratio(float64(frames), float64(len(inputs)))
}

// reportLoad prints a measured period's counts to stderr.
func reportLoad(stderr io.Writer, w workload, lr loadResult) {
	fmt.Fprintf(stderr, "%s: %d ops, %d failed in %.2fs (%.1f ops/s)\n",
		w.name, lr.ops, lr.failed, lr.elapsed.Seconds(), lr.opsPerSecond())
	if lr.firstErr != nil {
		fmt.Fprintln(stderr, "first failure:", lr.firstErr)
	}
}

func writeTrace(path string, sink *spanSink) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sink.writeJSONL(f); err != nil {
		f.Close() //nolint:errcheck // the write error is the one to report
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

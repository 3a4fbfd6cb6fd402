package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"lzwtc"
	"lzwtc/internal/telemetry"
)

// Trace span names for the stats pipeline. Each phase runs as a child
// of SpanStatsRun, so a -telemetry jsonl capture renders as one tree
// through `lzwtc trace`; the names match the pre-trace phase metrics,
// keeping lzwtc_phase_seconds_* series stable.
const (
	SpanStatsRun        = "stats.run"
	SpanStatsParse      = "parse"
	SpanStatsCompress   = "compress"
	SpanStatsPack       = "pack"
	SpanStatsDecompress = "decompress"
	SpanStatsVerify     = "verify"
)

// stats runs the whole pipeline — parse, compress, pack, decompress,
// verify — on a cube file, under one connected trace of telemetry
// spans, and prints one run record: the Table 1–3 quantities (ratio,
// code/char/dict-reset counts, the match-length histogram) plus the
// decompressor cycle totals when the configuration is
// hardware-realizable. The context is checked between pipeline phases,
// so SIGINT stops the run at the next phase boundary.
func stats(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "-", "input cube file (- for stdin)")
	cfg := configFlags(fs)
	ratio := fs.Int("ratio", 8, "internal-to-tester clock ratio for the decompressor model")
	jsonOut := fs.Bool("json", false, "emit the run record as a single JSON document")
	opts := telemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// stats always records into a registry (the report needs the
	// histograms); the flags only add event sinks and profiles on top.
	reg := telemetry.NewRegistry()
	rec, finish, err := opts.startWith(reg)
	if err != nil {
		return err
	}
	if rec == nil {
		rec = telemetry.New(reg).WithProcess(cliProcess)
	}

	// The run span is the trace root; each phase span below starts from
	// rctx, so the whole pipeline shares one trace ID.
	rctx, runSp := rec.StartSpan(ctx, SpanStatsRun)
	defer runSp.End()

	if err := ctx.Err(); err != nil {
		return err
	}
	_, sp := rec.StartSpan(rctx, SpanStatsParse)
	r, err := openIn(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	ts, err := lzwtc.ReadTestSet(r)
	sp.End()
	if err != nil {
		return err
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	cctx, sp := rec.StartSpan(rctx, SpanStatsCompress)
	res, err := lzwtc.Compress(cctx, ts, *cfg, lzwtc.Options{Recorder: rec})
	sp.End()
	if err != nil {
		return err
	}

	_, sp = rec.StartSpan(rctx, SpanStatsPack)
	packed := 0
	for _, sh := range res.Shards {
		packed += len(sh.Pack())
	}
	sp.End(telemetry.F("bytes", packed))

	record := lzwtc.NewRunRecord(res)

	if err := ctx.Err(); err != nil {
		return err
	}
	// Decompress through the cycle-accurate hardware model when the
	// configuration has a hardware realization; otherwise through the
	// software decoder (no cycle record either way the bits are checked).
	var filled *lzwtc.TestSet
	_, sp = rec.StartSpan(rctx, SpanStatsDecompress)
	if cfg.EntryBits > 0 && cfg.Full == lzwtc.FullFreeze {
		var st *lzwtc.DownloadStats
		filled, st, _, err = lzwtc.SimulateDownload(res, *ratio, rec)
		if err == nil {
			record.AttachDownload(*ratio, st)
		}
	} else {
		filled, err = res.Decompress(ctx, lzwtc.Options{})
	}
	sp.End()
	if err != nil {
		return err
	}

	_, sp = rec.StartSpan(rctx, SpanStatsVerify)
	err = lzwtc.Verify(ts, filled)
	sp.End()
	if err != nil {
		return err
	}

	record.AttachHistograms(reg.Snapshot())
	// End the root before finish() flushes and closes the event sinks;
	// the deferred End (error paths) is then a no-op.
	runSp.End()

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(record); err != nil {
			return err
		}
	} else {
		printStatsText(record)
	}
	return finish()
}

func printStatsText(rec lzwtc.RunRecord) {
	c := rec.Compress
	fmt.Printf("patterns:        %d x %d bits (%d bits total)\n", rec.Patterns, rec.Width, rec.OriginalBits)
	fmt.Printf("configuration:   C_C=%d  N=%d (C_E=%d)  C_MDATA=%d  fill=%s tie=%s full=%s\n",
		rec.Config.CharBits, rec.Config.DictSize, rec.Config.CodeBits, rec.Config.EntryBits,
		rec.Config.Fill, rec.Config.Tie, rec.Config.Full)
	fmt.Printf("compressed:      %d codes, %d bits (%.2f%% compression)\n",
		c.CodesEmitted, c.CompressedBits, 100*c.Ratio)
	fmt.Printf("codes:           %d literal, %d string; longest match %d chars\n",
		c.LiteralCodes, c.StringCodes, c.MaxMatchChars)
	fmt.Printf("dictionary:      %d entries, %d resets; longest entry %d chars\n",
		c.DictEntries, c.DictResets, c.MaxEntryChars)
	fmt.Printf("don't-cares:     %d residual fills, %d dynamic fills\n",
		c.ResidualFills, c.DynamicFills)
	if c.DictPoolRecycles+c.DictPoolMisses > 0 {
		fmt.Printf("dict arena:      %d recycled, %d fresh\n",
			c.DictPoolRecycles, c.DictPoolMisses)
	}
	if h := c.MatchLenHist; h != nil {
		fmt.Printf("match lengths:   ")
		prev := int64(0)
		for _, b := range h.Buckets {
			n := b.Count - prev
			prev = b.Count
			if n == 0 {
				continue
			}
			fmt.Printf("le%s:%d ", formatLe(b.UpperBound), n)
		}
		fmt.Println()
	}
	if d := rec.Decompressor; d != nil {
		fmt.Printf("decompressor:    %dx internal clock: %d tester cycles (%.2f%% improvement)\n",
			d.ClockRatio, d.TesterCycles, 100*d.Improvement)
		fmt.Printf("cycles:          %d internal = %d stall + %d decode + %d write + %d shift\n",
			d.InternalCycles, d.LoadStalls, d.DecodeCycles, d.WriteCycles, d.ShiftCycles)
		fmt.Printf("memory:          %d x %d bits, %d reads, %d writes; utilization %.1f%%\n",
			d.MemoryWords, d.MemoryWidth, d.MemReads, d.MemWrites, 100*d.Utilization)
	}
}

func formatLe(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// infoJSON renders a decoded container through the same RunRecord
// schema as stats, so the two subcommands agree on field names.
func infoJSON(res *lzwtc.Result) error {
	record := lzwtc.NewRunRecord(res)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(record)
}

package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"lzwtc"
)

// batchManifestJob is one parsed manifest line: a cube file and its
// (possibly overridden) configuration.
type batchManifestJob struct {
	Path string
	Name string
	Cfg  lzwtc.Config
}

// batchJobRecord is one job's row in the aggregate batch report.
type batchJobRecord struct {
	Name           string  `json:"name"`
	Input          string  `json:"input"`
	Error          string  `json:"error,omitempty"`
	Patterns       int     `json:"patterns,omitempty"`
	OriginalBits   int     `json:"original_bits,omitempty"`
	CompressedBits int     `json:"compressed_bits,omitempty"`
	Ratio          float64 `json:"ratio,omitempty"`
	Shards         int     `json:"shards,omitempty"`
}

// batchRecord is the aggregate report written as batch.json.
type batchRecord struct {
	Jobs           int              `json:"jobs"`
	OK             int              `json:"ok"`
	Failed         int              `json:"failed"`
	Workers        int              `json:"workers"`
	Policy         string           `json:"policy"`
	ShardPatterns  int              `json:"shard_patterns,omitempty"`
	WallMs         int64            `json:"wall_ms"`
	OriginalBits   int              `json:"original_bits"`
	CompressedBits int              `json:"compressed_bits"`
	Ratio          float64          `json:"ratio"`
	Results        []batchJobRecord `json:"results"`
}

// batch compresses every cube file of a manifest concurrently through
// the batch pool, writing one container and one run record per job plus
// an aggregate report. A manifest line is
//
//	path [char=N] [dict=N] [entry=N] [fill=zero|one|repeat]
//	     [tie=oldest|newest|widest] [full=freeze|reset]
//
// with '#' comments and blank lines ignored; relative paths resolve
// against the manifest's directory. Defaults come from the usual
// configuration flags. SIGINT cancels the batch cleanly mid-run.
func batch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("batch", flag.ExitOnError)
	manifest := fs.String("manifest", "-", "manifest file (- for stdin)")
	outDir := fs.String("out-dir", ".", "output directory for per-job containers and records")
	workers := fs.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
	policyName := fs.String("policy", "collect", "error policy: failfast (cancel batch on first error) or collect (run everything)")
	shardPatterns := fs.Int("shard-patterns", 0, "compress each set as shards of at most this many patterns (0 = unsharded)")
	cfg := configFlags(fs)
	opts := telemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	policy, err := parseBatchPolicy(*policyName)
	if err != nil {
		return err
	}
	rec, finish, err := opts.start()
	if err != nil {
		return err
	}

	manifestJobs, err := readManifest(*manifest, *cfg)
	if err != nil {
		return err
	}
	if len(manifestJobs) == 0 {
		return fmt.Errorf("batch: empty manifest")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}

	// Load every test set up front so a missing file fails before any
	// compression starts.
	jobs := make([]lzwtc.BatchJob, len(manifestJobs))
	for i, mj := range manifestJobs {
		f, err := os.Open(mj.Path)
		if err != nil {
			return fmt.Errorf("batch: %w", err)
		}
		ts, err := lzwtc.ReadTestSet(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("batch: %s: %w", mj.Path, err)
		}
		jobs[i] = lzwtc.BatchJob{Name: mj.Name, Set: ts, Cfg: mj.Cfg}
	}

	bopts := lzwtc.BatchOptions{Workers: *workers, Policy: policy, Recorder: rec}
	resolvedWorkers := *workers
	if resolvedWorkers <= 0 {
		resolvedWorkers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	agg := batchRecord{
		Jobs:          len(jobs),
		Workers:       resolvedWorkers,
		Policy:        policy.String(),
		ShardPatterns: *shardPatterns,
		Results:       make([]batchJobRecord, len(jobs)),
	}
	if *shardPatterns > 0 {
		err = runShardedBatch(ctx, jobs, *shardPatterns, bopts, *outDir, &agg)
	} else {
		err = runBatch(ctx, jobs, bopts, *outDir, &agg)
	}
	agg.WallMs = time.Since(start).Milliseconds()
	if err != nil {
		return err
	}

	for i := range agg.Results {
		agg.Results[i].Input = manifestJobs[i].Path
		if agg.Results[i].Error == "" {
			agg.OK++
			agg.OriginalBits += agg.Results[i].OriginalBits
			agg.CompressedBits += agg.Results[i].CompressedBits
		} else {
			agg.Failed++
		}
	}
	if agg.OriginalBits > 0 {
		agg.Ratio = 1 - float64(agg.CompressedBits)/float64(agg.OriginalBits)
	}
	if err := writeJSON(filepath.Join(*outDir, "batch.json"), agg); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "batch: %d ok, %d failed in %dms (%.2f%% aggregate compression)\n",
		agg.OK, agg.Failed, agg.WallMs, 100*agg.Ratio)
	if ferr := finish(); ferr != nil {
		return ferr
	}
	if agg.Failed > 0 {
		return fmt.Errorf("batch: %d of %d jobs failed", agg.Failed, agg.Jobs)
	}
	return nil
}

// runBatch is the unsharded path: one wire container (self-describing,
// CRC32C per region, explicit EOS) + run record per job.
func runBatch(ctx context.Context, jobs []lzwtc.BatchJob, opts lzwtc.BatchOptions, outDir string, agg *batchRecord) error {
	results, err := lzwtc.CompressBatch(ctx, jobs, opts)
	if err != nil {
		return err
	}
	for i, r := range results {
		agg.Results[i] = batchJobRecord{Name: r.Job.Name}
		if r.Err != nil {
			agg.Results[i].Error = r.Err.Error()
			continue
		}
		record := lzwtc.NewRunRecord(r.Result)
		base := filepath.Join(outDir, r.Job.Name)
		container, err := r.Result.EncodeWire()
		if err != nil {
			return err
		}
		if err := os.WriteFile(base+".lzw", container, 0o644); err != nil {
			return err
		}
		if err := writeJSON(base+".json", record); err != nil {
			return err
		}
		agg.Results[i].Patterns = r.Result.Patterns
		agg.Results[i].OriginalBits = r.Result.OriginalBits
		agg.Results[i].CompressedBits = r.Result.CompressedBits()
		agg.Results[i].Ratio = r.Result.Ratio()
	}
	return nil
}

// runShardedBatch compresses each set as pattern-group shards: one wire
// container per job with one frame per shard (each frame independently
// decompressible — a frame boundary is a FullReset) plus the job's
// sharded run record.
func runShardedBatch(ctx context.Context, jobs []lzwtc.BatchJob, per int, opts lzwtc.BatchOptions, outDir string, agg *batchRecord) error {
	for i, j := range jobs {
		agg.Results[i] = batchJobRecord{Name: j.Name}
		sr, err := lzwtc.CompressSharded(ctx, j.Set, j.Cfg, per, opts)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if opts.Policy == lzwtc.FailFast {
				return fmt.Errorf("batch: job %q: %w", j.Name, err)
			}
			agg.Results[i].Error = err.Error()
			continue
		}
		base := filepath.Join(outDir, j.Name)
		if err := writeShardedContainer(base+".lzw", sr); err != nil {
			return err
		}
		if err := writeJSON(base+".json", lzwtc.NewShardedRunRecord(sr)); err != nil {
			return err
		}
		agg.Results[i].Patterns = sr.Patterns
		agg.Results[i].OriginalBits = sr.OriginalBits
		agg.Results[i].CompressedBits = sr.CompressedBits()
		agg.Results[i].Ratio = sr.Ratio()
		agg.Results[i].Shards = len(sr.Shards)
	}
	return nil
}

// writeShardedContainer streams a sharded result into one wire
// container, one frame per shard.
func writeShardedContainer(path string, sr *lzwtc.ShardedResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lzwtc.WriteWireSharded(f, sr); err != nil {
		if cerr := f.Close(); cerr != nil {
			err = fmt.Errorf("%w (also closing %s: %v)", err, path, cerr)
		}
		return err
	}
	return f.Close()
}

// readManifest parses the manifest into jobs with unique names.
func readManifest(path string, defaults lzwtc.Config) ([]batchManifestJob, error) {
	r, err := openIn(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	baseDir := ""
	if path != "" && path != "-" {
		baseDir = filepath.Dir(path)
	}

	var jobs []batchManifestJob
	names := map[string]int{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		cubePath := fields[0]
		if baseDir != "" && !filepath.IsAbs(cubePath) {
			cubePath = filepath.Join(baseDir, cubePath)
		}
		cfg := defaults
		for _, kv := range fields[1:] {
			if err := applyManifestOption(&cfg, kv); err != nil {
				return nil, fmt.Errorf("batch: manifest line %d: %w", lineNo, err)
			}
		}
		name := strings.TrimSuffix(filepath.Base(fields[0]), filepath.Ext(fields[0]))
		names[name]++
		if n := names[name]; n > 1 {
			name = fmt.Sprintf("%s-%d", name, n)
		}
		jobs = append(jobs, batchManifestJob{Path: cubePath, Name: name, Cfg: cfg})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return jobs, nil
}

// applyManifestOption applies one key=value configuration override.
func applyManifestOption(cfg *lzwtc.Config, kv string) error {
	key, val, ok := strings.Cut(kv, "=")
	if !ok {
		return fmt.Errorf("malformed option %q (want key=value)", kv)
	}
	switch key {
	case "char", "dict", "entry":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("option %s: %w", key, err)
		}
		switch key {
		case "char":
			cfg.CharBits = n
		case "dict":
			cfg.DictSize = n
		case "entry":
			cfg.EntryBits = n
		}
	case "fill":
		switch val {
		case "zero":
			cfg.Fill = lzwtc.FillZero
		case "one":
			cfg.Fill = lzwtc.FillOne
		case "repeat":
			cfg.Fill = lzwtc.FillRepeat
		default:
			return fmt.Errorf("unknown fill policy %q (want zero, one or repeat)", val)
		}
	case "tie":
		switch val {
		case "oldest":
			cfg.Tie = lzwtc.TieOldest
		case "newest":
			cfg.Tie = lzwtc.TieNewest
		case "widest":
			cfg.Tie = lzwtc.TieWidest
		default:
			return fmt.Errorf("unknown tie policy %q (want oldest, newest or widest)", val)
		}
	case "full":
		switch val {
		case "freeze":
			cfg.Full = lzwtc.FullFreeze
		case "reset":
			cfg.Full = lzwtc.FullReset
		default:
			return fmt.Errorf("unknown full policy %q (want freeze or reset)", val)
		}
	default:
		return fmt.Errorf("unknown option %q (want char, dict, entry, fill, tie or full)", key)
	}
	return nil
}

// parseBatchPolicy maps the -policy flag onto the pool's error policy.
func parseBatchPolicy(s string) (lzwtc.ErrorPolicy, error) {
	switch s {
	case "failfast":
		return lzwtc.FailFast, nil
	case "collect":
		return lzwtc.CollectAll, nil
	}
	return 0, fmt.Errorf("batch: unknown -policy %q (want failfast or collect)", s)
}

// writeJSON writes v as indented JSON.
func writeJSON(path string, v interface{}) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		if cerr := f.Close(); cerr != nil {
			err = fmt.Errorf("%w (also closing %s: %v)", err, path, cerr)
		}
		return err
	}
	return f.Close()
}

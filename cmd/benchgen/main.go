// Command benchgen emits the calibrated benchmark workloads: test-cube
// sets matching the scan geometry and don't-care density of the paper's
// ISCAS89/ITC99 evaluation circuits.
//
// It also hosts the single-stream performance trajectory: -bench runs
// the fixed C_C × X-density grid of internal/bench and writes a
// BENCH_*.json report; -check diffs a fresh run against a committed
// baseline and exits non-zero on regression (the CI perf gate).
//
//	benchgen -list
//	benchgen -circuit s13207 -out s13207.cubes
//	benchgen -all -dir workloads/ -workers 4
//	benchgen -bench -benchtime 1s -out BENCH_4.json
//	benchgen -bench -check BENCH_4.json -tolerance 0.10
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"lzwtc/internal/bench"
	"lzwtc/internal/parallel"
)

func main() {
	list := flag.Bool("list", false, "list available circuits and exit")
	name := flag.String("circuit", "", "circuit to generate (see -list)")
	out := flag.String("out", "-", "output file (- for stdout): cubes, or the JSON report under -bench")
	all := flag.Bool("all", false, "generate every circuit concurrently (requires -dir)")
	dir := flag.String("dir", "", "output directory for -all (one <circuit>.cubes per profile)")
	workers := flag.Int("workers", 0, "worker bound for -all (0 = GOMAXPROCS)")
	doBench := flag.Bool("bench", false, "run the single-stream perf grid instead of generating cubes")
	benchTime := flag.Duration("benchtime", 250*time.Millisecond, "minimum timed duration per direction per case under -bench")
	benchBits := flag.Int("benchbits", bench.DefaultPerfBits, "stream length in bits per case under -bench")
	check := flag.String("check", "", "baseline BENCH_*.json to gate a fresh -bench run against")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional compress and decompress ns/char regression under -check")
	flag.Parse()

	if *doBench {
		if err := runBench(*out, *check, *benchBits, *benchTime, *tolerance); err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		fmt.Printf("%-8s %-8s %9s %9s %11s %6s\n", "name", "suite", "scan len", "patterns", "don't-cares", "N")
		for _, p := range bench.Profiles() {
			fmt.Printf("%-8s %-8s %9d %9d %10.2f%% %6d\n",
				p.Name, p.Suite, p.ScanLen, p.Patterns, 100*p.XDensity, p.DictSize)
		}
		return
	}
	if *all {
		if err := generateAll(*dir, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	p, err := bench.ByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: %v (try -list)\n", err)
		os.Exit(1)
	}
	cs := p.Generate()
	w := os.Stdout
	if *out != "-" && *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := cs.WriteCubes(w); err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "%s: %d patterns x %d bits, %.2f%% don't-cares (target %.2f%%)\n",
		p.Name, len(cs.Cubes), cs.Width, 100*cs.XDensity(), 100*p.XDensity)
}

// runBench measures the perf grid. With an -out path it writes the JSON
// report (the trajectory point future PRs diff against); with -check it
// instead compares the fresh run against the committed baseline and
// fails on compress or decompress ns/char regressions beyond the
// tolerance.
func runBench(out, check string, bits int, benchTime time.Duration, tolerance float64) error {
	rep, err := bench.RunPerf(bits, benchTime)
	if err != nil {
		return err
	}
	rep.Generated = time.Now().UTC().Format(time.RFC3339)

	if check != "" {
		data, err := os.ReadFile(check)
		if err != nil {
			return fmt.Errorf("reading baseline: %w", err)
		}
		var baseline bench.PerfReport
		if err := json.Unmarshal(data, &baseline); err != nil {
			return fmt.Errorf("parsing baseline %s: %w", check, err)
		}
		lines, failures := bench.ComparePerf(&baseline, rep, tolerance)
		for _, l := range lines {
			fmt.Println(l)
		}
		if len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintf(os.Stderr, "benchgen: FAIL %s\n", f)
			}
			return fmt.Errorf("%d case(s) regressed beyond %.0f%%", len(failures), 100*tolerance)
		}
		fmt.Printf("perf gate OK: %d cases within %.0f%% of %s\n", len(lines), 100*tolerance, check)
		return nil
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out != "-" && out != "" {
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	} else if _, err := os.Stdout.Write(data); err != nil {
		return err
	}
	for _, r := range rep.Results {
		fmt.Fprintf(os.Stderr, "%-9s compress %8.2f ns/char %8.2f MB/s %9.1f allocs/op   decompress %7.2f ns/char %8.2f MB/s %7.1f allocs/op\n",
			r.Case.Name, r.Compress.NsPerChar, r.Compress.MBPerSec, r.Compress.AllocsPerOp,
			r.Decompress.NsPerChar, r.Decompress.MBPerSec, r.Decompress.AllocsPerOp)
	}
	return nil
}

// generateAll writes every profile's cube set into dir through the
// batch pool; generation and file writes run concurrently, one file per
// circuit. SIGINT cancels cleanly mid-batch.
func generateAll(dir string, workers int) error {
	if dir == "" {
		return fmt.Errorf("-all requires -dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	profiles := bench.Profiles()
	outcomes, err := parallel.Map(ctx, profiles, parallel.Options{Workers: workers, Policy: parallel.CollectAll},
		func(_ context.Context, _ int, p bench.Profile) (string, error) {
			cs := p.Generate()
			path := filepath.Join(dir, p.Name+".cubes")
			f, err := os.Create(path)
			if err != nil {
				return "", err
			}
			if err := cs.WriteCubes(f); err != nil {
				if cerr := f.Close(); cerr != nil {
					err = fmt.Errorf("%w (also closing %s: %v)", err, path, cerr)
				}
				return "", err
			}
			if err := f.Close(); err != nil {
				return "", err
			}
			return path, nil
		})
	if err != nil {
		return err
	}
	failed := 0
	for i, o := range outcomes {
		if o.Err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "benchgen: %s: %v\n", profiles[i].Name, o.Err)
			continue
		}
		fmt.Fprintf(os.Stderr, "%s: %d patterns x %d bits -> %s\n",
			profiles[i].Name, profiles[i].Patterns, profiles[i].ScanLen, o.Value)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d circuits failed", failed, len(profiles))
	}
	return nil
}

// Command lzwtc compresses and decompresses scan test sets.
//
// Test sets are text files with one pattern of '0'/'1'/'X' per line.
// Compressed files are wire containers: the full configuration in a
// CRC-protected header, one frame per shard, an explicit end frame.
//
//	lzwtc compress  -in cubes.txt -out cubes.lzw [-char 7 -dict 1024 -entry 63] [-dict-id KEY]
//	lzwtc decompress -in cubes.lzw -out filled.txt
//	lzwtc info      -in cubes.lzw [-json]
//	lzwtc stats     -in cubes.txt [-json]      # full pipeline run record
//	lzwtc batch     -manifest jobs.txt -out-dir out/ [-workers N -policy collect]
//	lzwtc compare   -in cubes.txt              # all coders side by side
//	lzwtc verify    -cubes cubes.txt -filled filled.txt
//	lzwtc remote    {compress|decompress|stats|health} -server http://host:8077
//	lzwtc dict      {train|ls|rm|push|pull}    # shared-dictionary store
//	lzwtc trace     -in spans.jsonl            # render recorded trace spans
//
// Every pipeline subcommand also accepts the observability flags
// -telemetry {text|jsonl}, -telemetry-out, -metrics-out, -cpuprofile
// and -memprofile; a jsonl capture renders back through `lzwtc trace`.
// SIGINT cancels batch and stats runs cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"lzwtc"
	"lzwtc/internal/huffman"
	"lzwtc/internal/lz77"
	"lzwtc/internal/rle"
	"lzwtc/internal/telemetry"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	// SIGINT propagates as context cancellation into the long-running
	// subcommands: in-flight pool jobs drain, nothing half-written stays.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var err error
	switch os.Args[1] {
	case "compress":
		err = compress(os.Args[2:])
	case "decompress":
		err = decompress(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "stats":
		err = stats(ctx, os.Args[2:])
	case "batch":
		err = batch(ctx, os.Args[2:])
	case "compare":
		err = compare(os.Args[2:])
	case "verify":
		err = verify(os.Args[2:])
	case "remote":
		err = remote(ctx, os.Args[2:])
	case "dict":
		err = dictCmd(ctx, os.Args[2:])
	case "trace":
		err = traceCmd(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "lzwtc: interrupted")
			os.Exit(130)
		}
		fmt.Fprintf(os.Stderr, "lzwtc: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lzwtc {compress|decompress|info|stats|batch|compare|verify|remote|dict|trace} [flags]")
	os.Exit(2)
}

func openIn(path string) (io.ReadCloser, error) {
	if path == "" || path == "-" {
		return io.NopCloser(os.Stdin), nil
	}
	return os.Open(path)
}

func openOut(path string) (io.WriteCloser, error) {
	if path == "" || path == "-" {
		return nopWriteCloser{os.Stdout}, nil
	}
	return os.Create(path)
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// lazyDictResolver opens the local dictionary store only when a
// container actually names a dictionary, so plain wire containers
// never touch (or create) the store directory.
type lazyDictResolver struct{ dir string }

func (l lazyDictResolver) ResolveDict(ctx context.Context, ref lzwtc.DictRef) (*lzwtc.Preload, error) {
	store, err := lzwtc.OpenDictStore(lzwtc.DictStoreConfig{Dir: l.dir})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	return store.ResolveDict(ctx, ref)
}

// patternCount is a nil-safe pattern count for telemetry fields.
func patternCount(ts *lzwtc.TestSet) int {
	if ts == nil {
		return 0
	}
	return len(ts.Cubes)
}

func configFlags(fs *flag.FlagSet) *lzwtc.Config {
	cfg := lzwtc.DefaultConfig()
	fs.IntVar(&cfg.CharBits, "char", cfg.CharBits, "C_C: character size in bits")
	fs.IntVar(&cfg.DictSize, "dict", cfg.DictSize, "N: dictionary size in codes")
	fs.IntVar(&cfg.EntryBits, "entry", cfg.EntryBits, "C_MDATA: dictionary entry width in bits (0 = unbounded)")
	return &cfg
}

func compress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("in", "-", "input cube file (- for stdin)")
	out := fs.String("out", "-", "output container (- for stdout)")
	dictID := fs.String("dict-id", "", "stored dictionary key to warm-start from (the container names it in a 'D' frame)")
	dictStore := fs.String("dict-store", ".lzwtcdicts", "local dictionary store directory for -dict-id")
	cfg := configFlags(fs)
	opts := telemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, finish, err := opts.start()
	if err != nil {
		return err
	}

	r, err := openIn(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	ts, err := lzwtc.ReadTestSet(r)
	if err != nil {
		return err
	}

	// A dictionary-warmed compression resolves the preload from the
	// local store; the container's 'D' frame tells the decompressor
	// which dictionary to reinstall.
	var pre *lzwtc.Preload
	var ref *lzwtc.DictRef
	if *dictID != "" {
		key, err := lzwtc.ParseDictKey(*dictID)
		if err != nil {
			return err
		}
		store, err := lzwtc.OpenDictStore(lzwtc.DictStoreConfig{Dir: *dictStore})
		if err != nil {
			return err
		}
		defer store.Close()
		ent, err := store.Resolve(context.Background(), key)
		if err != nil {
			return err
		}
		r := lzwtc.DictEntryRef(ent)
		pre, ref = ent.Pre, &r
	}

	// The same pipeline the service runs: one shard, cold when pre is nil.
	res, err := lzwtc.CompressShardedPreloaded(context.Background(), ts, *cfg, pre, 0, lzwtc.BatchOptions{Recorder: rec})
	if err != nil {
		return err
	}
	w, err := openOut(*out)
	if err != nil {
		return err
	}
	defer w.Close()
	if ref != nil {
		err = lzwtc.WriteWireDict(w, res, *ref)
	} else {
		err = lzwtc.WriteWireSharded(w, res)
	}
	if err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "compressed %d patterns x %d bits: %d -> %d bits (%.2f%%)\n",
		res.Patterns, res.Width, res.OriginalBits, res.CompressedBits(), 100*res.Ratio())
	return finish()
}

// SpanDecompressRun is the root span of one `lzwtc decompress`.
const SpanDecompressRun = "decompress.run"

func decompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("in", "-", "input container (- for stdin)")
	out := fs.String("out", "-", "output cube file (- for stdout)")
	dictStore := fs.String("dict-store", ".lzwtcdicts", "local dictionary store directory for containers carrying a 'D' frame")
	opts := telemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	rec, finish, err := opts.start()
	if err != nil {
		return err
	}

	r, err := openIn(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	// A container naming a shared dictionary resolves it through the
	// local store; plain containers never open the store.
	// The run span parents the wire.decode spans, so `lzwtc trace` can
	// render the whole decompress tree.
	ctx, sp := rec.StartSpan(context.Background(), SpanDecompressRun)
	ts, err := lzwtc.DecompressWireDictObserved(ctx, r, lazyDictResolver{dir: *dictStore}, rec)
	sp.End(telemetry.F("patterns", patternCount(ts)))
	if err != nil {
		return err
	}
	w, err := openOut(*out)
	if err != nil {
		return err
	}
	defer w.Close()
	if err := ts.WriteCubes(w); err != nil {
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	return finish()
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("in", "-", "input container (- for stdin)")
	jsonOut := fs.Bool("json", false, "emit the run record as JSON (same schema as stats)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	r, err := openIn(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	res, err := lzwtc.DecodeWireResult(data)
	if err != nil {
		return err
	}
	if *jsonOut {
		return infoJSON(res)
	}
	cfg := res.Stream.Cfg
	fmt.Printf("patterns:        %d x %d bits (%d bits total)\n", res.Patterns, res.Width, res.OriginalBits)
	fmt.Printf("configuration:   C_C=%d  N=%d (C_E=%d)  C_MDATA=%d  fill=%v tie=%v full=%v\n",
		cfg.CharBits, cfg.DictSize, cfg.CodeBits(), cfg.EntryBits, cfg.Fill, cfg.Tie, cfg.Full)
	fmt.Printf("compressed:      %d codes, %d bits (%.2f%% compression)\n",
		len(res.Stream.Codes), res.CompressedBits(), 100*res.Ratio())
	if res.Dict != nil {
		fmt.Printf("dictionary:      %s (shared; decompress with -dict-store)\n", lzwtc.DictKey(res.Dict.Key))
	}
	if cfg.EntryBits > 0 {
		fmt.Printf("decompressor:    %d x %d-bit dictionary memory (%d bits)\n",
			cfg.DictSize, cfg.LenBits()+cfg.EntryBits, cfg.MemoryBits())
	}
	return nil
}

func compare(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	in := fs.String("in", "-", "input cube file (- for stdin)")
	cfg := configFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	r, err := openIn(*in)
	if err != nil {
		return err
	}
	defer r.Close()
	ts, err := lzwtc.ReadTestSet(r)
	if err != nil {
		return err
	}
	res, err := lzwtc.Compress(ts, *cfg)
	if err != nil {
		return err
	}
	stream := ts.Serialize()
	l7, err := lz77.Compress(stream, lz77.DefaultConfig())
	if err != nil {
		return err
	}
	gl, err := rle.Compress(stream, rle.Config{Kind: rle.Golomb})
	if err != nil {
		return err
	}
	fd, err := rle.Compress(stream, rle.Config{Kind: rle.FDR})
	if err != nil {
		return err
	}
	al, err := rle.Compress(stream, rle.Config{Kind: rle.Alternating})
	if err != nil {
		return err
	}
	hf, err := huffman.Compress(stream, huffman.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Printf("%d patterns x %d bits, %.1f%% don't-cares\n", len(ts.Cubes), ts.Width, 100*ts.XDensity())
	fmt.Printf("  LZW (dynamic X): %7.2f%%\n", 100*res.Ratio())
	fmt.Printf("  LZ77:            %7.2f%%\n", 100*l7.Stats.Ratio())
	fmt.Printf("  RLE Golomb M=%-4d%7.2f%%\n", gl.Stats.ChosenM, 100*gl.Stats.Ratio())
	fmt.Printf("  RLE FDR:         %7.2f%%\n", 100*fd.Stats.Ratio())
	fmt.Printf("  RLE alternating: %7.2f%%\n", 100*al.Stats.Ratio())
	fmt.Printf("  Huffman (sel.):  %7.2f%%\n", 100*hf.Stats.Ratio())
	return nil
}

func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	cubesPath := fs.String("cubes", "", "original cube file")
	filledPath := fs.String("filled", "", "decompressed (fully specified) cube file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cr, err := openIn(*cubesPath)
	if err != nil {
		return err
	}
	defer cr.Close()
	cubes, err := lzwtc.ReadTestSet(cr)
	if err != nil {
		return err
	}
	fr, err := openIn(*filledPath)
	if err != nil {
		return err
	}
	defer fr.Close()
	filled, err := lzwtc.ReadTestSet(fr)
	if err != nil {
		return err
	}
	if err := lzwtc.Verify(cubes, filled); err != nil {
		return err
	}
	fmt.Printf("ok: %d patterns, every specified bit preserved\n", len(cubes.Cubes))
	return nil
}

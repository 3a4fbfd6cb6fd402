package experiments

import (
	"context"
	"fmt"

	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/decomp"
	"lzwtc/internal/mem"
	"lzwtc/internal/report"
	"lzwtc/internal/telemetry"
)

// FigureExample is the worked example used for Figures 3-5: a 1-bit
// character stream, as in the paper's illustration, long enough to
// exercise dictionary creation, dictionary hits and the final flush.
const FigureExample = "001001001"

// figureConfig is the 1-bit-character dictionary of the worked example.
func figureConfig() core.Config {
	return core.Config{CharBits: 1, DictSize: 16, EntryBits: 8}
}

// Figure3 regenerates the LZW compression table representation: one row
// per step with the Buffer and Input registers, the compressed output
// and the dictionary entries as they are created.
func Figure3() (*report.Table, error) {
	t := &report.Table{
		Title:   fmt.Sprintf("Figure 3. LZW compression table representation (input %s, C_C=1)", FigureExample),
		Headers: []string{"Step", "Compressed Output", "Dictionary", "Buffer", "Input"},
		Note:    "Literal codes 0-1; dictionary codes from 2. Entries are written as code(bits).",
	}
	stream := bitvec.MustParse(FigureExample)
	rec, rows := collectSteps[core.TraceEvent](core.EventCompressStep)
	if _, err := core.CompressWithPreloadObservedCtx(context.Background(), stream, figureConfig(), nil, rec); err != nil {
		return nil, err
	}
	for i, ev := range *rows {
		emitted, dict := "", ""
		if ev.Emitted != nil {
			emitted = fmt.Sprintf("%d", *ev.Emitted)
		}
		if ev.NewEntry != nil {
			dict = fmt.Sprintf("%d(%s)", ev.NewEntry.Code, ev.NewEntry.Str)
		}
		t.Add(stepLabel(i), emitted, dict, ev.Buffer, ev.Input)
	}
	return t, nil
}

// Figure4 regenerates the LZW decompression table representation,
// including the not-yet-defined-code case when the example exercises it.
func Figure4() (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 4. LZW decompression table representation",
		Headers: []string{"Step", "Uncompressed Output", "Dictionary", "Buffer", "Input"},
	}
	stream := bitvec.MustParse(FigureExample)
	cfg := figureConfig()
	res, err := core.Compress(stream, cfg)
	if err != nil {
		return nil, err
	}
	rec, rows := collectSteps[core.DecompressTraceEvent](core.EventDecompressStep)
	out, err := core.DecompressWithPreloadObservedCtx(context.Background(), res.Codes, cfg, nil, stream.Len(), rec)
	if err != nil {
		return nil, err
	}
	for _, ev := range *rows {
		dict := ""
		if ev.NewEntry != nil {
			dict = fmt.Sprintf("%d(%s)", ev.NewEntry.Code, ev.NewEntry.Str)
		}
		outStr := ev.Output
		if ev.Special {
			outStr += " (not-yet-defined code)"
		}
		t.Add(stepLabel(ev.Step), outStr, dict, ev.Buffer, fmt.Sprintf("%d", ev.Input))
	}
	t.Note = fmt.Sprintf("Reconstructed stream: %s (matches input: %v)", out, stream.CompatibleWith(out))
	return t, nil
}

// Figure5 narrates the hardware decompressor data path (Figure 5 of the
// paper) as a code-level cycle trace of the worked example at a 4x
// internal clock.
func Figure5() (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 5. LZW decompression architecture: cycle trace (worked example, 4x clock)",
		Headers: []string{"Internal Cycle", "Unit", "Action"},
	}
	stream := bitvec.MustParse(FigureExample)
	cfg := figureConfig()
	res, err := core.Compress(stream, cfg)
	if err != nil {
		return nil, err
	}
	words, width := decomp.MemoryGeometry(cfg)
	sh := mem.NewShared(mem.New(words, width))
	sh.Select(mem.SrcLZW)
	d, err := decomp.New(cfg, 4, sh)
	if err != nil {
		return nil, err
	}
	unit := map[string]string{
		"load":   "input shifter",
		"decode": "FSM + dictionary",
		"write":  "dictionary memory",
		"shift":  "output shifter",
	}
	rec, rows := collectSteps[decomp.Event](decomp.EventStep)
	d.SetRecorder(rec)
	out, st, err := d.Run(res.Pack(), len(res.Codes), stream.Len())
	if err != nil {
		return nil, err
	}
	for _, ev := range *rows {
		t.Add(ev.Cycle, unit[ev.Kind], ev.Detail)
	}
	t.Note = fmt.Sprintf("Output %s in %d internal cycles (%d tester cycles; raw scan-in would take %d).",
		out, st.InternalCycles, st.TesterCycles, stream.Len())
	return t, nil
}

// Figure6 demonstrates the embedded-memory reuse of Figure 6: the same
// SRAM serves memory BIST and the LZW dictionary through one mux layer,
// and the BIST catches an injected cell fault that would corrupt
// decompression.
func Figure6() (*report.Table, error) {
	t := &report.Table{
		Title:   "Figure 6. LZW decompression memory utilization of the core memory blocks",
		Headers: []string{"Step", "Port Owner", "Result"},
	}
	cfg := core.Config{CharBits: 7, DictSize: 256, EntryBits: 63}
	words, width := decomp.MemoryGeometry(cfg)
	sh := mem.NewShared(mem.New(words, width))

	// 1. Functional mode: test logic locked out.
	if _, err := sh.Read(mem.SrcBIST, 0, nil); err != nil {
		t.Add("functional operation", sh.Owner().String(), "BIST and LZW accesses rejected")
	} else {
		return nil, fmt.Errorf("figure6: mux failed to isolate functional mode")
	}

	// 2. Memory BIST on the healthy array.
	sh.Select(mem.SrcBIST)
	r1, err := mem.MarchCMinus(sh)
	if err != nil {
		return nil, err
	}
	t.Add("March C- (healthy array)", "bist", r1.String())

	// 3. Inject a cell fault; BIST localizes it.
	sh.RAM().InjectStuckAt(37, 5, 1)
	r2, err := mem.MarchCMinus(sh)
	if err != nil {
		return nil, err
	}
	if r2.Pass {
		return nil, fmt.Errorf("figure6: BIST missed the injected fault")
	}
	t.Add("March C- (stuck-at injected)", "bist", r2.String())
	sh.RAM().ClearFaults()

	// 4. Same memory, now the LZW dictionary.
	sh.Select(mem.SrcLZW)
	stream := bitvec.MustParse("0101XX10XX0101XX10")
	res, err := core.Compress(stream, cfg)
	if err != nil {
		return nil, err
	}
	d, err := decomp.New(cfg, 8, sh)
	if err != nil {
		return nil, err
	}
	out, st, err := d.Run(res.Pack(), len(res.Codes), stream.Len())
	if err != nil {
		return nil, err
	}
	if !stream.CompatibleWith(out) {
		return nil, fmt.Errorf("figure6: decompression through shared memory corrupted the stream")
	}
	t.Add("LZW decompression", "lzw",
		fmt.Sprintf("%d codes decoded, %d dictionary writes, output verified", st.CodesDecoded, st.MemWrites))

	// 5. Back to functional mode.
	sh.Select(mem.SrcFunctional)
	t.Add("return to mission mode", sh.Owner().String(), "test circuitry isolated again")
	return t, nil
}

// collectSteps returns an events-only recorder whose sink collects the
// "event" payload of every kind event in emission order: the step
// stream Figures 3–5 are built from.
func collectSteps[T any](kind string) (*telemetry.Recorder, *[]T) {
	rows := new([]T)
	rec := telemetry.New(nil, telemetry.SinkFunc(func(ev telemetry.Event) {
		if ev.Kind != kind {
			return
		}
		if v, ok := ev.Field("event"); ok {
			if row, ok := v.(T); ok {
				*rows = append(*rows, row)
			}
		}
	}))
	return rec, rows
}

func stepLabel(i int) string {
	if i < 26 {
		return string(rune('a'+i)) + ")"
	}
	return fmt.Sprintf("%d)", i)
}

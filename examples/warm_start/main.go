// warm_start demonstrates the dictionary-preloading extension: a
// dictionary trained on one test session is written into the embedded
// memory (through the Figure 6 port) before the next session, so the
// LZW compressor starts warm — the amortization the paper's conclusion
// suggests when the decompression engine becomes part of normal
// operation. The session's responses are compacted into a MISR
// signature, closing the Figure 2 loop on the output side.
package main

import (
	"context"
	"fmt"
	"log"

	"lzwtc"
	"lzwtc/internal/bench"
	"lzwtc/internal/decomp"
	"lzwtc/internal/mem"
	"lzwtc/internal/signature"
)

func main() {
	ctx := context.Background()
	p, err := bench.ByName("s13207")
	if err != nil {
		log.Fatal(err)
	}
	cfg := lzwtc.Config{CharBits: 7, DictSize: p.DictSize, EntryBits: 63}
	cs := p.Generate()
	half := len(cs.Cubes) / 2
	session1 := &lzwtc.TestSet{Width: cs.Width, Cubes: cs.Cubes[:half]}
	session2 := &lzwtc.TestSet{Width: cs.Width, Cubes: cs.Cubes[half:]}
	fmt.Printf("%s: two test sessions of %d and %d patterns\n", p.Name, half, len(cs.Cubes)-half)

	// Session 1 runs cold and trains the dictionary, which a store
	// keeps under the content address of its training set.
	store, err := lzwtc.OpenDictStore(lzwtc.DictStoreConfig{})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	dict, _, err := store.GetOrTrain(ctx, lzwtc.DictKeyFor(session1, cfg), cfg,
		func(context.Context) (*lzwtc.Preload, error) { return lzwtc.Train(session1, cfg, 0) })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 1 trained %d dictionary strings\n", dict.Pre.Entries())

	// Session 2, cold vs warm. The warm Result names its dictionary, so
	// its container carries a 'D' frame that Decompress resolves with
	// the store as Options.Resolver.
	cold, err := lzwtc.Compress(ctx, session2, cfg, lzwtc.Options{})
	if err != nil {
		log.Fatal(err)
	}
	warm, err := lzwtc.Compress(ctx, session2, cfg, lzwtc.Options{Dict: dict})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 2 compression: cold %.2f%%, warm %.2f%%\n", 100*cold.Ratio(), 100*warm.Ratio())

	// The hardware decompressor receives the same preload through the
	// shared memory port before the warm session starts.
	words, width := decomp.MemoryGeometry(cfg)
	shared := mem.NewShared(mem.New(words, width))
	shared.Select(mem.SrcLZW)
	hw, err := decomp.New(cfg, 10, shared)
	if err != nil {
		log.Fatal(err)
	}
	if err := hw.Preload(dict.Pre); err != nil {
		log.Fatal(err)
	}
	sh := warm.Shards[0] // one shard: one code stream
	stream, stats, err := hw.Run(sh.Pack(), len(sh.Codes), sh.InputBits)
	if err != nil {
		log.Fatal(err)
	}
	filled, err := lzwtc.DecompressedSetFromStream(stream, warm)
	if err != nil {
		log.Fatal(err)
	}
	if err := lzwtc.Verify(session2, filled); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm hardware decompression: %d codes in %d tester cycles (raw would take %d), verified\n",
		stats.CodesDecoded, stats.TesterCycles, session2.TotalBits())

	// Response side: fold the delivered vectors into a MISR signature
	// (in a real flow these would be the captured responses).
	misr, err := signature.NewMISR(32, 0)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range filled.Cubes {
		if err := misr.Capture(c); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("MISR signature over %d capture words: %#010x (aliasing probability %.2g)\n",
		misr.Cycles(), misr.Signature(), misr.AliasingProbability())
}

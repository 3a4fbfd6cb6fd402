package core

import "testing"

// Microbenchmarks for the bit-sliced child-match kernel, shaped after
// the two enumeration strategies it replaced (see DESIGN.md §15): the
// Gosper subset probes liked few X bits over any chain, the sibling
// walk liked short chains under any mask. The kernel is measured on
// both favored shapes plus the all-X positional path and the TieWidest
// rank scan, so a regression on any historical strong point shows up
// here before it shows up in the grid gate (`make bench-gate`).

// benchChainDict builds a dictionary whose literal parent 1 has
// `children` children with consecutive characters, planes synced (one
// masked query flips the dictionary into eager plane maintenance).
func benchChainDict(b *testing.B, tie TieBreak, children int) (*dict, uint64) {
	b.Helper()
	cfg := Config{CharBits: 8, DictSize: 1024, Fill: FillRepeat, Tie: tie, Full: FullFreeze}
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	d := newDict(cfg)
	for i := 0; i < children; i++ {
		if _, ok := d.add(1, uint64(i)); !ok {
			b.Fatalf("add %d failed", i)
		}
	}
	fullMask := uint64(1)<<uint(cfg.CharBits) - 1
	d.findChildMasked(1, 0, 1, fullMask) // sync planes, flip anyMasked
	return d, fullMask
}

// Gosper-favored shape: only two X bits (the old path enumerated 4
// subset probes), chain of 48 lanes in one block.
func BenchmarkFindChildMaskedGosper(b *testing.B) {
	d, fullMask := benchChainDict(b, TieOldest, 48)
	care := fullMask &^ 0b11 // bits 0-1 X
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.findChildMasked(1, uint64(i)&care&0x3f, care, fullMask)
	}
}

// Chain-favored shape: a deep 200-lane chain (four blocks) under a
// sparse mask — the old sibling walk scanned every candidate, the
// kernel runs three word ops per block.
func BenchmarkFindChildMaskedChain(b *testing.B) {
	d, fullMask := benchChainDict(b, TieOldest, 200)
	const care = uint64(0x80) // only the top bit cared
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.findChildMasked(1, uint64(i)&care, care, fullMask)
	}
}

// All-X query: resolved positionally from the chain header, no kernel.
func BenchmarkFindChildMaskedAllX(b *testing.B) {
	d, fullMask := benchChainDict(b, TieOldest, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.findChildMasked(1, 0, 0, fullMask)
	}
}

// TieWidest ranks every surviving lane by child count instead of
// stopping at the first survivor — the kernel's worst policy.
func BenchmarkFindChildMaskedWidest(b *testing.B) {
	d, fullMask := benchChainDict(b, TieWidest, 200)
	const care = uint64(0x01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.findChildMasked(1, uint64(i)&care, care, fullMask)
	}
}

// Exact query: a fully specified character on the 48-lane chain, which
// findChild answers from the probe table instead of the kernel. It keeps
// the table's advantage over the kernel on X-free input measurable.
func BenchmarkFindChildExact(b *testing.B) {
	d, fullMask := benchChainDict(b, TieOldest, 48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.findChild(1, uint64(i)%48, fullMask, fullMask)
	}
}

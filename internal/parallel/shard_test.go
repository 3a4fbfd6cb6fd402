package parallel

import (
	"testing"

	"lzwtc/internal/bitvec"
)

func TestSplitPatternsBounds(t *testing.T) {
	cs := bitvec.NewCubeSet(8)
	for range 10 {
		if err := cs.Add(bitvec.New(8)); err != nil {
			t.Fatal(err)
		}
	}
	if got := SplitPatterns(cs, 0); len(got) != 1 || got[0] != cs {
		t.Fatal("per<=0 must return the whole set")
	}
	if got := SplitPatterns(nil, 3); len(got) != 1 || got[0] != nil {
		t.Fatal("a nil set must be one nil shard")
	}
	if got := SplitPatterns(cs, 10); len(got) != 1 {
		t.Fatal("per==len must return the whole set")
	}
	got := SplitPatterns(cs, 3)
	if len(got) != 4 {
		t.Fatalf("10/3 split into %d shards, want 4", len(got))
	}
	total := 0
	for _, g := range got {
		total += len(g.Cubes)
	}
	if total != 10 {
		t.Fatalf("split lost patterns: %d", total)
	}
}

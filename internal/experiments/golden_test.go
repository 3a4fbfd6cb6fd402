package experiments

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "regenerate the paper goldens under testdata")

// goldenPath is the committed rendering of one experiment, in the text
// form `cmd/experiments -run <name>` prints.
func goldenPath(name string) string {
	return filepath.Join("testdata", name+".golden")
}

// poolBacked lists the experiments whose grid runs on the worker pool;
// they are rendered at one worker and at GOMAXPROCS.
var poolBacked = map[string]bool{"table4": true, "table5": true, "table6": true}

// TestPaperGoldens pins the numbers of every table and figure: each
// experiment must render byte for byte as its committed golden. The
// pool-backed sweeps are rendered at workers=1 and at GOMAXPROCS, so a
// worker-count dependence fails too. multichain (about 24 s) is left to
// `make paper-golden`. Run `go test -run TestPaperGoldens -update` after
// an intentional change to regenerate them.
func TestPaperGoldens(t *testing.T) {
	for _, name := range Names() {
		if name == "multichain" {
			continue
		}
		workers := []int{0}
		if poolBacked[name] {
			workers = []int{1, runtime.GOMAXPROCS(0)}
		}
		for _, w := range workers {
			tab, err := runCtx(context.Background(), name, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			got := tab.String()
			if *updateGoldens {
				if err := os.WriteFile(goldenPath(name), []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(goldenPath(name))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s workers=%d differs from %s:\n%s\nwant:\n%s\nif the change is intentional, regenerate with: go test -run TestPaperGoldens -update",
					name, w, goldenPath(name), got, want)
			}
		}
	}
}

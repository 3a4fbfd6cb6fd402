package experiments

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestSweepWorkerCountInvariant: the pool-backed sweep tables render
// identically for every worker count — the differential property at the
// table level.
func TestSweepWorkerCountInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("full workloads in -short mode")
	}
	runners := map[string]func(context.Context, int) (interface{ String() string }, error){
		"table4": func(ctx context.Context, w int) (interface{ String() string }, error) {
			return table4Ctx(ctx, w)
		},
		"table5": func(ctx context.Context, w int) (interface{ String() string }, error) {
			return table5Ctx(ctx, w)
		},
	}
	for name, run := range runners {
		base, err := run(context.Background(), 1)
		if err != nil {
			t.Fatalf("%s workers=1: %v", name, err)
		}
		for _, w := range []int{2, 5} {
			got, err := run(context.Background(), w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			if got.String() != base.String() {
				t.Fatalf("%s: workers=%d renders differently than workers=1:\n%s\nvs\n%s",
					name, w, got.String(), base.String())
			}
		}
	}
}

// TestRunCtxCanceled: a canceled context fails every experiment — the
// pool-backed grids and the sequential runners alike — without running
// any work.
func TestRunCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Names() {
		if _, err := runCtx(ctx, name, 2); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s under canceled context: err = %v, want context.Canceled", name, err)
		}
	}
}

// TestRunCtxDispatch: runCtx serves the same experiment set as run.
func TestRunCtxDispatch(t *testing.T) {
	if _, err := runCtx(context.Background(), "no-such-table", 1); err == nil {
		t.Fatal("unknown experiment did not error")
	}
	if testing.Short() {
		t.Skip("full workloads in -short mode")
	}
	seq, err := run("table6")
	if err != nil {
		t.Fatal(err)
	}
	par, err := runCtx(context.Background(), "table6", 3)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(par.Rows) != fmt.Sprint(seq.Rows) {
		t.Fatalf("table6 rows differ between run and runCtx:\n%v\nvs\n%v", par.Rows, seq.Rows)
	}
}

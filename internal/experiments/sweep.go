// Parameter-sweep tables run through the batch pool: Tables 4–6 are
// grids (circuit × configuration point) of independent compressions, so
// they fan out across internal/parallel instead of looping. Each
// circuit's test set is generated once and shared read-only by every
// job in its row; results land at fixed grid indices, so the rendered
// tables are byte-identical to the sequential drivers for any worker
// count.

package experiments

import (
	"context"
	"fmt"

	"lzwtc/internal/bench"
	"lzwtc/internal/bitvec"
	"lzwtc/internal/core"
	"lzwtc/internal/parallel"
	"lzwtc/internal/report"
)

// sweepSets generates each Table 1 circuit once, in order.
func sweepSets() ([]bench.Profile, []*bitvec.CubeSet, error) {
	names := bench.Table1Names()
	ps := make([]bench.Profile, len(names))
	sets := make([]*bitvec.CubeSet, len(names))
	for i, name := range names {
		p, err := bench.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		ps[i] = p
		sets[i] = p.Generate()
	}
	return ps, sets, nil
}

// table4Config is the Table 4 configuration at one character size:
// N = 1024, C_MDATA = 63 — except C_C = 10, where a 63-bit entry cannot
// hold even one character, so the entry gets one character of room (the
// paper's point at C_C = 10 is the exhausted code space, not an invalid
// config).
func table4Config(cc int) core.Config {
	cfg := core.Config{CharBits: cc, DictSize: 1024, EntryBits: 63}
	if cc == 10 {
		cfg.EntryBits = 70
	}
	return cfg
}

// sweepGrid runs a circuit × config grid through the pool and renders
// one table row per circuit with one ratio column per config.
func sweepGrid(ctx context.Context, workers int, t *report.Table, cfgs []core.Config, label func(core.Config) string) (*report.Table, error) {
	ps, sets, err := sweepSets()
	if err != nil {
		return nil, err
	}
	jobs := make([]parallel.Job, 0, len(ps)*len(cfgs))
	for i, p := range ps {
		for _, cfg := range cfgs {
			jobs = append(jobs, parallel.Job{
				Name: fmt.Sprintf("%s/%s", p.Name, label(cfg)),
				Set:  sets[i],
				Cfg:  cfg,
			})
		}
	}
	results, err := parallel.CompressJobs(ctx, jobs, parallel.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	for i, p := range ps {
		row := []interface{}{p.Name}
		for j := range cfgs {
			r := results[i*len(cfgs)+j]
			if r.Err != nil {
				return nil, r.Err
			}
			row = append(row, r.Ratio())
		}
		t.Add(row...)
	}
	return t, nil
}

// table4Ctx is Table 4 on the batch pool: the 5-circuit × C_C grid
// compressed concurrently. workers <= 0 means GOMAXPROCS.
func table4Ctx(ctx context.Context, workers int) (*report.Table, error) {
	t := &report.Table{
		Title:   "Table 4. Compression versus LZW Character Size (N=1024, C_MDATA=63)",
		Headers: []string{"Test", "1", "4", "7", "10"},
	}
	var cfgs []core.Config
	for _, cc := range []int{1, 4, 7, 10} {
		cfgs = append(cfgs, table4Config(cc))
	}
	return sweepGrid(ctx, workers, t, cfgs, func(c core.Config) string {
		return fmt.Sprintf("cc=%d", c.CharBits)
	})
}

// table5Ctx is Table 5 on the batch pool: the 5-circuit × C_MDATA grid
// compressed concurrently. workers <= 0 means GOMAXPROCS.
func table5Ctx(ctx context.Context, workers int) (*report.Table, error) {
	t := &report.Table{
		Title:   "Table 5. Compression versus Entry Size (N=1024, C_C=7)",
		Headers: []string{"Test", "63", "127", "255", "511"},
	}
	var cfgs []core.Config
	for _, eb := range entrySweep() {
		cfgs = append(cfgs, core.Config{CharBits: 7, DictSize: 1024, EntryBits: eb})
	}
	return sweepGrid(ctx, workers, t, cfgs, func(c core.Config) string {
		return fmt.Sprintf("eb=%d", c.EntryBits)
	})
}

// t6cell is one Table 6 grid point: col -1 measures the longest
// uncompressed string (unbounded entries), cols >= 0 measure download
// improvement at the corresponding entry size.
type t6cell struct {
	circuit int
	col     int
	cfg     core.Config
}

// t6value is one computed Table 6 cell.
type t6value struct {
	longestBits int
	improvement float64
}

// table6Ctx is Table 6 on the batch pool. Each cell needs a compression
// plus a cycle-accurate decompressor run, so the grid goes through
// parallel.Map directly rather than CompressJobs. workers <= 0 means
// GOMAXPROCS.
func table6Ctx(ctx context.Context, workers int) (*report.Table, error) {
	t := &report.Table{
		Title:   "Table 6. Performance versus Entry Size (10x internal clock)",
		Headers: []string{"Test", "Longest String", "63", "127", "255", "511"},
	}
	ps, sets, err := sweepSets()
	if err != nil {
		return nil, err
	}
	ebs := entrySweep()
	cells := make([]t6cell, 0, len(ps)*(len(ebs)+1))
	for ci := range ps {
		cells = append(cells, t6cell{circuit: ci, col: -1,
			cfg: core.Config{CharBits: 7, DictSize: 1024, EntryBits: 0}})
		for col, eb := range ebs {
			cells = append(cells, t6cell{circuit: ci, col: col,
				cfg: core.Config{CharBits: 7, DictSize: 1024, EntryBits: eb}})
		}
	}
	outcomes, err := parallel.Map(ctx, cells, parallel.Options{Workers: workers},
		func(_ context.Context, _ int, c t6cell) (t6value, error) {
			res, err := compressSet(sets[c.circuit], c.cfg)
			if err != nil {
				return t6value{}, err
			}
			if c.col < 0 {
				return t6value{longestBits: res.Stats.MaxEntryChars * 7}, nil
			}
			imp, err := downloadImprovement(res, c.cfg, 10, ps[c.circuit].TotalBits())
			if err != nil {
				return t6value{}, err
			}
			return t6value{improvement: imp}, nil
		})
	if err != nil {
		return nil, err
	}
	for ci, p := range ps {
		row := make([]interface{}, 2+len(ebs))
		row[0] = p.Name
		base := ci * (len(ebs) + 1)
		for k := 0; k <= len(ebs); k++ {
			o := outcomes[base+k]
			if o.Err != nil {
				return nil, o.Err
			}
			if cells[base+k].col < 0 {
				row[1] = o.Value.longestBits
			} else {
				row[2+cells[base+k].col] = o.Value.improvement
			}
		}
		t.Add(row...)
	}
	return t, nil
}

// runCtx dispatches an experiment by name with context cancellation and
// a worker bound for the pool-backed sweeps. Experiments that are not
// grids run sequentially but still honor a pre-canceled context.
func runCtx(ctx context.Context, name string, workers int) (*report.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch name {
	case "table4":
		return table4Ctx(ctx, workers)
	case "table5":
		return table5Ctx(ctx, workers)
	case "table6":
		return table6Ctx(ctx, workers)
	}
	return run(name)
}

// Package analysis is a repo-specific static-analysis suite for the
// lzwtc module. It enforces invariants that go vet cannot see because
// they are properties of this codebase's contracts, not of the
// language:
//
//   - bitwidth: every bitio.WriteBits/ReadBits call site must pass a
//     width that is provably in [0,64] (constant, validated-config
//     accessor, bits.Len-bounded arithmetic, or an explicit
//     invariant.Width runtime guard).
//   - droppederror: strict packages (the compression core, cmd/ and
//     examples/) may not discard error results via `_ =` or bare calls.
//   - panicpolicy: library packages may only panic through the
//     sanctioned internal/invariant helpers.
//   - configbeforeuse: exported functions consuming a validatable
//     config (a type with a `Validate() error` method) must validate it
//     on some path, directly or by passing it to a function that does.
//   - deadexport: an exported name or method of an internal/ package
//     must be referenced by another package (see deadexport.go).
//
// Findings can be suppressed per line with a comment of the form
//
//	//lzwtcvet:ignore <check>[,<check>...] [reason]
//
// placed on the offending line or the line directly above it. The
// check list may be "all". Suppressions should be recorded in
// internal/analysis/README.md so they stay auditable. Packages listed
// in Config.NoSuppressPaths reject the mechanism outright: any
// //lzwtcvet:ignore comment there is itself reported (check
// "nosuppress") and has no silencing effect.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package under analysis.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// TestFiles are the package's _test.go files (internal and
	// external), parsed but NOT type-checked: the metricname check scans
	// them syntactically to cross-check asserted metric names.
	TestFiles []*ast.File
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

// String renders the canonical `file:line:col: [check] message` form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Config scopes the checks to the module's package layout. Path
// patterns ending in "/..." match any import path under the prefix;
// all other patterns match when they equal the import path or are a
// `/`-separated suffix of it.
type Config struct {
	// BitioPaths identifies the package(s) whose Writer.WriteBits and
	// Reader.ReadBits calls the bitwidth check audits.
	BitioPaths []string
	// WidthAccessors are config methods trusted to return a width in
	// [1,64] (their bounds are enforced by the config's Validate).
	WidthAccessors []string
	// WidthFields are config struct fields trusted the same way.
	WidthFields []string
	// WidthGuards are functions (matched by suffix of their full
	// qualified name) that validate a width at runtime and return it.
	WidthGuards []string
	// ConfigTypeNames are the type names treated as validatable
	// configurations; a type qualifies when its name is listed here
	// AND it has a `Validate() error` method. This keeps the checks
	// off large validatable domain objects (e.g. circuit netlists)
	// that are not per-call configuration.
	ConfigTypeNames []string
	// LibraryPaths are the bit-exact core packages: panic-policy and
	// the strict half of error-discipline apply here.
	LibraryPaths []string
	// StrictErrorPaths are additional packages (binaries, examples)
	// where dropped errors are flagged.
	StrictErrorPaths []string
	// PanicAllowPaths are packages allowed to contain bare panics —
	// the sanctioned invariant helper itself.
	PanicAllowPaths []string
	// ErrorExempt lists callees (by full qualified name; a trailing *
	// makes it a prefix pattern) whose dropped results are tolerated:
	// terminal-output helpers and never-failing writers.
	ErrorExempt []string
	// NoSuppressPaths are packages where //lzwtcvet:ignore comments are
	// forbidden: the comment itself becomes a "nosuppress" finding and
	// silences nothing. Used for packages whose discipline must hold
	// unconditionally (the telemetry layer sits on every hot path).
	NoSuppressPaths []string

	// AllocBoundPaths are the hostile-input packages where the
	// allocbound dataflow check audits allocation sizes.
	AllocBoundPaths []string
	// AllocSinks are allocation constructors (by qualified-name suffix)
	// whose arguments must be bounded before the call (bitvec.New).
	AllocSinks []string
	// AllocGuards are runtime bound guards the allocbound check credits:
	// a call mentioning a tainted variable launders it.
	AllocGuards []string
	// GoctxPaths are the concurrent packages the goctx check audits.
	GoctxPaths []string
	// PoolPaths are packages owning goroutine lifecycle (the worker
	// pool); `go` calls into them need no context of their own.
	PoolPaths []string
	// LockPaths are the packages the lockhygiene check audits.
	LockPaths []string
	// BlockingCalls are callees (full qualified names, * prefix
	// patterns) treated as blocking I/O for the held-lock rule.
	BlockingCalls []string
	// TelemetryPaths identify the package(s) defining the metric
	// Registry whose Counter/Gauge/Histogram calls metricname audits.
	TelemetryPaths []string
	// MetricNameAllow are sanctioned dynamic-metric-name constructors
	// (phaseMetricName); a registration through one is exempt from the
	// string-constant rule.
	MetricNameAllow []string
	// MetricAssertPaths are packages whose registered metric names must
	// each be asserted in that package's tests.
	MetricAssertPaths []string
}

// DefaultConfig returns the configuration for this repository.
func DefaultConfig() Config {
	return Config{
		BitioPaths: []string{"internal/bitio"},
		// Only accessors/fields whose Validate-enforced range fits in
		// [1,64] belong here (EntryBits, for example, has no upper
		// bound and must not be trusted as a stream width).
		WidthAccessors:  []string{"CodeBits"},
		WidthFields:     []string{"CharBits", "BlockBits", "OffsetBits", "LenBits"},
		WidthGuards:     []string{"internal/invariant.Width"},
		ConfigTypeNames: []string{"Config"},
		LibraryPaths: []string{
			"internal/bitio", "internal/core", "internal/decomp",
			"internal/bitvec", "internal/compact", "internal/huffman",
			"internal/lz77", "internal/rle", "internal/telemetry",
			"internal/parallel", "internal/jobs", "internal/dictstore",
		},
		StrictErrorPaths: []string{"lzwtc", "lzwtc/cmd/...", "lzwtc/examples/...", "lzwtc/client"},
		PanicAllowPaths:  []string{"internal/invariant"},
		NoSuppressPaths:  []string{"internal/telemetry", "internal/parallel", "internal/jobs", "internal/dictstore"},
		ErrorExempt: []string{
			"fmt.Print*",
			"fmt.Fprint*",
			"(*strings.Builder).*",
			"(*bytes.Buffer).*",
		},
		AllocBoundPaths: []string{"internal/wire", "internal/server", "lzwtc/client"},
		AllocSinks:      []string{"internal/bitvec.New"},
		AllocGuards:     []string{"internal/invariant.Width", "internal/invariant.Check"},
		GoctxPaths:      []string{"internal/server", "internal/parallel", "internal/jobs", "internal/dictstore", "lzwtc/client", "lzwtc/cmd/..."},
		PoolPaths:       []string{"internal/parallel"},
		LockPaths: []string{
			"internal/bitio", "internal/core", "internal/decomp",
			"internal/bitvec", "internal/compact", "internal/huffman",
			"internal/lz77", "internal/rle", "internal/telemetry",
			"internal/parallel", "internal/server", "internal/jobs",
			"internal/dictstore", "lzwtc/client",
		},
		BlockingCalls:     []string{"(*net/http.Client).Do", "net/http.Get", "net/http.Post"},
		TelemetryPaths:    []string{"internal/telemetry"},
		MetricNameAllow:   []string{"internal/telemetry.phaseMetricName"},
		MetricAssertPaths: []string{"lzwtc", "internal/server", "internal/parallel", "internal/jobs", "internal/dictstore"},
	}
}

// matchPath reports whether an import path matches one of the
// configured patterns: "p/..." matches p and everything under it, a
// pattern without a slash names one whole path (the module root, as
// "lzwtc"), and any other pattern matches as a path suffix.
func matchPath(path string, patterns []string) bool {
	for _, pat := range patterns {
		if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				return true
			}
			continue
		}
		if path == pat || strings.Contains(pat, "/") && strings.HasSuffix(path, "/"+pat) {
			return true
		}
	}
	return false
}

// matchName reports whether a qualified callee name matches one of the
// exempt patterns (trailing * = prefix match).
func matchName(name string, patterns []string) bool {
	for _, pat := range patterns {
		if prefix, ok := strings.CutSuffix(pat, "*"); ok {
			if strings.HasPrefix(name, prefix) {
				return true
			}
			continue
		}
		if name == pat {
			return true
		}
	}
	return false
}

// Check is one analysis pass. Checks receive every loaded package at
// once so cross-package reasoning (configbeforeuse) sees the whole
// module.
type Check interface {
	Name() string
	Doc() string
	Run(cfg *Config, pkgs []*Package) []Diagnostic
}

// Checks returns the full catalog in stable order.
func Checks() []Check {
	return []Check{
		bitwidthCheck{}, droppedErrorCheck{}, panicPolicyCheck{}, configBeforeUseCheck{},
		allocBoundCheck{}, goctxCheck{}, lockHygieneCheck{}, metricNameCheck{}, deadExportCheck{}, staleIgnoreCheck{},
	}
}

// staleIgnoreCheck reports //lzwtcvet:ignore comments whose finding no
// longer fires. It has no Run of its own: the detection happens inside
// applySuppressions, which knows which suppression actually silenced
// something during this run. A stale suppression is a hole someone will
// eventually crawl back through, so it must be deleted (or the ledger
// updated) the moment the underlying finding is fixed.
type staleIgnoreCheck struct{}

func (staleIgnoreCheck) Name() string { return "staleignore" }
func (staleIgnoreCheck) Doc() string {
	return "//lzwtcvet:ignore comments must still suppress a live finding; a suppression whose finding no longer fires is reported"
}
func (staleIgnoreCheck) Run(cfg *Config, pkgs []*Package) []Diagnostic { return nil }

// Run executes the selected checks (all when names is empty) over pkgs
// and returns surviving findings, sorted by position, with
// //lzwtcvet:ignore suppressions already applied.
func Run(cfg *Config, pkgs []*Package, names ...string) ([]Diagnostic, error) {
	selected := Checks()
	if len(names) > 0 {
		byName := map[string]Check{}
		for _, c := range selected {
			byName[c.Name()] = c
		}
		selected = selected[:0]
		for _, n := range names {
			c, ok := byName[n]
			if !ok {
				return nil, fmt.Errorf("analysis: unknown check %q", n)
			}
			selected = append(selected, c)
		}
	}
	var diags []Diagnostic
	selNames := map[string]bool{}
	for _, c := range selected {
		selNames[c.Name()] = true
		diags = append(diags, c.Run(cfg, pkgs)...)
	}
	diags = applySuppressions(cfg, pkgs, diags, selNames, len(names) == 0)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags, nil
}

// suppressionKey identifies one suppressed (file, line, check).
type suppressionKey struct {
	file  string
	line  int
	check string
}

// applySuppressions drops diagnostics covered by an
// //lzwtcvet:ignore comment on the same line or the line above. In
// packages matching cfg.NoSuppressPaths the comment silences nothing
// and is instead reported as a "nosuppress" finding. When the
// staleignore check is selected, a suppression that silenced nothing —
// and whose named check actually ran (or "all" during a full run) — is
// reported as stale at the comment's position.
func applySuppressions(cfg *Config, pkgs []*Package, diags []Diagnostic, selected map[string]bool, fullRun bool) []Diagnostic {
	sup := map[suppressionKey]bool{}
	supPos := map[suppressionKey]token.Position{}
	for _, pkg := range pkgs {
		noSuppress := matchPath(pkg.Path, cfg.NoSuppressPaths)
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					rest, ok := strings.CutPrefix(text, "lzwtcvet:ignore")
					if !ok {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					if noSuppress {
						diags = append(diags, Diagnostic{
							Pos:     pos,
							Check:   "nosuppress",
							Message: fmt.Sprintf("lzwtcvet:ignore is forbidden in %s (NoSuppressPaths); fix the finding instead", pkg.Path),
						})
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) == 0 {
						continue
					}
					for _, name := range strings.Split(fields[0], ",") {
						key := suppressionKey{pos.Filename, pos.Line, name}
						sup[key] = true
						supPos[key] = pos
					}
				}
			}
		}
	}
	if len(sup) == 0 {
		return diags
	}
	used := map[suppressionKey]bool{}
	kept := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, name := range []string{d.Check, "all"} {
			for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
				key := suppressionKey{d.Pos.Filename, line, name}
				if sup[key] {
					used[key] = true
					suppressed = true
				}
			}
			if suppressed {
				break
			}
		}
		if !suppressed {
			kept = append(kept, d)
		}
	}
	if selected["staleignore"] {
		for key, pos := range supPos {
			if used[key] {
				continue
			}
			// Only judge a suppression whose check actually ran this
			// invocation: an "all" suppression is verdict-worthy only on
			// a full-catalog run.
			if key.check == "all" {
				if !fullRun {
					continue
				}
			} else if !selected[key.check] {
				continue
			}
			kept = append(kept, Diagnostic{
				Pos:     pos,
				Check:   "staleignore",
				Message: fmt.Sprintf("stale lzwtcvet:ignore: no %s finding fires here anymore; delete the comment and its ledger entry", key.check),
			})
		}
	}
	return kept
}

// exprString renders an expression compactly for messages.
func exprString(e ast.Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e)
	s := sb.String()
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

func writeExpr(sb *strings.Builder, e ast.Expr) {
	switch e := e.(type) {
	case *ast.Ident:
		sb.WriteString(e.Name)
	case *ast.BasicLit:
		sb.WriteString(e.Value)
	case *ast.SelectorExpr:
		writeExpr(sb, e.X)
		sb.WriteByte('.')
		sb.WriteString(e.Sel.Name)
	case *ast.CallExpr:
		writeExpr(sb, e.Fun)
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a)
		}
		sb.WriteByte(')')
	case *ast.BinaryExpr:
		writeExpr(sb, e.X)
		sb.WriteString(e.Op.String())
		writeExpr(sb, e.Y)
	case *ast.UnaryExpr:
		sb.WriteString(e.Op.String())
		writeExpr(sb, e.X)
	case *ast.ParenExpr:
		sb.WriteByte('(')
		writeExpr(sb, e.X)
		sb.WriteByte(')')
	case *ast.IndexExpr:
		writeExpr(sb, e.X)
		sb.WriteByte('[')
		writeExpr(sb, e.Index)
		sb.WriteByte(']')
	case *ast.StarExpr:
		sb.WriteByte('*')
		writeExpr(sb, e.X)
	default:
		fmt.Fprintf(sb, "<%T>", e)
	}
}

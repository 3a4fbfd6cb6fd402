package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"lzwtc/internal/analysis"
)

// The tests run every check against small synthetic packages held in
// memory: one "bad" fixture that must trip the check and one "good"
// fixture that must stay clean. The fixtures import fake bitio /
// invariant / core packages under test/..., and the Config points the
// checks at those paths, so nothing here depends on the real module
// layout.

// synthPkg is one in-memory package: an import path plus a single
// source file.
type synthPkg struct {
	path string
	src  string
}

// mapImporter resolves imports against already-checked packages.
type mapImporter map[string]*types.Package

func (m mapImporter) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, &importError{path}
}

type importError struct{ path string }

func (e *importError) Error() string { return "synthetic importer: unknown package " + e.path }

// loadSynthetic parses and type-checks the packages in order (imports
// must precede importers) and wraps them for analysis.
func loadSynthetic(t *testing.T, pkgs []synthPkg) []*analysis.Package {
	t.Helper()
	fset := token.NewFileSet()
	done := mapImporter{}
	var out []*analysis.Package
	for _, sp := range pkgs {
		fname := strings.ReplaceAll(sp.path, "/", "_") + ".go"
		file, err := parser.ParseFile(fset, fname, sp.src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse %s: %v", sp.path, err)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: done}
		tpkg, err := conf.Check(sp.path, fset, []*ast.File{file}, info)
		if err != nil {
			t.Fatalf("typecheck %s: %v", sp.path, err)
		}
		done[sp.path] = tpkg
		out = append(out, &analysis.Package{
			Path:  sp.path,
			Fset:  fset,
			Files: []*ast.File{file},
			Types: tpkg,
			Info:  info,
		})
	}
	return out
}

// testConfig scopes the checks to the synthetic package layout.
func testConfig() *analysis.Config {
	return &analysis.Config{
		BitioPaths:       []string{"test/internal/bitio"},
		WidthAccessors:   []string{"CodeBits"},
		WidthFields:      []string{"CharBits"},
		WidthGuards:      []string{"test/internal/invariant.Width"},
		ConfigTypeNames:  []string{"Config"},
		LibraryPaths:     []string{"test/internal/lib"},
		StrictErrorPaths: []string{"test/cmd/..."},
		PanicAllowPaths:  []string{"test/internal/invariant"},
		ErrorExempt:      []string{"test/internal/lib.NeverFails"},
		NoSuppressPaths:  []string{"test/internal/nosup"},

		AllocBoundPaths:   []string{"test/internal/hostile"},
		AllocSinks:        []string{"test/internal/bitvec.New"},
		AllocGuards:       []string{"test/internal/invariant.Check", "test/internal/invariant.Width"},
		GoctxPaths:        []string{"test/internal/conc"},
		PoolPaths:         []string{"test/internal/pool"},
		LockPaths:         []string{"test/internal/locky"},
		TelemetryPaths:    []string{"test/internal/telem"},
		MetricNameAllow:   []string{"test/internal/telem.Dyn"},
		MetricAssertPaths: []string{"test/internal/metrics"},
	}
}

// Shared fixture packages mimicking the real module's contracts.
const (
	bitioSrc = `package bitio

type Writer struct{}

func (w *Writer) WriteBits(v uint64, n int) {}

type Reader struct{}

func (r *Reader) ReadBits(n int) (uint64, error) { return 0, nil }
`
	invariantSrc = `package invariant

func Width(n int) int { return n }

func Must(err error) {}

func Check(cond bool, format string, args ...any) {}
`
	coreSrc = `package core

type Config struct {
	CharBits int
	Dict     int
}

func (c Config) Validate() error { return nil }

func (c Config) CodeBits() int { return c.Dict }
`
)

func deps() []synthPkg {
	return []synthPkg{
		{"test/internal/bitio", bitioSrc},
		{"test/internal/invariant", invariantSrc},
		{"test/internal/core", coreSrc},
	}
}

// run loads the fixture set and executes the named checks.
func run(t *testing.T, extra []synthPkg, checks ...string) []analysis.Diagnostic {
	t.Helper()
	pkgs := loadSynthetic(t, append(deps(), extra...))
	cfg := testConfig()
	diags, err := analysis.Run(cfg, pkgs, checks...)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return diags
}

// expect asserts that exactly the diagnostics whose messages contain
// the given markers were reported, in any order.
func expect(t *testing.T, diags []analysis.Diagnostic, markers ...string) {
	t.Helper()
	if len(diags) != len(markers) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(markers), render(diags))
	}
	for _, m := range markers {
		found := false
		for _, d := range diags {
			if strings.Contains(d.Message, m) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic mentions %q:\n%s", m, render(diags))
		}
	}
}

func render(diags []analysis.Diagnostic) string {
	var sb strings.Builder
	for _, d := range diags {
		sb.WriteString("  " + d.String() + "\n")
	}
	return sb.String()
}

func TestBitwidthFlagsUnprovenWidths(t *testing.T) {
	diags := run(t, []synthPkg{{"test/internal/lib", `package lib

import "test/internal/bitio"

// Param is an unbounded parameter: no proof possible.
func Param(w *bitio.Writer, n int) {
	w.WriteBits(0, n)
}

// Arith has a provable bound, but it exceeds 64.
func Arith(w *bitio.Writer) {
	k := 60
	k = 70
	w.WriteBits(0, k)
}

// Reading is audited the same way as writing.
func Read(r *bitio.Reader, n int) error {
	_, err := r.ReadBits(n)
	return err
}
`}}, "bitwidth")
	expect(t, diags,
		"WriteBits width not provably in [0,64]: n",
		"bounds [60,70]",
		"ReadBits width not provably in [0,64]: n",
	)
}

func TestBitwidthAcceptsProvenWidths(t *testing.T) {
	diags := run(t, []synthPkg{{"test/internal/lib", `package lib

import (
	"test/internal/bitio"
	"test/internal/core"
	"test/internal/invariant"
)

func Emit(w *bitio.Writer, cfg core.Config, n int) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	w.WriteBits(1, 8)                  // constant
	w.WriteBits(2, cfg.CharBits)       // trusted validated field
	w.WriteBits(3, cfg.CodeBits())     // trusted validated accessor
	w.WriteBits(4, invariant.Width(n)) // runtime guard
	k := 3
	w.WriteBits(5, k+2) // local interval arithmetic
	return nil
}

func Pull(r *bitio.Reader) (uint64, error) {
	return r.ReadBits(16)
}
`}}, "bitwidth")
	expect(t, diags)
}

func TestDroppedErrorFlagsDiscards(t *testing.T) {
	diags := run(t, []synthPkg{{"test/internal/lib", `package lib

func fail() error { return nil }

func pair() (int, error) { return 0, nil }

func Bad() {
	fail()        // bare call
	_ = fail()    // blank single assignment
	_, _ = pair() // blank tuple assignment
}
`}}, "droppederror")
	expect(t, diags,
		"discarded by bare call",
		"fail() assigned to blank identifier",
		"pair() assigned to blank identifier",
	)
}

func TestDroppedErrorAcceptsHandledAndExempt(t *testing.T) {
	diags := run(t, []synthPkg{{"test/internal/lib", `package lib

func fail() error { return nil }

func pair() (int, error) { return 0, nil }

// NeverFails is on the configured exempt list.
func NeverFails() error { return nil }

func Good() error {
	if err := fail(); err != nil {
		return err
	}
	defer fail() // defers are exempt by design
	NeverFails()
	v, err := pair()
	_ = v // non-error blanks are fine
	return err
}
`}}, "droppederror")
	expect(t, diags)
}

func TestDroppedErrorScopedToStrictPackages(t *testing.T) {
	// test/other matches neither LibraryPaths nor StrictErrorPaths, so
	// its dropped errors are out of scope; test/cmd/tool matches the
	// strict /... pattern.
	diags := run(t, []synthPkg{
		{"test/other", `package other

func fail() error { return nil }

func Loose() { fail() }
`},
		{"test/cmd/tool", `package tool

func fail() error { return nil }

func Strict() { fail() }
`},
	}, "droppederror")
	if len(diags) != 1 || !strings.Contains(diags[0].Pos.Filename, "test_cmd_tool") {
		t.Fatalf("want exactly one finding in test/cmd/tool, got:\n%s", render(diags))
	}
}

func TestPanicPolicyFlagsBarePanics(t *testing.T) {
	diags := run(t, []synthPkg{{"test/internal/lib", `package lib

func Explode() {
	panic("boom")
}

func Shadowed() {
	panic := func(string) {}
	panic("not the builtin")
}
`}}, "panicpolicy")
	expect(t, diags, "bare panic in library package")
}

func TestPanicPolicyAllowsInvariantPackage(t *testing.T) {
	// The invariant package itself panics (it is the chokepoint) and is
	// on the allow list; re-check it alongside a clean lib package.
	diags := run(t, []synthPkg{{"test/internal/lib", `package lib

import "test/internal/invariant"

func Checked(err error) {
	invariant.Must(err)
}
`}}, "panicpolicy")
	expect(t, diags)
}

func TestConfigBeforeUseFlagsUnvalidatedConsumption(t *testing.T) {
	diags := run(t, []synthPkg{{"test/internal/lib", `package lib

import "test/internal/core"

func Leak(cfg core.Config) int {
	return cfg.CharBits
}
`}}, "configbeforeuse")
	expect(t, diags, "Leak consumes Config parameter cfg without calling Validate")
}

func TestConfigBeforeUseAcceptsValidatedPaths(t *testing.T) {
	diags := run(t, []synthPkg{{"test/internal/lib", `package lib

import "test/internal/core"

func Direct(cfg core.Config) (int, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	return cfg.CharBits, nil
}

// Forward consumes cfg but also hands it to Direct, which validates:
// the fixpoint must mark it secured.
func Forward(cfg core.Config) (int, error) {
	n := cfg.CharBits
	v, err := Direct(cfg)
	return n + v, err
}

// unexported helpers are trusted; only exported entry points are held
// to the contract.
func inner(cfg core.Config) int {
	return cfg.CharBits
}
`}}, "configbeforeuse")
	expect(t, diags)
}

func TestSuppressionsDropOnlyMarkedFindings(t *testing.T) {
	diags := run(t, []synthPkg{{"test/internal/lib", `package lib

func Hushed() {
	panic("known") //lzwtcvet:ignore panicpolicy test fixture
}

func Above() {
	//lzwtcvet:ignore all test fixture
	panic("also known")
}

func Loud() {
	panic("unsuppressed")
}

func WrongCheck() {
	panic("still flagged") //lzwtcvet:ignore droppederror wrong check name
}
`}}, "panicpolicy")
	if len(diags) != 2 {
		t.Fatalf("want 2 surviving findings, got:\n%s", render(diags))
	}
	for _, d := range diags {
		if d.Pos.Line != 13 && d.Pos.Line != 17 {
			t.Errorf("unexpected surviving finding: %s", d.String())
		}
	}
}

func TestNoSuppressPathsRejectIgnoreComments(t *testing.T) {
	// test/internal/nosup sits on the no-suppress list AND (for this
	// test) in LibraryPaths: the ignore comment must not silence the
	// panic finding, and must itself surface as a nosuppress finding.
	cfg := testConfig()
	cfg.LibraryPaths = append(cfg.LibraryPaths, "test/internal/nosup")
	pkgs := loadSynthetic(t, append(deps(), synthPkg{"test/internal/nosup", `package nosup

func Hidden() {
	panic("still flagged") //lzwtcvet:ignore panicpolicy not allowed here
}
`}))
	diags, err := analysis.Run(cfg, pkgs, "panicpolicy")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("want the panic finding plus a nosuppress finding, got:\n%s", render(diags))
	}
	expect(t, diags,
		"bare panic in library package",
		"lzwtcvet:ignore is forbidden in test/internal/nosup",
	)
	for _, d := range diags {
		if d.Check != "panicpolicy" && d.Check != "nosuppress" {
			t.Errorf("unexpected check name %q in %s", d.Check, d.String())
		}
	}
}

func TestRunSelectsAndSortsChecks(t *testing.T) {
	lib := synthPkg{"test/internal/lib", `package lib

func fail() error { return nil }

func Boom() {
	panic("x")
}

func Drop() {
	fail()
}
`}
	// Selecting only droppederror must hide the panic finding.
	diags := run(t, []synthPkg{lib}, "droppederror")
	expect(t, diags, "discarded by bare call")

	// All checks together come back sorted by position.
	diags = run(t, []synthPkg{lib})
	if len(diags) != 2 {
		t.Fatalf("want 2 findings, got:\n%s", render(diags))
	}
	if diags[0].Check != "panicpolicy" || diags[1].Check != "droppederror" {
		t.Errorf("findings not in position order:\n%s", render(diags))
	}

	pkgs := loadSynthetic(t, deps())
	if _, err := analysis.Run(testConfig(), pkgs, "nosuchcheck"); err == nil {
		t.Error("Run with an unknown check name must fail")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := analysis.Diagnostic{
		Pos:     token.Position{Filename: "x.go", Line: 3, Column: 7},
		Check:   "bitwidth",
		Message: "msg",
	}
	if got, want := d.String(), "x.go:3:7: [bitwidth] msg"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestChecksCatalog(t *testing.T) {
	want := []string{
		"bitwidth", "droppederror", "panicpolicy", "configbeforeuse",
		"allocbound", "goctx", "lockhygiene", "metricname", "deadexport", "staleignore",
	}
	checks := analysis.Checks()
	if len(checks) != len(want) {
		t.Fatalf("catalog has %d checks, want %d", len(checks), len(want))
	}
	for i, c := range checks {
		if c.Name() != want[i] {
			t.Errorf("check %d = %q, want %q", i, c.Name(), want[i])
		}
		if c.Doc() == "" {
			t.Errorf("check %q has no doc", c.Name())
		}
	}
}

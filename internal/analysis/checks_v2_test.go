package analysis_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"lzwtc/internal/analysis"
)

// The v2 checks lean on stdlib types (io.Reader, context.Context,
// sync.Mutex, time.After). The synthetic importer cannot see the real
// standard library, so minimal stand-ins are declared under the real
// import paths — the checks match on package path + name, which is
// exactly what these fakes provide.
const (
	fakeIoSrc = `package io

type Reader interface {
	Read(p []byte) (n int, err error)
}

func ReadAll(r Reader) ([]byte, error) { return nil, nil }

func LimitReader(r Reader, n int64) Reader { return r }
`
	fakeContextSrc = `package context

type Context interface {
	Done() <-chan struct{}
	Err() error
}

type CancelFunc func()

func Background() Context { return nil }

func WithCancel(parent Context) (Context, CancelFunc) { return parent, func() {} }
`
	fakeTimeSrc = `package time

type Timer struct{ C chan int }

type Time struct{ ns int64 }

func (t Time) After(u Time) bool { return t.ns > u.ns }

func After(d int64) <-chan int { return nil }

func NewTimer(d int64) *Timer { return &Timer{} }
`
	fakeSyncSrc = `package sync

type Mutex struct{ state int }

func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}

type RWMutex struct{ state int }

func (m *RWMutex) Lock()    {}
func (m *RWMutex) Unlock()  {}
func (m *RWMutex) RLock()   {}
func (m *RWMutex) RUnlock() {}
`
	fakeBitvecSrc = `package bitvec

func New(n int) []uint64 { return nil }
`
	fakePoolSrc = `package pool

func Run() {}
`
	fakeTelemSrc = `package telem

type Registry struct{}

func (r *Registry) Counter(name, help string) int { return 0 }
func (r *Registry) Gauge(name, help string) int   { return 0 }

type Recorder struct{}

func (r *Recorder) StartSpan(ctx int, name string) int { return 0 }

func Dyn(phase string) string { return phase }
`
)

func TestAllocBoundTaintsUntrustedSizes(t *testing.T) {
	diags := run(t, []synthPkg{
		{"io", fakeIoSrc},
		{"test/internal/bitvec", fakeBitvecSrc},
		{"test/internal/hostile", `package hostile

import (
	"io"

	"test/internal/bitvec"
	"test/internal/invariant"
)

// Unpack has the decode-helper shape: raw payload plus an integer
// header field, allocated without any bound. Must be flagged.
func Unpack(data []byte, n int) []int {
	return make([]int, n)
}

// Guarded rejects hostile sizes before allocating. Must stay clean.
func Guarded(data []byte, n int) []int {
	if n < 0 || n > 1024 {
		return nil
	}
	return make([]int, n)
}

// AcceptForm allocates only inside the bounded branch. Must stay clean.
func AcceptForm(data []byte, n int) []int {
	if n <= 1024 {
		return make([]int, n)
	}
	return nil
}

// InvariantGuarded launders the size through the configured guard.
// Must stay clean.
func InvariantGuarded(data []byte, n int) []int {
	invariant.Check(n <= 1024, "size")
	return make([]int, n)
}

// Vec feeds a tainted size to a configured allocation constructor.
// Must be flagged.
func Vec(data []byte, n int) []uint64 {
	return bitvec.New(n)
}

// FromReader sizes an allocation from a value decoded off the wire by
// an in-module Reader helper. Must be flagged.
func FromReader(r io.Reader) []byte {
	n, _ := readLen(r)
	return make([]byte, n)
}

func readLen(r io.Reader) (int, error) { return 0, nil }

// Slurp buffers an attacker-chosen number of bytes. Must be flagged.
func Slurp(r io.Reader) ([]byte, error) {
	return io.ReadAll(r)
}

// SlurpBounded caps the reader first. Must stay clean.
func SlurpBounded(r io.Reader) ([]byte, error) {
	return io.ReadAll(io.LimitReader(r, 4096))
}
`}}, "allocbound")
	expect(t, diags,
		"make size n derives from untrusted input",
		"New argument n derives from untrusted input",
		"make size n derives from untrusted input",
		"io.ReadAll over unlimited reader r",
	)
}

func TestGoctxRequiresObservableGoroutines(t *testing.T) {
	diags := run(t, []synthPkg{
		{"context", fakeContextSrc},
		{"time", fakeTimeSrc},
		{"test/internal/pool", fakePoolSrc},
		{"test/internal/conc", `package conc

import (
	"context"
	"time"
)

// Bad launches a goroutine nothing can stop or wait for. Must be
// flagged.
func Bad() {
	go func() {}()
}

// Good observes ctx inside the literal. Must stay clean.
func Good(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// Joined sends on a channel the launcher receives from: the launcher
// cannot return without the goroutine. Must stay clean.
func Joined() int {
	ch := make(chan int, 1)
	go func() { ch <- work() }()
	return <-ch
}

func work() int { return 0 }

// Unpooled is a bare function launch with no context argument. Must be
// flagged.
func Unpooled() {
	go work()
}

// DropCancel discards the cancel func. Must be flagged.
func DropCancel(parent context.Context) {
	ctx, _ := context.WithCancel(parent)
	_ = ctx
}

// DeferCancel defers it immediately. Must stay clean.
func DeferCancel(parent context.Context) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	_ = ctx
}

// Poll allocates a timer per iteration. Must be flagged.
func Poll(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(10):
		}
	}
}

// PollGood reuses one timer. Must stay clean.
func PollGood(ctx context.Context) {
	t := time.NewTimer(10)
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// CompareLoop calls the time.Time.After *method* in a loop. Must stay
// clean: only the package-level time.After allocates a timer.
func CompareLoop(ts []time.Time, cut time.Time) int {
	n := 0
	for _, u := range ts {
		if u.After(cut) {
			n++
		}
	}
	return n
}
`},
	}, "goctx")
	expect(t, diags,
		"no channel join with its launcher",
		"receives no context.Context and is not pool-launched",
		"cancel function discarded as _",
		"time.After inside a loop",
	)
}

func TestGoctxPoolLaunchIsClean(t *testing.T) {
	diags := run(t, []synthPkg{
		{"context", fakeContextSrc},
		{"time", fakeTimeSrc},
		{"test/internal/pool", fakePoolSrc},
		{"test/internal/conc", `package conc

import "test/internal/pool"

func Dispatch() {
	go pool.Run()
}
`},
	}, "goctx")
	expect(t, diags)
}

func TestLockHygieneWindowsAndCopies(t *testing.T) {
	diags := run(t, []synthPkg{
		{"sync", fakeSyncSrc},
		{"test/internal/locky", `package locky

import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

// Copy has a value receiver on a mutex-bearing struct: every call
// copies the lock. Must be flagged.
func (s S) Copy() int { return s.n }

// NoUnlock acquires and never releases. Must be flagged.
func (s *S) NoUnlock() {
	s.mu.Lock()
	s.n++
}

// Clean is the canonical pattern. Must stay clean.
func (s *S) Clean() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
}

// HeldAcross performs a channel send while holding the lock. Must be
// flagged.
func (s *S) HeldAcross(ch chan int) {
	s.mu.Lock()
	ch <- s.n
	s.mu.Unlock()
}

// ReleasedFirst drops the lock before blocking. Must stay clean.
func (s *S) ReleasedFirst(ch chan int) {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	ch <- n
}

// Shared holds the mutex behind a pointer: copying S2 shares the lock
// rather than duplicating it. Must stay clean.
type S2 struct {
	mu *sync.Mutex
}

func (s S2) Read() {}
`},
	}, "lockhygiene")
	expect(t, diags,
		"value receiver on a type containing a sync mutex",
		"with no matching unlock in this function",
		"channel send while holding s.mu",
	)
}

func TestMetricNameContracts(t *testing.T) {
	pkgs := loadSynthetic(t, append(deps(),
		synthPkg{"test/internal/telem", fakeTelemSrc},
		synthPkg{"test/internal/metrics", `package metrics

import "test/internal/telem"

const (
	Good   = "lzwtc_good_total"
	Orphan = "lzwtc_orphan_total"
	Dup    = "lzwtc_dup_total"
	Twice  = "lzwtc_twice_total"

	SpanGood   = "pipeline.run"
	SpanOrphan = "pipeline.orphan"
)

func Register(r *telem.Registry, name string) {
	r.Counter(Good, "asserted in the package tests")
	r.Counter(Orphan, "registered but never asserted")
	r.Counter(name, "computed name")
	r.Counter("bad name!", "rejected by the prometheus grammar")
	r.Counter(telem.Dyn("encode"), "sanctioned constructor")
	r.Counter(Dup, "one kind")
	r.Gauge(Dup, "another kind")
	r.Counter(Twice, "site one")
	r.Counter(Twice, "site two")
}

func Trace(rec *telem.Recorder, name string) {
	rec.StartSpan(0, SpanGood)
	rec.StartSpan(0, name)
	rec.StartSpan(0, "Bad.Span")
	rec.StartSpan(0, SpanOrphan)
}
`}))
	// The exposition contract is cross-checked against the package's
	// test files, which load.go parses without type-checking; mirror
	// that here by attaching a parsed test file to the synthetic package.
	var metrics *analysis.Package
	for _, p := range pkgs {
		if p.Path == "test/internal/metrics" {
			metrics = p
		}
	}
	if metrics == nil {
		t.Fatal("metrics fixture not loaded")
	}
	testSrc := `package metrics

func TestExposition(t *testing.T) {
	_ = Good
	_ = Dup
	_ = Twice
	_ = SpanGood
}
`
	tf, err := parser.ParseFile(metrics.Fset, "metrics_test.go", testSrc, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse test fixture: %v", err)
	}
	metrics.TestFiles = []*ast.File{tf}

	diags, err := analysis.Run(testConfig(), pkgs, "metricname")
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	expect(t, diags,
		"is not a string constant or sanctioned constructor",
		"is not a valid Prometheus metric name",
		"registered under multiple kinds",
		"registered under multiple kinds",
		"registered at multiple sites",
		"metric \"lzwtc_orphan_total\" is exposed but never asserted",
		"span name name is not a string constant",
		"is not in the span grammar",
		"span \"pipeline.orphan\" is recorded but never asserted",
	)
}

func TestStaleIgnoreReportsDeadSuppressions(t *testing.T) {
	diags := run(t, []synthPkg{{"test/internal/lib", `package lib

// Hushed's suppression still silences a live finding: not stale.
func Hushed() {
	panic("known") //lzwtcvet:ignore panicpolicy accepted crash path
}

// Quiet's suppression silences nothing: stale, must be flagged.
func Quiet() int {
	return 1 //lzwtcvet:ignore panicpolicy nothing fires here
}

// Unjudged names a check that did not run this invocation; no verdict.
func Unjudged() int {
	return 2 //lzwtcvet:ignore droppederror not selected
}
`}}, "panicpolicy", "staleignore")
	expect(t, diags, "stale lzwtcvet:ignore: no panicpolicy finding fires here anymore")
}

func TestBaselineRoundTripAndDiff(t *testing.T) {
	root := string(filepath.Separator) + filepath.Join("repo", "root")
	diags := []analysis.Diagnostic{
		{
			Pos:   token.Position{Filename: filepath.Join(root, "internal", "wire", "wire.go"), Line: 12, Column: 3},
			Check: "allocbound", Message: "m-alloc",
		},
		{
			Pos:   token.Position{Filename: filepath.Join(root, "client", "client.go"), Line: 7, Column: 1},
			Check: "goctx", Message: "m-go",
		},
	}
	fs := analysis.ToJSON(root, diags)
	if len(fs) != 2 {
		t.Fatalf("ToJSON: got %d findings, want 2", len(fs))
	}
	// Sorted by file, and repo-relative with forward slashes regardless
	// of platform.
	if fs[0].File != "client/client.go" || fs[1].File != "internal/wire/wire.go" {
		t.Fatalf("ToJSON paths not relative/sorted: %+v", fs)
	}

	path := filepath.Join(t.TempDir(), "baseline.json")
	var buf bytes.Buffer
	if err := analysis.WriteJSON(&buf, fs); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("write baseline: %v", err)
	}
	loaded, err := analysis.LoadBaseline(path)
	if err != nil {
		t.Fatalf("LoadBaseline: %v", err)
	}
	if len(loaded) != 2 || loaded[0] != fs[0] || loaded[1] != fs[1] {
		t.Fatalf("round trip mismatch: %+v vs %+v", loaded, fs)
	}

	// The baseline match key is file+check+message: a finding that only
	// drifted to another line is neither new nor stale.
	drifted := []analysis.JSONFinding{
		{File: "client/client.go", Line: 99, Col: 1, Check: "goctx", Message: "m-go"},
		{File: "internal/parallel/pool.go", Line: 4, Col: 2, Check: "lockhygiene", Message: "m-new"},
	}
	fresh, stale := analysis.DiffBaseline(drifted, loaded)
	if len(fresh) != 1 || fresh[0].Message != "m-new" {
		t.Fatalf("DiffBaseline fresh = %+v, want the lockhygiene finding only", fresh)
	}
	if len(stale) != 1 || stale[0].Message != "m-alloc" {
		t.Fatalf("DiffBaseline stale = %+v, want the fixed allocbound entry", stale)
	}
}

func TestEmptyJSONIsArray(t *testing.T) {
	var buf bytes.Buffer
	if err := analysis.WriteJSON(&buf, nil); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if got := string(bytes.TrimSpace(buf.Bytes())); got != "[]" {
		t.Fatalf("empty findings must serialize as an array, got %q", got)
	}
}

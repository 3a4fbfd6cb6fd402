package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"lzwtc/internal/analysis"
)

// The deadexport check needs what the in-memory fixtures cannot give
// it: a module on disk, loaded whole by the go command, with test files
// and a nested cmd/lzwtcbench module beside it. deadExportModule writes
// that module to a temporary directory.
func deadExportModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/m\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

import "io"

func Dead() {}

func OwnOnly() int { return 1 }

func use() int { return OwnOnly() }

func Used() *Shape { return nil }

type Shape struct{ Part Part }

type Part struct{}

func (s *Shape) Unused() {}

func (s *Shape) Write(p []byte) (int, error) { return len(p), nil }

var _ io.Writer = (*Shape)(nil)

func OtherTestRef() {}

func ExternalTestRef() {}

func BenchRef() {}

func OwnTestOnly() {}
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestOwn(t *testing.T) {
	OwnTestOnly()
	new(Shape).Unused()
}
`,
		"internal/lib/ext_test.go": `package lib_test

import (
	"testing"

	"example.com/m/internal/lib"
)

func TestExternal(t *testing.T) { lib.ExternalTestRef() }
`,
		"app/app.go": `package app

import "example.com/m/internal/lib"

func F() { lib.Used() }
`,
		"app/app_test.go": `package app

import (
	"testing"

	l "example.com/m/internal/lib"
)

func TestApp(t *testing.T) { l.OtherTestRef() }
`,
		"cmd/lzwtcbench/go.mod": "module example.com/m/cmd/lzwtcbench\n\ngo 1.22\n",
		"cmd/lzwtcbench/main.go": `package main

import "example.com/m/internal/lib"

func main() { lib.BenchRef() }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runDeadExport(t *testing.T, dir string, patterns ...string) []analysis.Diagnostic {
	t.Helper()
	pkgs, err := analysis.Load(dir, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.Run(testConfig(), pkgs, "deadexport")
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// TestDeadExportFlagsUnreferencedNames: a name no other package
// references is flagged, with the fix its own package's use calls for.
// References from another package's test file, from the package's own
// external test, and from cmd/lzwtcbench each keep a name exported; a
// reference from the package's own internal test does not. An
// interface-satisfying method (Write) and the types named by a
// referenced signature (Shape, and Part through its exported field)
// are exempt.
func TestDeadExportFlagsUnreferencedNames(t *testing.T) {
	diags := runDeadExport(t, deadExportModule(t))
	expect(t, diags,
		"func lib.Dead has no referrer outside its package; nothing but its own package's tests uses it; delete it",
		"func lib.OwnOnly has no referrer outside its package; unexport it",
		"method lib.Shape.Unused has no referrer outside its package; nothing but",
		"func lib.OwnTestOnly has no referrer outside its package; nothing but",
	)
}

// TestDeadExportJudgesOnlyTheWholeModule: a run over a narrower pattern
// has not loaded every referrer of what it loaded, so it reports
// nothing rather than a finding it cannot judge.
func TestDeadExportJudgesOnlyTheWholeModule(t *testing.T) {
	diags := runDeadExport(t, deadExportModule(t), "./internal/...")
	expect(t, diags)
}

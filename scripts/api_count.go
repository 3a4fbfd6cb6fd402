//go:build ignore

// api_count reports the module's exported-API count and its non-test
// Go line count, the two size figures every change reports.
//
// Exported API: exported top-level funcs, exported methods on exported
// receiver types, exported types, and each exported const and var
// name, in non-test files of non-main packages. Lines: every line of
// every non-test .go file, main packages included. Both skip
// cmd/lzwtcbench (its own module) and testdata directories.
//
// Run from the module root: go run scripts/api_count.go
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	fset := token.NewFileSet()
	perPkg := map[string]int{}
	lines := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch {
			case path == filepath.Join("cmd", "lzwtcbench"), d.Name() == "testdata",
				path != "." && strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		lines += strings.Count(string(src), "\n")
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		perPkg[filepath.Dir(path)] += exported(f)
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "api_count:", err)
		os.Exit(1)
	}
	dirs := make([]string, 0, len(perPkg))
	total := 0
	for dir, n := range perPkg {
		dirs = append(dirs, dir)
		total += n
	}
	sort.Strings(dirs)
	if len(os.Args) > 1 && os.Args[1] == "-v" {
		for _, dir := range dirs {
			fmt.Printf("%6d  %s\n", perPkg[dir], dir)
		}
	}
	fmt.Printf("exported API: %d (root package %d)\n", total, perPkg["."])
	fmt.Printf("non-test Go lines: %d\n", lines)
}

// exported counts one file's exported top-level identifiers.
func exported(f *ast.File) int {
	n := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil || receiverExported(d.Recv.List[0].Type) {
				n++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						n++
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// receiverExported reports whether a method receiver's base type name
// is exported (T, *T, T[P] and *T[P] all name T).
func receiverExported(expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.IsExported()
		default:
			return false
		}
	}
}

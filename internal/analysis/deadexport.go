package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// deadExportCheck keeps the internal packages' exported surface down to
// what another package uses. A finding is an exported top-level name,
// or an exported method of an exported type, declared in a package
// under the module's internal/ tree that no other package references.
// It is fixed at the source: unexported when its own package uses it,
// deleted when nothing but its own tests does.
//
// Referrer rule:
//
//   - Non-test files of every other loaded module package count,
//     resolved through go/types Uses and Selections.
//   - Test files of every other package count, and so do the package's
//     own external _test files. They are parsed but not type-checked,
//     so they are matched syntactically: an import-qualified selector
//     (core.Name) for a top-level name, and any selector of the name
//     (x.Name) for a method. Over-matching only keeps a name exported.
//   - The files of the separate cmd/lzwtcbench module count, matched
//     syntactically the same way.
//
// Exemptions:
//
//   - A method whose name and signature match a method of an interface
//     type in the loaded packages or their imports (Error, String,
//     Write, ServeHTTP, ...), since it may be called only through the
//     interface.
//   - A type that appears in the signature, type or exported field of a
//     live name, or whose methods or fields another package selects. A
//     live name is a referenced one, an exempt type, or an exempt
//     method of an exempt type.
//
// The check judges only a load of the whole module: a narrower pattern
// has not loaded every possible referrer, so it reports nothing.
type deadExportCheck struct{}

const (
	// deadExportScope is the module-relative prefix of the audited
	// packages.
	deadExportScope = "internal/"
	// deadExportBenchModule is a nested module, outside `go list ./...`,
	// whose files also count as referrers.
	deadExportBenchModule = "cmd/lzwtcbench"
)

func (deadExportCheck) Name() string { return "deadexport" }
func (deadExportCheck) Doc() string {
	return "an exported name or method of an internal/ package must be referenced by another package (its tests and cmd/lzwtcbench included); unexport it or delete it"
}

func (deadExportCheck) Run(cfg *Config, pkgs []*Package) []Diagnostic {
	modDir, modPath, ok := wholeModule(pkgs)
	if !ok {
		return nil
	}
	inScope := func(p *types.Package) bool {
		return p != nil && strings.HasPrefix(p.Path(), modPath+"/"+deadExportScope)
	}

	refs := &exportRefs{objs: map[types.Object]bool{}, qualified: map[string]bool{}, methods: map[string]map[string]bool{}}
	ownUse := map[types.Object]bool{}
	for _, pkg := range pkgs {
		refs.addTyped(pkg, ownUse)
		for _, f := range pkg.TestFiles {
			self := pkg.Path // an internal test file's methods are its own
			if strings.HasSuffix(f.Name.Name, "_test") {
				self = ""
			}
			refs.addSyntactic(f, self)
		}
	}
	if err := refs.addDir(filepath.Join(modDir, filepath.FromSlash(deadExportBenchModule))); err != nil {
		return []Diagnostic{{Check: "deadexport", Message: err.Error()}}
	}

	ifaces := interfaceMethods(pkgs)
	exempt := func(m *types.Func) bool {
		for _, sig := range ifaces[m.Name()] {
			if types.Identical(m.Type(), sig) {
				return true
			}
		}
		return false
	}

	// Candidates: every in-scope exported name and exported method of
	// an exported type.
	var candidates []types.Object
	for _, pkg := range pkgs {
		if !inScope(pkg.Types) {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			obj := pkg.Types.Scope().Lookup(name)
			if !obj.Exported() {
				continue
			}
			candidates = append(candidates, obj)
			for _, m := range declaredMethods(obj) {
				if m.Exported() {
					candidates = append(candidates, m)
				}
			}
		}
	}

	live := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if obj.Exported() && inScope(obj.Pkg()) && !live[obj] {
			live[obj] = true
			work = append(work, obj)
		}
	}
	for _, obj := range candidates {
		if refs.references(obj) {
			mark(obj)
		}
	}
	seen := map[types.Type]bool{}
	var markType func(t types.Type)
	markType = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			mark(t.Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				markType(t.TypeArgs().At(i))
			}
		case *types.Alias:
			markType(types.Unalias(t))
		case interface{ Elem() types.Type }: // pointer, slice, array, chan, map
			if m, ok := t.(*types.Map); ok {
				markType(m.Key())
			}
			markType(t.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					markType(tuple.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					markType(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				markType(t.Method(i).Type())
			}
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		markType(obj.Type().Underlying())
		for _, m := range declaredMethods(obj) {
			if m.Exported() && exempt(m) {
				mark(m)
			}
		}
	}

	var diags []Diagnostic
	for _, obj := range candidates {
		m, isMethod := obj.(*types.Func)
		isMethod = isMethod && m.Type().(*types.Signature).Recv() != nil
		if live[obj] || isMethod && exempt(m) {
			continue
		}
		kind, name := "var", obj.Name()
		switch obj.(type) {
		case *types.Func:
			kind = "func"
			if isMethod {
				kind, name = "method", recvName(m)+"."+name
			}
		case *types.TypeName:
			kind = "type"
		case *types.Const:
			kind = "const"
		}
		fix := "unexport it"
		if !ownUse[obj] {
			fix = "nothing but its own package's tests uses it; delete it (a decoder, oracle or test fake the tests compare against stays, unexported)"
		}
		diags = append(diags, Diagnostic{
			Pos:     pkgs[0].Fset.Position(obj.Pos()),
			Check:   "deadexport",
			Message: fmt.Sprintf("exported %s %s.%s has no referrer outside its package; %s", kind, obj.Pkg().Name(), name, fix),
		})
	}
	return diags
}

// declaredMethods returns the methods declared on obj when it names a
// defined type.
func declaredMethods(obj types.Object) []*types.Func {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() {
		return nil
	}
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return nil
	}
	var ms []*types.Func
	for i := 0; i < named.NumMethods(); i++ {
		ms = append(ms, named.Method(i))
	}
	return ms
}

func recvName(m *types.Func) string {
	t := m.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// originObj maps an instantiated generic function or field to its
// declaration.
func originObj(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exportRefs collects the references the referrer rule counts.
type exportRefs struct {
	objs map[types.Object]bool
	// qualified holds syntactic "importpath.Name" references.
	qualified map[string]bool
	// methods maps a syntactically selected name to the import paths
	// of the packages selecting it; "" stands for an external test file
	// or a file of another module.
	methods map[string]map[string]bool
}

// addTyped records what pkg's non-test files reference in other
// packages, the named types whose methods or fields they select, and
// (in own) every object pkg uses.
func (r *exportRefs) addTyped(pkg *Package, own map[types.Object]bool) {
	for _, obj := range pkg.Info.Uses {
		obj = originObj(obj)
		own[obj] = true
		if obj.Pkg() != nil && obj.Pkg() != pkg.Types {
			r.objs[obj] = true
		}
	}
	for _, sel := range pkg.Info.Selections {
		t := sel.Recv()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := types.Unalias(t).(*types.Named); ok && named.Obj().Pkg() != pkg.Types {
			r.objs[named.Origin().Obj()] = true
		}
	}
}

// addSyntactic records the selectors of one parsed file. self is the
// import path of the package whose methods the file's selectors do not
// count for, or "".
func (r *exportRefs) addSyntactic(f *ast.File, self string) {
	imports := map[string]string{}
	for _, spec := range f.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = path
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
				r.qualified[imports[id.Name]+"."+sel.Sel.Name] = true
			}
			if r.methods[sel.Sel.Name] == nil {
				r.methods[sel.Sel.Name] = map[string]bool{}
			}
			r.methods[sel.Sel.Name][self] = true
		}
		return true
	})
}

// addDir parses every Go file in dir, if it exists, as a syntactic
// referrer from outside every loaded package.
func (r *exportRefs) addDir(dir string) error {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("deadexport: %v", err)
		}
		r.addSyntactic(f, "")
	}
	return nil
}

// references reports whether the referrer rule counts a reference to
// obj.
func (r *exportRefs) references(obj types.Object) bool {
	if r.objs[obj] {
		return true
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		for from := range r.methods[obj.Name()] {
			if from != obj.Pkg().Path() {
				return true
			}
		}
		return false
	}
	return r.qualified[obj.Pkg().Path()+"."+obj.Name()]
}

// interfaceMethods indexes by name the signatures of every method of
// the predeclared error, of every interface type declared at package
// level in the loaded packages and everything they import, and of
// every interface type expression in the loaded packages.
func interfaceMethods(pkgs []*Package) map[string][]types.Type {
	out := map[string][]types.Type{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				out[it.Method(i).Name()] = append(out[it.Method(i).Name()], it.Method(i).Type())
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for e, tv := range pkg.Info.Types {
			if _, lit := e.(*ast.InterfaceType); lit && tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

// wholeModule returns the directory and path of the module holding
// pkgs, and whether pkgs are every package `go list ./...` names in
// it.
func wholeModule(pkgs []*Package) (dir, path string, ok bool) {
	loaded := map[string]bool{}
	for _, pkg := range pkgs {
		loaded[pkg.Path] = true
		if dir == "" && len(pkg.Files) > 0 {
			dir = filepath.Dir(pkg.Fset.Position(pkg.Files[0].Package).Filename)
		}
	}
	if !filepath.IsAbs(dir) { // not loaded from disk
		return "", "", false
	}
	gomod, err := goOutput(dir, "env", "GOMOD")
	if err != nil || !filepath.IsAbs(gomod) {
		return "", "", false
	}
	dir = filepath.Dir(gomod)
	if path, err = goOutput(dir, "list", "-m"); err != nil {
		return "", "", false
	}
	all, err := goOutput(dir, "list", "-e", "./...")
	if err != nil {
		return "", "", false
	}
	for _, p := range strings.Fields(all) {
		if !loaded[p] {
			return "", "", false
		}
	}
	return dir, path, true
}

// goOutput runs the go command in dir and returns its trimmed stdout.
func goOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

package analysis

import (
	"go/ast"
	"go/types"
)

// panicPolicyCheck forbids bare panic calls in the library packages.
// The sanctioned route is internal/invariant (Violatef/Check/Must),
// which panics with a typed violation value through one auditable
// chokepoint; callers can then distinguish invariant violations from
// incidental runtime panics, and every deliberate halt is greppable.
type panicPolicyCheck struct{}

func (panicPolicyCheck) Name() string { return "panicpolicy" }
func (panicPolicyCheck) Doc() string {
	return "library packages may panic only through the internal/invariant helpers"
}

func (panicPolicyCheck) Run(cfg *Config, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if !matchPath(pkg.Path, cfg.LibraryPaths) || matchPath(pkg.Path, cfg.PanicAllowPaths) {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id, ok := call.Fun.(*ast.Ident)
				if !ok || id.Name != "panic" {
					return true
				}
				if _, ok := pkg.Info.Uses[id].(*types.Builtin); !ok {
					return true // shadowed identifier, not the builtin
				}
				diags = append(diags, Diagnostic{
					Pos:     pkg.Fset.Position(call.Pos()),
					Check:   "panicpolicy",
					Message: "bare panic in library package; use invariant.Violatef / Check / Must",
				})
				return true
			})
		}
	}
	return diags
}

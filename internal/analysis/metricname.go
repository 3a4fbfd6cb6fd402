package analysis

import (
	"go/ast"
	"go/constant"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// metricNameCheck pins down the telemetry naming contract. A typo'd or
// computed metric name is invisible until a dashboard goes blank, so:
//
//   - every Registry.Counter/Gauge/Histogram name argument must be a
//     compile-time string constant (literal or package const) or a call
//     to a sanctioned dynamic-name constructor (MetricNameAllow);
//   - a name must be a valid Prometheus metric name;
//   - a name must be registered under exactly one kind and at exactly
//     one static call site — the same string as both a counter and a
//     gauge doubly exports it, and a second site means two help strings
//     fighting over one series;
//   - in MetricAssertPaths packages, every registered name must be
//     asserted somewhere in that package's tests (by const reference or
//     literal value), so /metrics output and tests cannot drift apart.
//
// The same contract extends to trace spans: every Recorder.StartSpan
// name must be a compile-time string constant in the
// dotted-lowercase span grammar (span names feed PhaseMetricName
// histograms and trace dashboards), and in MetricAssertPaths packages
// each span name must be asserted in that package's tests.
type metricNameCheck struct{}

func (metricNameCheck) Name() string { return "metricname" }
func (metricNameCheck) Doc() string {
	return "metric names must be string constants (or sanctioned constructors), valid, registered under one kind at one site, and asserted in tests for MetricAssertPaths packages; span names must be constants in the dotted-lowercase grammar"
}

var metricNameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// spanNameRE is the grammar for trace span names: lowercase dotted
// segments ("core.match_loop", "parse"). PhaseMetricName maps them onto
// Prometheus names, so anything outside this set would silently mangle.
var spanNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// metricReg is one statically named registration site.
type metricReg struct {
	pkg       *Package
	pos       ast.Node
	kind      string // Counter, Gauge, Histogram
	value     string // the metric name
	constName string // identifier the name arrived through, "" for a literal
}

func (c metricNameCheck) Run(cfg *Config, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	report := func(pkg *Package, n ast.Node, msg string) {
		diags = append(diags, Diagnostic{Pos: pkg.Fset.Position(n.Pos()), Check: "metricname", Message: msg})
	}
	var regs []metricReg
	var spans []metricReg
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if idx, ok := spanCall(cfg, pkg, call); ok && len(call.Args) > idx {
					nameArg := call.Args[idx]
					tv, hasTV := pkg.Info.Types[nameArg]
					if !hasTV || tv.Value == nil || tv.Value.Kind() != constant.String {
						report(pkg, nameArg, "span name "+exprString(nameArg)+
							" is not a string constant; a computed span name cannot be audited against traces and dashboards")
						return true
					}
					value := constant.StringVal(tv.Value)
					if !spanNameRE.MatchString(value) {
						report(pkg, nameArg, "span name "+strconv.Quote(value)+
							" is not in the span grammar (lowercase dotted segments); PhaseMetricName would mangle it")
						return true
					}
					spans = append(spans, metricReg{pkg, nameArg, "Span", value, constIdentName(nameArg)})
					return true
				}
				kind, ok := registryCall(cfg, pkg, call)
				if !ok || len(call.Args) == 0 {
					return true
				}
				nameArg := call.Args[0]
				tv, hasTV := pkg.Info.Types[nameArg]
				if !hasTV || tv.Value == nil || tv.Value.Kind() != constant.String {
					if inner, ok := nameArg.(*ast.CallExpr); ok {
						if callee := calleeFunc(pkg.Info, inner.Fun); callee != nil {
							full := callee.FullName()
							if matchName(full, cfg.MetricNameAllow) || hasSuffixName(full, cfg.MetricNameAllow) {
								return true // sanctioned constructor
							}
						}
					}
					report(pkg, nameArg, "metric name "+exprString(nameArg)+
						" is not a string constant or sanctioned constructor; a computed name cannot be audited against dashboards and tests")
					return true
				}
				value := constant.StringVal(tv.Value)
				if !metricNameRE.MatchString(value) {
					report(pkg, nameArg, "metric name "+strconv.Quote(value)+" is not a valid Prometheus metric name")
					return true
				}
				regs = append(regs, metricReg{pkg, nameArg, kind, value, constIdentName(nameArg)})
				return true
			})
		}
	}

	// One kind, one site per name.
	byValue := map[string][]metricReg{}
	for _, r := range regs {
		byValue[r.value] = append(byValue[r.value], r)
	}
	values := make([]string, 0, len(byValue))
	for v := range byValue {
		values = append(values, v)
	}
	sort.Strings(values)
	for _, v := range values {
		group := byValue[v]
		if len(group) == 1 {
			continue
		}
		kinds := map[string]bool{}
		for _, r := range group {
			kinds[r.kind] = true
		}
		if len(kinds) > 1 {
			names := make([]string, 0, len(kinds))
			for k := range kinds {
				names = append(names, k)
			}
			sort.Strings(names)
			for _, r := range group {
				report(r.pkg, r.pos, "metric "+strconv.Quote(v)+" registered under multiple kinds ("+
					strings.Join(names, ", ")+"); each name must be one metric")
			}
			continue
		}
		first := group[0]
		for _, r := range group[1:] {
			report(r.pkg, r.pos, "metric "+strconv.Quote(v)+" registered at multiple sites (first at "+
				first.pkg.Fset.Position(first.pos.Pos()).String()+"); register once and share the handle")
		}
	}

	// Test cross-check for the packages whose /metrics surface is part
	// of the service contract. Span names carry the same burden there:
	// a renamed span breaks trace consumers as silently as a renamed
	// metric breaks dashboards.
	asserted := map[string]testAsserts{}
	assertsFor := func(pkg *Package) testAsserts {
		a, ok := asserted[pkg.Path]
		if !ok {
			a = collectTestAsserts(pkg)
			asserted[pkg.Path] = a
		}
		return a
	}
	for _, r := range regs {
		if !matchPath(r.pkg.Path, cfg.MetricAssertPaths) {
			continue
		}
		a := assertsFor(r.pkg)
		if a.values[r.value] || (r.constName != "" && a.idents[r.constName]) {
			continue
		}
		report(r.pkg, r.pos, "metric "+strconv.Quote(r.value)+
			" is exposed but never asserted in this package's tests; dashboards depending on it can silently break")
	}
	for _, r := range spans {
		if !matchPath(r.pkg.Path, cfg.MetricAssertPaths) {
			continue
		}
		a := assertsFor(r.pkg)
		if a.values[r.value] || (r.constName != "" && a.idents[r.constName]) {
			continue
		}
		report(r.pkg, r.pos, "span "+strconv.Quote(r.value)+
			" is recorded but never asserted in this package's tests; trace consumers depending on it can silently break")
	}
	return diags
}

// spanCall reports whether call starts a trace span on the telemetry
// Recorder, returning the index of the name argument (StartSpan(ctx,
// name)).
func spanCall(cfg *Config, pkg *Package, call *ast.CallExpr) (int, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "StartSpan" {
		return 0, false
	}
	recv := typeNamed(pkg.Info.TypeOf(sel.X))
	if recv == nil || recv.Obj().Name() != "Recorder" || recv.Obj().Pkg() == nil {
		return 0, false
	}
	if !matchPath(recv.Obj().Pkg().Path(), cfg.TelemetryPaths) {
		return 0, false
	}
	return 1, true
}

// registryCall reports whether call registers a metric on the telemetry
// Registry, returning the kind.
func registryCall(cfg *Config, pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Counter", "Gauge", "Histogram":
	default:
		return "", false
	}
	recv := typeNamed(pkg.Info.TypeOf(sel.X))
	if recv == nil || recv.Obj().Name() != "Registry" || recv.Obj().Pkg() == nil {
		return "", false
	}
	if !matchPath(recv.Obj().Pkg().Path(), cfg.TelemetryPaths) {
		return "", false
	}
	return sel.Sel.Name, true
}

// constIdentName returns the identifier a constant name expression goes
// through (MetricRequests, server.MetricRequests), or "" for a bare
// literal or constant arithmetic.
func constIdentName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return constIdentName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}

// testAsserts is what a package's test files mention: string literal
// values and identifier names. Test files are parse-only (load.go), so
// the scan is syntactic.
type testAsserts struct {
	values map[string]bool
	idents map[string]bool
}

func collectTestAsserts(pkg *Package) testAsserts {
	a := testAsserts{values: map[string]bool{}, idents: map[string]bool{}}
	for _, f := range pkg.TestFiles {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind.String() == "STRING" {
					if v, err := strconv.Unquote(n.Value); err == nil {
						a.values[v] = true
					}
				}
			case *ast.Ident:
				a.idents[n.Name] = true
			}
			return true
		})
	}
	return a
}

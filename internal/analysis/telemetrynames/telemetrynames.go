// Package telemetrynames defines an analyzer enforcing the repository's
// metric inventory, replacing the standalone cmd/telemetrylint binary:
// every metric registered via telemetry.Registry.Counter / Gauge /
// Histogram / GaugeFunc with a literal name is documented in DESIGN.md's
// metric inventory (a `name` code span inside the "## Observability"
// section).
//
// The name's component.snake_case shape is not checked here: the registry
// panics on a malformed name at registration, and every constructor
// registers its metrics, so tier-1 trips it. Only well-shaped names count
// as inventory entries, so a malformed literal is also reported as
// undocumented.
//
// Unlike the old binary, registrar calls are resolved through the type
// checker — only methods on repro/internal/telemetry.Registry count, so an
// unrelated Counter method elsewhere can't confuse the check. DESIGN.md is
// located by walking up from the package directory, which lets testdata
// packages carry their own inventory. Dynamically-built names (label
// values appended at runtime) remain covered because the metric *name*
// argument stays a string literal at the registration site.
package telemetrynames

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the telemetrynames analyzer.
var Analyzer = &framework.Analyzer{
	Name: "telemetrynames",
	Doc:  "every registered metric is documented in DESIGN.md's Observability section",
	Run:  run,
}

const telemetryPath = "repro/internal/telemetry"

var (
	registrars  = map[string]bool{"Counter": true, "Gauge": true, "Histogram": true, "GaugeFunc": true}
	docMetricRE = regexp.MustCompile("`([a-z][a-z0-9_]*(?:\\.[a-z][a-z0-9_]*)+)`")
)

func run(pass *framework.Pass) (any, error) {
	if pass.Pkg.Path() == telemetryPath {
		return nil, nil // the registrar definitions register nothing
	}
	type site struct {
		pos  token.Pos
		name string
	}
	var sites []site
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !registrars[sel.Sel.Name] {
				return true
			}
			if !isRegistry(pass, sel.X) {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			sites = append(sites, site{pos: lit.Pos(), name: name})
			return true
		})
	}
	if len(sites) == 0 {
		return nil, nil
	}
	docs, docErr := documented(pass.Dir)
	for _, s := range sites {
		switch {
		case docErr != nil:
			pass.Reportf(s.pos, "metric %q cannot be checked against the inventory: %v", s.name, docErr)
		case !docs[s.name]:
			pass.Reportf(s.pos, "metric %q is not documented in DESIGN.md's Observability section", s.name)
		}
	}
	return nil, nil
}

// isRegistry reports whether expr has type *telemetry.Registry (or
// telemetry.Registry) from repro/internal/telemetry.
func isRegistry(pass *framework.Pass, expr ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && pkg.Path() == telemetryPath && n.Obj().Name() == "Registry"
}

// documented returns the metric names listed in the Observability section
// of the nearest DESIGN.md at or above dir.
func documented(dir string) (map[string]bool, error) {
	path, err := findDesign(dir)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	text := string(b)
	i := strings.Index(text, "## Observability")
	if i < 0 {
		return nil, fmt.Errorf("%s has no \"## Observability\" section", path)
	}
	text = text[i:]
	if j := strings.Index(text[1:], "\n## "); j >= 0 {
		text = text[:j+1]
	}
	docs := make(map[string]bool)
	for _, m := range docMetricRE.FindAllStringSubmatch(text, -1) {
		docs[m[1]] = true
	}
	return docs, nil
}

func findDesign(dir string) (string, error) {
	for d := dir; ; d = filepath.Dir(d) {
		p := filepath.Join(d, "DESIGN.md")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		if filepath.Dir(d) == d {
			return "", fmt.Errorf("no DESIGN.md at or above %s", dir)
		}
	}
}

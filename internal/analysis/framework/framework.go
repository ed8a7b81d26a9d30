// Package framework is a self-contained, stdlib-only re-implementation of
// the golang.org/x/tools/go/analysis surface this repository needs.
//
// The real go/analysis package is the obvious foundation for a checker
// suite, but this repository builds in a hermetic container with no module
// proxy, so x/tools cannot be pinned. The subset we need — an Analyzer
// value with a Run function over a type-checked package, a Pass carrying
// *types.Info, positional Diagnostics, and an analysistest-style harness
// driven by `// want` comments — is small and stable, so it is
// reimplemented here on top of go/ast, go/parser, go/types and
// go/importer alone. The API shapes mirror go/analysis deliberately: if
// x/tools ever becomes available, the analyzers port by changing imports.
//
// Suppression: a diagnostic is suppressed when the line it is reported on,
// or the line immediately above it, carries a comment of the form
//
//	//askcheck:allow(<name>)        // one analyzer
//	//askcheck:allow(<a>,<b>)       // several analyzers at once
//
// An annotation on the line above a multi-line statement also covers the
// statement's continuation lines (but never the body of a control
// statement — an allow above an `if` excuses its header only). The escape
// hatch stays deliberately narrow so that a suppression is visible right
// next to the code it excuses.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// Analyzer describes one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //askcheck:allow(name) suppressions. It must be a valid identifier.
	Name string
	// Doc is the analyzer's documentation (first sentence is the summary).
	Doc string
	// Run applies the analyzer to one package and reports diagnostics via
	// pass.Report. The signature is analysis.Analyzer.Run's; the result
	// value is ignored, there being no Requires/ResultOf here.
	Run func(pass *Pass) (any, error)
}

// Pass carries one type-checked package through an Analyzer's Run,
// mirroring analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Dir is the directory the package was loaded from (used by analyzers
	// that consult repository-level context such as DESIGN.md).
	Dir string

	pkg   *Package
	diags *[]Diagnostic
}

// loader returns the Loader behind the pass's package, nil for packages
// not produced by a Loader.
func (p *Pass) loader() *Loader {
	if p.pkg == nil {
		return nil
	}
	return p.pkg.loader
}

// Universe returns every package the pass's loader has type-checked so
// far, in import-path order — the scope the call graph covers. Nil for
// passes without a loader. Drivers that want
// whole-program context (e.g. shardsafety's annotation scan) must load all
// packages before running analyzers.
func (p *Pass) Universe() []*Package {
	l := p.loader()
	if l == nil {
		return nil
	}
	return l.loadedPackages()
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf reports a diagnostic at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Report records one diagnostic.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	*p.diags = append(*p.diags, d)
}

var allowRE = regexp.MustCompile(`//askcheck:allow\(([a-zA-Z0-9_,\s]+)\)`)

// allowLines returns, per filename, the set of lines whose diagnostics a
// given analyzer suppresses: the annotation's own line, the line below,
// and — when the annotated line (or the line below it) starts a multi-line
// statement — every continuation line of that statement. Control
// statements (if/for/range/switch/select) extend suppression only through
// their header, never into their body: an allow above an `if` excuses the
// condition, not everything inside the braces.
func allowLines(fset *token.FileSet, files []*ast.File, analyzer string) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range files {
		var spans map[int]int // statement start line -> last covered line
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				if !allowNames(m[1])[analyzer] {
					continue
				}
				if spans == nil {
					spans = stmtSpans(fset, f)
				}
				pos := fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = make(map[int]bool)
				}
				lines := out[pos.Filename]
				for _, start := range []int{pos.Line, pos.Line + 1} {
					end := start
					if e, ok := spans[start]; ok && e > end {
						end = e
					}
					for ln := start; ln <= end; ln++ {
						lines[ln] = true
					}
				}
			}
		}
	}
	return out
}

// stmtSpans maps, for one file, each line starting a statement (or
// declaration) to the last line that statement's suppressible extent
// reaches: its End for plain statements, the opening-brace line for
// statements with a block body.
func stmtSpans(fset *token.FileSet, f *ast.File) map[int]int {
	spans := make(map[int]int)
	record := func(from token.Pos, to token.Pos) {
		start := fset.Position(from).Line
		end := fset.Position(to).Line
		if end > spans[start] {
			spans[start] = end
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			record(n.Pos(), n.Body.Lbrace)
		case *ast.ForStmt:
			record(n.Pos(), n.Body.Lbrace)
		case *ast.RangeStmt:
			record(n.Pos(), n.Body.Lbrace)
		case *ast.SwitchStmt:
			record(n.Pos(), n.Body.Lbrace)
		case *ast.TypeSwitchStmt:
			record(n.Pos(), n.Body.Lbrace)
		case *ast.SelectStmt:
			record(n.Pos(), n.Body.Lbrace)
		case *ast.BlockStmt, *ast.LabeledStmt, *ast.CaseClause, *ast.CommClause:
			// Structure, not a suppressible unit of its own.
		case ast.Stmt:
			record(n.Pos(), n.End())
		case *ast.GenDecl:
			record(n.Pos(), n.End())
		}
		return true
	})
	return spans
}

var splitRE = regexp.MustCompile(`[,\s]+`)

func allowNames(list string) map[string]bool {
	names := make(map[string]bool)
	for _, n := range splitRE.Split(list, -1) {
		if n != "" {
			names[n] = true
		}
	}
	return names
}

// RunAnalyzers applies each analyzer to the loaded package and returns the
// surviving (non-suppressed) diagnostics in positional order.
func RunAnalyzers(pkg *Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		var raw []Diagnostic
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Dir:       pkg.Dir,
			pkg:       pkg,
			diags:     &raw,
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		allowed := allowLines(pkg.Fset, pkg.Files, a.Name)
		for _, d := range raw {
			pos := pkg.Fset.Position(d.Pos)
			if allowed[pos.Filename][pos.Line] {
				continue
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

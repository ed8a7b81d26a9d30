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
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics. It must be a valid
	// identifier.
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

	diags *[]Diagnostic
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

// RunAnalyzers applies each analyzer to the loaded package and returns its
// diagnostics in positional order.
func RunAnalyzers(pkg *Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Dir:       pkg.Dir,
			diags:     &diags,
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
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

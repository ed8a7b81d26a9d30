package main

import (
	"fmt"
	"go/token"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/analysis/framework"
)

// result is one full driver run: the loaded package count and the
// surviving diagnostics in deterministic (directory, position) order.
type result struct {
	fset  *token.FileSet
	pkgs  int
	diags []framework.Diagnostic
}

// analyze expands patterns, then loads each matched package and runs the
// analyzers over it, in directory order. Every analyzer is per-package, so a
// package is analyzed as soon as it is loaded. Each package's diagnostics
// are already position-sorted by RunAnalyzers.
func analyze(cwd string, patterns []string, analyzers []*framework.Analyzer) (*result, error) {
	dirs, err := framework.ExpandPatterns(cwd, patterns)
	if err != nil {
		return nil, err
	}
	loader, err := framework.NewLoader(cwd)
	if err != nil {
		return nil, err
	}
	res := &result{fset: loader.Fset, pkgs: len(dirs)}
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		diags, err := framework.RunAnalyzers(pkg, analyzers...)
		if err != nil {
			return nil, err
		}
		res.diags = append(res.diags, diags...)
	}
	return res, nil
}

// writeText renders diagnostics in the classic file:line:col form, with
// paths relative to base when possible.
func (r *result) writeText(w io.Writer, base string) error {
	for _, d := range r.diags {
		pos := r.fset.Position(d.Pos)
		name := pos.Filename
		if rel, err := filepath.Rel(base, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		if _, err := fmt.Fprintf(w, "%s:%d:%d: [%s] %s\n", name, pos.Line, pos.Column, d.Analyzer, d.Message); err != nil {
			return err
		}
	}
	return nil
}

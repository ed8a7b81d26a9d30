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

// analyze expands patterns, loads every matched package, and runs the
// analyzers over them in directory order.
//
// Loading completes before any analyzer runs, so a whole-universe analyzer
// (shardsafety's annotation scan and call graph) sees the full load universe
// no matter which package is analyzed first. Each
// package's diagnostics are already position-sorted by RunAnalyzers.
func analyze(cwd string, patterns []string, analyzers []*framework.Analyzer) (*result, error) {
	dirs, err := framework.ExpandPatterns(cwd, patterns)
	if err != nil {
		return nil, err
	}
	loader, err := framework.NewLoader(cwd)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*framework.Package, len(dirs))
	for i, dir := range dirs {
		if pkgs[i], err = loader.LoadDir(dir); err != nil {
			return nil, err
		}
	}
	res := &result{fset: loader.Fset, pkgs: len(pkgs)}
	for _, pkg := range pkgs {
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

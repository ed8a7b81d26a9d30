package framework

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Dir   string // absolute directory the sources were read from
	Path  string // import path ("repro/internal/switchd", "main" pkgs too)
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// loader links back to the Loader that produced the package, giving
	// analyzers the call graph over the whole load universe.
	loader *Loader
}

// Loader parses and type-checks packages of one module without external
// tooling. Imports inside the module resolve by rewriting the import path
// under the module root; every other import (the standard library) is
// delegated to go/importer's source importer, so the loader works in a
// hermetic build with no module cache or proxy.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string // directory containing go.mod
	ModPath string // module path declared in go.mod

	std  types.ImporterFrom
	pkgs map[string]*loadEntry

	// graph is the call graph over everything loaded, built on demand by
	// Pass.CallGraph and dropped by the next completed load. Loads and
	// passes are single-threaded (the recursive type-checker is not safe to
	// share).
	graph *CallGraph
}

type loadEntry struct {
	pkg     *Package
	loading bool
	err     error
}

// NewLoader returns a Loader rooted at the module containing dir (dir or
// one of its parents must hold go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("framework: source importer does not implement ImporterFrom")
	}
	return &Loader{
		Fset:    fset,
		ModRoot: root,
		ModPath: modPath,
		std:     std,
		pkgs:    make(map[string]*loadEntry),
	}, nil
}

// findModule walks up from dir looking for go.mod and returns the module
// root and module path.
func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; d = filepath.Dir(d) {
		b, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("framework: %s/go.mod has no module line", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("framework: no go.mod at or above %s", dir)
		}
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// through the Loader, everything else through the stdlib source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if dir, ok := l.moduleDir(path); ok {
		pkg, err := l.load(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// moduleDir maps a module-internal import path to its directory.
func (l *Loader) moduleDir(path string) (string, bool) {
	if path == l.ModPath {
		return l.ModRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		return filepath.Join(l.ModRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// PathForDir returns the import path the loader assigns to a directory
// inside the module.
func (l *Loader) PathForDir(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("framework: %s is outside module %s", dir, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// LoadDir parses and type-checks the package in dir (non-test files only).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.PathForDir(abs)
	if err != nil {
		return nil, err
	}
	return l.load(abs, path)
}

func (l *Loader) load(dir, path string) (*Package, error) {
	if e, ok := l.pkgs[path]; ok {
		if e.loading {
			return nil, fmt.Errorf("framework: import cycle through %s", path)
		}
		return e.pkg, e.err
	}
	e := &loadEntry{loading: true}
	l.pkgs[path] = e
	pkg, err := l.loadUncached(dir, path)
	e.pkg, e.err, e.loading = pkg, err, false
	if pkg != nil {
		pkg.loader = l
	}
	l.graph = nil
	return pkg, err
}

// loadedPackages returns every successfully loaded package, sorted by
// import path for deterministic call-graph construction.
func (l *Loader) loadedPackages() []*Package {
	var out []*Package
	for _, e := range l.pkgs {
		if e.pkg != nil && !e.loading {
			out = append(out, e.pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func (l *Loader) loadUncached(dir, path string) (*Package, error) {
	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("framework: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var typeErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if typeErr != nil {
		return nil, fmt.Errorf("framework: type-checking %s: %w", path, typeErr)
	}
	if err != nil {
		return nil, fmt.Errorf("framework: type-checking %s: %w", path, err)
	}
	return &Package{
		Dir:   dir,
		Path:  path,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// parseDir parses the non-test Go files of one directory.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// ExpandPatterns resolves go-tool-style package patterns relative to base:
// "./..." walks every package directory under base (skipping testdata,
// vendor, hidden and .git directories); any other pattern names a single
// directory. Returned directories are absolute and sorted.
func ExpandPatterns(base string, patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if pat == "..." || strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		root := pat
		if !filepath.IsAbs(root) {
			root = filepath.Join(base, root)
		}
		abs, err := filepath.Abs(root)
		if err != nil {
			return nil, err
		}
		if !recursive {
			add(abs)
			continue
		}
		err = filepath.WalkDir(abs, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				n := d.Name()
				if p != abs && (n == "testdata" || n == "vendor" || n == ".git" || strings.HasPrefix(n, ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
				add(filepath.Dir(p))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

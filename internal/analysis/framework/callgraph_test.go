package framework

import (
	"go/types"
	"path/filepath"
	"testing"
)

// engineModule is a two-package sandbox with a cross-package call edge and
// a three-deep call chain.
var engineModule = map[string]string{
	"go.mod": sandboxMod,
	"b/b.go": `package b

type Box struct{ N int }

var Global *Box

func G(x *Box) { Global = x }

func C1() { C2() }
func C2() { C3() }
func C3() {}
`,
	"a/a.go": `package a

import "sandbox/b"

func F(x *b.Box) { b.G(x) }
`,
}

func loadEngineModule(t *testing.T) (*Loader, *Package, *Package) {
	t.Helper()
	dir := writeModule(t, engineModule)
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgA, err := l.LoadDir(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	pkgB, err := l.LoadDir(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	return l, pkgA, pkgB
}

func passFor(pkg *Package, name string) *Pass {
	var diags []Diagnostic
	return &Pass{
		Analyzer:  &Analyzer{Name: name},
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Dir:       pkg.Dir,
		pkg:       pkg,
		diags:     &diags,
	}
}

func funcNamed(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("function %s not found in %s", name, pkg.Path)
	}
	return fn
}

func TestCallGraphCrossPackageEdge(t *testing.T) {
	_, pkgA, pkgB := loadEngineModule(t)
	pass := passFor(pkgA, "test")
	g := pass.CallGraph()
	if g == nil {
		t.Fatal("CallGraph returned nil for a loader-backed pass")
	}
	f := g.Node(funcNamed(t, pkgA, "F"))
	if f == nil {
		t.Fatal("no node for a.F")
	}
	gee := g.Node(funcNamed(t, pkgB, "G"))
	if gee == nil {
		t.Fatal("no node for b.G")
	}
	if len(f.Calls) != 1 || f.Calls[0].Callee != gee {
		t.Errorf("a.F call sites = %v, want one edge to b.G", f.Calls)
	}
	var seen bool
	for _, c := range gee.Callers() {
		if c == f {
			seen = true
		}
	}
	if !seen {
		t.Error("b.G callers do not include a.F")
	}
}

func TestCallGraphReachableFromStopsAtBoundary(t *testing.T) {
	_, _, pkgB := loadEngineModule(t)
	pass := passFor(pkgB, "test")
	g := pass.CallGraph()
	c1 := g.Node(funcNamed(t, pkgB, "C1"))
	c2 := g.Node(funcNamed(t, pkgB, "C2"))
	c3 := g.Node(funcNamed(t, pkgB, "C3"))
	reach := g.ReachableFrom([]*CallNode{c1}, func(n *CallNode) bool { return n == c2 })
	if !reach[c1] || !reach[c2] {
		t.Error("reachability must include the root and the boundary node itself")
	}
	if reach[c3] {
		t.Error("reachability descended through the stop boundary into C3")
	}
}

func TestEngineRebuildsOnNewPackages(t *testing.T) {
	dir := writeModule(t, engineModule)
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgB, err := l.LoadDir(filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	pass := passFor(pkgB, "test")
	g1 := pass.CallGraph()
	if g1.Node(funcNamed(t, pkgB, "G")) == nil {
		t.Fatal("b.G missing from first graph")
	}

	pkgA, err := l.LoadDir(filepath.Join(dir, "a"))
	if err != nil {
		t.Fatal(err)
	}
	g2 := pass.CallGraph()
	if g2 == g1 {
		t.Fatal("call graph not rebuilt after a new package loaded")
	}
	if g2.Node(funcNamed(t, pkgA, "F")) == nil {
		t.Error("a.F missing from rebuilt graph")
	}
	// Stable when nothing new loads.
	if g3 := pass.CallGraph(); g3 != g2 {
		t.Error("call graph rebuilt without new packages")
	}
}

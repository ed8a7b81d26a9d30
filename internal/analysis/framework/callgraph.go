// The static call graph, the framework's one interprocedural layer.
//
// The graph covers every function with a body in the loader's universe —
// all module-internal packages type-checked so far — and records only
// STATIC edges: direct calls of package-level functions and method calls
// whose receiver has a concrete (non-interface) type. Interface dispatch,
// method values, and function-typed variables produce no edge; analyzers
// built on the graph must treat a call they cannot resolve as reaching
// unknown code and stay conservative there. That asymmetry is deliberate:
// the analyzers certify properties along the statically-known structure
// (the same property that makes Flare-style in-network collectives
// schedulable), and anything dynamic is a declared boundary.
package framework

import (
	"go/ast"
	"go/types"
	"sort"
)

// CallSite is one resolved static call inside a function body.
type CallSite struct {
	Call   *ast.CallExpr
	Callee *CallNode
}

// CallNode is one function (or method) with source in the universe.
type CallNode struct {
	// Fn is the canonical type-checker object for the function.
	Fn *types.Func
	// Decl is the declaration carrying the body, nil only for synthetic
	// nodes (none are currently created).
	Decl *ast.FuncDecl
	// Pkg is the package the body was loaded from.
	Pkg *Package
	// Calls are the static call sites in the body, in source order. Calls
	// inside function literals nested in the body are attributed to this
	// node: the literal runs with the enclosing function's context as far
	// as every analyzer here is concerned.
	Calls []CallSite

	callers []*CallNode
}

// Callers returns the nodes with a static call site targeting n.
func (n *CallNode) Callers() []*CallNode { return n.callers }

// CallGraph is the static call graph over one load universe.
type CallGraph struct {
	nodes map[*types.Func]*CallNode
	// Nodes in deterministic (position) order, for analyzers that iterate.
	ordered []*CallNode
}

// Node returns the graph node for fn, or nil when fn has no body in the
// universe (stdlib, interface methods, functions of unloaded packages).
func (g *CallGraph) Node(fn *types.Func) *CallNode {
	if fn == nil {
		return nil
	}
	return g.nodes[fn]
}

// Nodes returns every node in deterministic source order.
func (g *CallGraph) Nodes() []*CallNode { return g.ordered }

// CallGraph returns the static call graph over every package the loader
// has type-checked so far (rebuilt lazily when new packages have loaded
// since the last call). Nil only for passes with no loader.
func (p *Pass) CallGraph() *CallGraph {
	l := p.loader()
	if l == nil {
		return nil
	}
	if l.graph == nil {
		l.graph = buildCallGraph(l.loadedPackages())
	}
	return l.graph
}

// FuncOf resolves the *types.Func a call expression statically targets, or
// nil for dynamic calls (interface methods, function values, built-ins,
// type conversions).
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			// Method call: resolve only through a concrete receiver; an
			// interface receiver dispatches dynamically.
			if fn, ok := sel.Obj().(*types.Func); ok {
				if !types.IsInterface(sel.Recv()) {
					return fn
				}
			}
			return nil
		}
		// Qualified call pkg.F.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// buildCallGraph constructs the graph over the given packages. Packages
// must already be fully type-checked; the slice order does not matter
// (nodes are ordered by file position).
func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{nodes: make(map[*types.Func]*CallNode)}
	// First pass: create a node per declared function with a body.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = &CallNode{Fn: fn, Decl: fd, Pkg: pkg}
			}
		}
	}
	// Second pass: resolve call sites.
	for _, node := range g.nodes {
		n := node
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := FuncOf(n.Pkg.Info, call)
			if fn == nil {
				return true
			}
			callee := g.nodes[fn]
			if callee == nil {
				return true // no body in the universe
			}
			n.Calls = append(n.Calls, CallSite{Call: call, Callee: callee})
			callee.callers = append(callee.callers, n)
			return true
		})
	}
	g.ordered = make([]*CallNode, 0, len(g.nodes))
	for _, n := range g.nodes {
		g.ordered = append(g.ordered, n)
	}
	sort.Slice(g.ordered, func(i, j int) bool {
		return g.ordered[i].Decl.Pos() < g.ordered[j].Decl.Pos()
	})
	for _, n := range g.ordered {
		sort.Slice(n.Calls, func(i, j int) bool {
			return n.Calls[i].Call.Pos() < n.Calls[j].Call.Pos()
		})
		sort.Slice(n.callers, func(i, j int) bool {
			return n.callers[i].Decl.Pos() < n.callers[j].Decl.Pos()
		})
	}
	return g
}

// ReachableFrom computes the set of nodes statically reachable from the
// given roots, following call edges but never descending into a node for
// which stop returns true (the roots themselves are always included).
func (g *CallGraph) ReachableFrom(roots []*CallNode, stop func(*CallNode) bool) map[*CallNode]bool {
	seen := make(map[*CallNode]bool)
	var stack []*CallNode
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if stop != nil && stop(n) {
			continue
		}
		for _, cs := range n.Calls {
			if !seen[cs.Callee] {
				seen[cs.Callee] = true
				stack = append(stack, cs.Callee)
			}
		}
	}
	return seen
}

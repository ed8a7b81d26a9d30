// Package poolrelease defines an analyzer that flags free-list
// acquisitions that can never be released.
//
// The hot-path packages (netsim, switchd, hostd, tenancy) draw wire.Packet
// objects from a process-wide free list — wire.NewPacket and
// Packet.ClonePooled — and netsim.Frame objects from the one beside it —
// netsim.NewFrame — under an explicit ownership discipline (see
// wire/pool.go): every acquisition must end in exactly one Release,
// either directly or by handing the object to something that releases it
// (an owned netsim.Frame, Daemon.send, a fabric, a return to the caller). A
// packet that is acquired and then simply dropped is not a correctness bug
// — the GC still reclaims it — but it silently re-introduces the
// per-packet allocation churn the pool exists to eliminate, which is
// exactly the kind of regression that survives every functional test.
//
// The analyzer is INTERPROCEDURAL: it composes the framework's
// escape lattice along the static call graph into per-function release
// facts ("this callee releases or retains its i-th parameter"), exported
// through the pass fact store and imported at call sites anywhere in the
// module. A tracked packet therefore satisfies its obligation only by:
//
//   - a Release call on the packet (or on a local alias of it);
//   - an escape the caller can no longer see past: a return, a channel
//     send, a store into a field/map/global/composite literal, capture by
//     a closure, or an argument to a call the engine cannot resolve
//     (interface dispatch, function values, external code);
//   - being passed — as argument or receiver — to a statically-resolved
//     callee whose release fact says the corresponding value is released
//     or retained there (transitively, to a fixed point).
//
// A helper that merely reads the packet and drops it therefore does not
// hide the leak (testdata/src/switchd/v1pin.go pins that: "passed to any
// call satisfies" was version 1's blind spot). Diagnostics fire only on
// DEFINITE leaks; the rare intentional one can carry
// //askcheck:allow(poolrelease).
package poolrelease

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// releaseFact is the per-function fact: whether each incoming value
// (receiver, parameters) is released or retained by the function,
// directly or through its callees.
type releaseFact struct {
	Recv   bool
	Params []bool
}

// AFact marks releaseFact as a framework fact.
func (*releaseFact) AFact() {}

func (f *releaseFact) at(i int) bool {
	if i == -1 {
		return f.Recv
	}
	if i < 0 || i >= len(f.Params) {
		return true // out-of-range (variadic edge cases): stay conservative
	}
	return f.Params[i]
}

// Analyzer is the poolrelease analyzer.
var Analyzer = &framework.Analyzer{
	Name:      "poolrelease",
	Doc:       "flag packet and frame free-list acquisitions that are provably never released or handed off",
	Run:       run,
	FactTypes: []framework.Fact{(*releaseFact)(nil)},
}

// pooledPkgs are the last path elements of the packages on the pooled
// fast path, where a leaked acquisition defeats the free list.
var pooledPkgs = map[string]bool{
	"netsim": true, "switchd": true, "hostd": true, "tenancy": true,
}

func run(pass *framework.Pass) (any, error) {
	if !pooledPkgs[lastElem(pass.Pkg.Path())] {
		return nil, nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

// acquisitions is the acquisition set: each function that draws an object
// from a free list, with the package (last path element) declaring it and
// the noun its diagnostics use.
var acquisitions = map[string]struct{ pkg, noun string }{
	"NewPacket":   {"wire", "packet"},
	"ClonePooled": {"wire", "packet"},
	"NewFrame":    {"netsim", "frame"},
}

// acquisition reports whether call draws an object from a free list —
// wire.NewPacket(...), (*wire.Packet).ClonePooled(...), netsim.NewFrame(...),
// the last also by its bare name inside netsim — and what it draws.
func acquisition(pass *framework.Pass, call *ast.CallExpr) (noun string, ok bool) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return "", false
	}
	acq, ok := acquisitions[id.Name]
	if !ok {
		return "", false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil || obj.Pkg() == nil || lastElem(obj.Pkg().Path()) != acq.pkg {
		return "", false
	}
	return acq.noun, true
}

func checkFunc(pass *framework.Pass, fd *ast.FuncDecl) {
	type obligation struct {
		at   ast.Node
		noun string
		ve   *framework.ValueEscape
	}
	seeds := make(map[types.Object]*framework.ValueEscape)
	var acquired []obligation

	// Pass 1: find acquisitions; discarded results leak unconditionally.
	// Nested function literals are skipped: the escape walk treats them as
	// capture boundaries, so obligations arising inside one cannot be
	// tracked from the enclosing declaration.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				if noun, ok := acquisition(pass, call); ok {
					pass.Reportf(call.Pos(), "%s-pool acquisition result is discarded (never released)", noun)
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			noun, ok := acquisition(pass, call)
			if !ok {
				return true
			}
			id, ok := n.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if id.Name == "_" {
				pass.Reportf(call.Pos(), "%s-pool acquisition assigned to _ (never released)", noun)
				return true
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				// Re-assignment (pkt = x.ClonePooled()): a fresh obligation
				// on the same variable.
				obj = pass.TypesInfo.Uses[id]
			}
			if obj != nil {
				ve := seeds[obj]
				if ve == nil {
					ve = framework.NewValueEscape()
					seeds[obj] = ve
				}
				acquired = append(acquired, obligation{at: call, noun: noun, ve: ve})
			}
		}
		return true
	})
	if len(acquired) == 0 {
		return
	}

	// Pass 2: flow the acquisitions through the escape lattice, then judge
	// each obligation, composing callee release facts at resolved calls.
	node := pass.CallGraph().Node(funcObj(pass, fd))
	if node == nil {
		return // unresolvable declaration (should not happen for own pkg)
	}
	framework.EscapeValues(node, seeds)
	for _, acq := range acquired {
		ok, _ := satisfied(pass, acq.ve, make(map[*types.Func]bool))
		if !ok {
			pass.Reportf(acq.at.Pos(), "%s acquired from the pool is neither released nor handed off", acq.noun)
		}
	}
}

// satisfied reports whether a value summary discharges the ownership
// obligation: an intraprocedural escape, a Release call, or a resolved
// callee that releases/retains the corresponding value. The second result
// marks a verdict that leaned on the optimistic cycle assumption — only a
// FALSE verdict can be tainted (optimism never invents a consumption), so
// tainted verdicts must not be cached as facts.
func satisfied(pass *framework.Pass, ve *framework.ValueEscape, visiting map[*types.Func]bool) (ok, tainted bool) {
	if ve.Flow != 0 {
		return true, false
	}
	if ve.Methods["Release"] {
		return true, false
	}
	for _, edge := range ve.Calls {
		c, t := consumes(pass, edge.Callee, edge.Param, visiting)
		if c {
			return true, false
		}
		tainted = tainted || t
	}
	return false, tainted
}

// consumes reports whether fn releases or retains its idx-th value
// (receiver for idx == -1), computing and caching the release fact on
// first use. Functions without a body in the load universe are assumed to
// consume (conservative: no false leak reports through external code).
func consumes(pass *framework.Pass, fn *types.Func, idx int, visiting map[*types.Func]bool) (bool, bool) {
	fact := new(releaseFact)
	if pass.ImportObjectFact(fn, fact) {
		return fact.at(idx), false
	}
	node := pass.CallGraph().Node(fn)
	if node == nil {
		return true, false
	}
	if visiting[fn] {
		// Optimistically assume the cycle does not consume; anything it
		// truly consumes is visible on another edge.
		return false, true
	}
	visiting[fn] = true
	defer delete(visiting, fn)

	fe := pass.EscapeOf(node)
	fact = &releaseFact{Params: make([]bool, len(fe.Params))}
	cacheable := true
	judge := func(ve *framework.ValueEscape) bool {
		ok, t := satisfied(pass, ve, visiting)
		if t && !ok {
			cacheable = false
		}
		return ok
	}
	if fe.Recv != nil {
		fact.Recv = judge(fe.Recv)
	}
	for i, ve := range fe.Params {
		fact.Params[i] = judge(ve)
	}
	if cacheable {
		pass.ExportObjectFact(fn, fact)
	}
	taintedIdx := !cacheable && !fact.at(idx)
	return fact.at(idx), taintedIdx
}

func funcObj(pass *framework.Pass, fd *ast.FuncDecl) *types.Func {
	fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	return fn
}

func lastElem(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

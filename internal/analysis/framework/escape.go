// Reaching-values / escape lattice for the interprocedural engine.
//
// For every function with a body the engine can summarize, per incoming
// value (receiver and parameters), where that value can flow: to a
// package-level variable, out through a return, onto a channel, into a
// closure that outlives the call, into heap storage (a field, map, slice,
// or composite literal), or into a call the engine cannot resolve. The
// lattice is a bitmask ordered by set inclusion; summaries are
// intraprocedural, and the per-callee flow (ArgFlow edges) lets analyzers
// compose them to a fixed point along the static call graph — poolrelease
// composes them into release facts, shardsafety into shard-publication
// checks.
//
// The analysis is value-insensitive about aliasing in the
// over-approximating direction: `q := pkt` makes q an alias of pkt for the
// rest of the body, and a value "flows" wherever an identifier naming it
// appears in a flow position, even if that store is dead. Field READS
// (pkt.Seq on the right-hand side) are not flows of the value itself,
// matching the ownership discipline the clients check.
package framework

import (
	"go/ast"
	"go/types"
)

// Flow is the escape lattice: a bitmask of the destinations an incoming
// value can reach inside one function body.
type Flow uint16

const (
	// FlowGlobal: stored into (or through) a package-level variable.
	FlowGlobal Flow = 1 << iota
	// FlowReturn: returned to the caller.
	FlowReturn
	// FlowChannel: sent on a channel.
	FlowChannel
	// FlowCaptured: referenced inside a nested function literal.
	FlowCaptured
	// FlowHeap: stored into a field, map, slice element, or composite
	// literal (reachable after the function returns if the container is).
	FlowHeap
	// FlowUnknownCall: passed to a call the engine cannot resolve
	// statically (interface method, function value, external function).
	FlowUnknownCall
)

// ArgFlow records one value flowing into a resolved static call.
type ArgFlow struct {
	// Callee is the statically-resolved target.
	Callee *types.Func
	// Param is the callee's parameter index receiving the value; -1 when
	// the value is the call's receiver (method calls).
	Param int
	// Call is the call site.
	Call *ast.CallExpr
}

// ValueEscape summarizes one incoming value (receiver or parameter).
type ValueEscape struct {
	// Flow is the intraprocedural escape lattice for the value.
	Flow Flow
	// Sites holds one representative AST node per set Flow bit, for
	// diagnostics (keyed by the bit).
	Sites map[Flow]ast.Node
	// Calls lists the resolved static calls the value is passed to; the
	// composed (interprocedural) flow of the value is the join of Flow and
	// the callee-side flow of each edge.
	Calls []ArgFlow
	// Methods is the set of method names invoked with the value as
	// receiver (pkt.Release() records "Release"). Client analyzers assign
	// meaning to specific names.
	Methods map[string]bool
}

// FuncEscape is the per-function summary.
type FuncEscape struct {
	// Recv is the receiver summary (methods only, else nil).
	Recv *ValueEscape
	// Params holds one summary per declared parameter, in order.
	Params []*ValueEscape
}

// Value returns the summary for parameter index i, or the receiver for
// i == -1; nil when out of range.
func (fe *FuncEscape) Value(i int) *ValueEscape {
	if fe == nil {
		return nil
	}
	if i == -1 {
		return fe.Recv
	}
	if i < 0 || i >= len(fe.Params) {
		return nil
	}
	return fe.Params[i]
}

// NewValueEscape returns an empty summary, ready to seed EscapeValues.
func NewValueEscape() *ValueEscape {
	return &ValueEscape{Sites: make(map[Flow]ast.Node), Methods: make(map[string]bool)}
}

// escapeFunc computes the summary for one call-graph node.
func escapeFunc(n *CallNode) *FuncEscape {
	fe := &FuncEscape{}
	info := n.Pkg.Info

	// values maps every object currently known to name a tracked value
	// (parameters, receiver, and local aliases of them) to its summary.
	values := make(map[types.Object]*ValueEscape)
	addValue := func(id *ast.Ident) *ValueEscape {
		ve := NewValueEscape()
		if id != nil && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				values[obj] = ve
			}
		}
		return ve
	}
	fd := n.Decl
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		var id *ast.Ident
		if names := fd.Recv.List[0].Names; len(names) == 1 {
			id = names[0]
		}
		fe.Recv = addValue(id)
	}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			if len(field.Names) == 0 {
				fe.Params = append(fe.Params, addValue(nil))
				continue
			}
			for _, name := range field.Names {
				fe.Params = append(fe.Params, addValue(name))
			}
		}
	}
	if len(values) > 0 {
		EscapeValues(n, values)
	}
	return fe
}

// EscapeValues fills in the flow summaries for a set of seed values — any
// objects scoped to n's body (parameters, receiver, locals such as pool
// acquisitions) mapped to fresh NewValueEscape summaries. Local aliases of
// a seed discovered while walking share its summary. Analyzers use this
// directly when the values of interest are not parameters; the engine's
// FuncEscape summaries are built on the same walk.
func EscapeValues(n *CallNode, values map[types.Object]*ValueEscape) {
	info := n.Pkg.Info
	fd := n.Decl

	// valueOf resolves an expression to a tracked value when the
	// expression IS the value (possibly parenthesized, dereferenced, or
	// address-taken). Field selections (v.f) are not the value itself.
	var valueOf func(e ast.Expr) *ValueEscape
	valueOf = func(e ast.Expr) *ValueEscape {
		switch e := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[e]; obj != nil {
				return values[obj]
			}
		case *ast.ParenExpr:
			return valueOf(e.X)
		case *ast.UnaryExpr:
			return valueOf(e.X)
		case *ast.StarExpr:
			return valueOf(e.X)
		}
		return nil
	}
	mark := func(ve *ValueEscape, bit Flow, site ast.Node) {
		if ve != nil && ve.Flow&bit == 0 {
			ve.Flow |= bit
			ve.Sites[bit] = site
		}
	}
	// escMark walks an expression in VALUE position and marks every
	// tracked value whose identity flows through it: the bare identifier,
	// its address/deref, composite-literal elements, type-conversion-like
	// call arguments, and map-index keys. Selector reads (v.f) do NOT flow
	// the value.
	var escMark func(e ast.Expr, bit Flow, site ast.Node)
	escMark = func(e ast.Expr, bit Flow, site ast.Node) {
		switch e := e.(type) {
		case *ast.Ident:
			mark(valueOf(e), bit, site)
		case *ast.ParenExpr:
			escMark(e.X, bit, site)
		case *ast.UnaryExpr:
			escMark(e.X, bit, site)
		case *ast.StarExpr:
			escMark(e.X, bit, site)
		case *ast.CompositeLit:
			for _, el := range e.Elts {
				escMark(el, bit, site)
			}
		case *ast.KeyValueExpr:
			escMark(e.Key, bit, site)
			escMark(e.Value, bit, site)
		case *ast.IndexExpr:
			escMark(e.Index, bit, site) // m[v] keys the value into a map
		}
	}

	isGlobalTarget := func(e ast.Expr) bool {
		for {
			switch t := ast.Unparen(e).(type) {
			case *ast.Ident:
				v, ok := info.Uses[t].(*types.Var)
				return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
			case *ast.SelectorExpr:
				if id, ok := t.X.(*ast.Ident); ok {
					if _, isPkg := info.Uses[id].(*types.PkgName); isPkg {
						v, ok := info.Uses[t.Sel].(*types.Var)
						return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
					}
				}
				e = t.X
			case *ast.IndexExpr:
				e = t.X
			case *ast.StarExpr:
				e = t.X
			default:
				return false
			}
		}
	}

	ast.Inspect(fd.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// Everything referenced inside a nested literal is captured.
			ast.Inspect(x.Body, func(y ast.Node) bool {
				if id, ok := y.(*ast.Ident); ok {
					mark(valueOf(id), FlowCaptured, id)
				}
				return true
			})
			return false
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				escMark(r, FlowReturn, x)
			}
		case *ast.SendStmt:
			escMark(x.Value, FlowChannel, x)
		case *ast.GoStmt:
			for _, a := range x.Call.Args {
				escMark(a, FlowCaptured, x)
			}
		case *ast.DeferStmt:
			// Deferred calls run on exit; treat like a normal call, which
			// the CallExpr case below already visits.
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if len(x.Lhs) == len(x.Rhs) {
					if id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok && !isGlobalTarget(id) {
						// Binding to a local. A bare tracked value on the
						// RHS makes the local an alias; anything else
						// (composite literal, call) is a heap-shaped
						// hand-off of whatever tracked values it embeds.
						if ve := valueOf(rhs); ve != nil {
							if obj := info.Defs[id]; obj != nil {
								values[obj] = ve
							} else if obj := info.Uses[id]; obj != nil {
								if _, tracked := values[obj]; !tracked {
									values[obj] = ve
								}
							}
						} else {
							escMark(rhs, FlowHeap, x)
						}
						continue
					}
					bit := FlowHeap
					if isGlobalTarget(x.Lhs[i]) {
						bit = FlowGlobal
					}
					escMark(rhs, bit, x)
					continue
				}
				escMark(rhs, FlowHeap, x)
			}
			// Keying a map owned elsewhere: m[v] = ... escapes v too.
			for _, lhs := range x.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					bit := FlowHeap
					if isGlobalTarget(ix) {
						bit = FlowGlobal
					}
					escMark(ix.Index, bit, x)
				}
			}
		case *ast.CallExpr:
			handleCall(n, x, valueOf, escMark)
		}
		return true
	})
}

// handleCall classifies one call's effect on tracked values: a method
// invoked on the value, a resolved static edge, or an unknown call.
func handleCall(n *CallNode, call *ast.CallExpr,
	valueOf func(ast.Expr) *ValueEscape,
	escMark func(ast.Expr, Flow, ast.Node)) {
	info := n.Pkg.Info
	callee := FuncOf(info, call)

	// Receiver position: v.M(...) records method M on v.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if ve := valueOf(sel.X); ve != nil {
			ve.Methods[sel.Sel.Name] = true
			if callee != nil {
				ve.Calls = append(ve.Calls, ArgFlow{Callee: callee, Param: -1, Call: call})
			}
		}
	}

	sig, _ := info.Types[call.Fun].Type.(*types.Signature)
	for i, arg := range call.Args {
		ve := valueOf(arg)
		if ve == nil {
			// A value embedded deeper in the argument (composite literal,
			// conversion) escapes to the heap: the callee may retain the
			// container.
			escMark(arg, FlowHeap, call)
			continue
		}
		if callee == nil || sig == nil {
			if ve.Flow&FlowUnknownCall == 0 {
				ve.Flow |= FlowUnknownCall
				ve.Sites[FlowUnknownCall] = call
			}
			continue
		}
		pi := i
		if sig.Variadic() && pi >= sig.Params().Len()-1 {
			pi = sig.Params().Len() - 1
		}
		ve.Calls = append(ve.Calls, ArgFlow{Callee: callee, Param: pi, Call: call})
	}
}

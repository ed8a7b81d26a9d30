// Fact store for the interprocedural engine, mirroring go/analysis Facts.
//
// A Fact is a typed, analyzer-private datum attached to a types.Object —
// typically a *types.Func summary ("this callee releases its parameter")
// exported while analyzing one function and imported at call sites
// anywhere in the module. Because the loader type-checks the whole module
// through one FileSet and one package cache, type-checker objects are
// canonical across packages, so the store is a plain map on the engine: a
// fact exported while analyzing package A is immediately visible when the
// same analyzer later analyzes package B. Facts are
// namespaced per analyzer; one analyzer can never observe another's.
package framework

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is analyzer-private information attached to a types.Object. The
// AFact marker method mirrors go/analysis; implementations must be
// pointers so ImportObjectFact can copy into them.
type Fact interface {
	AFact()
}

type factKey struct {
	analyzer string
	obj      types.Object
	typ      reflect.Type
}

// ExportObjectFact records fact for obj under the running analyzer's
// namespace, replacing any existing fact of the same concrete type.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil || fact == nil {
		panic("framework: ExportObjectFact with nil object or fact")
	}
	e := p.engine()
	if e == nil {
		panic("framework: pass has no engine (package not loaded through a Loader)")
	}
	t := reflect.TypeOf(fact)
	if t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("framework: fact %T must be a pointer", fact))
	}
	e.facts[factKey{p.Analyzer.Name, obj, t}] = fact
}

// ImportObjectFact copies the fact of fact's concrete type previously
// exported for obj by this analyzer into fact, reporting whether one was
// found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if obj == nil || fact == nil {
		return false
	}
	e := p.engine()
	if e == nil {
		return false
	}
	t := reflect.TypeOf(fact)
	stored, ok := e.facts[factKey{p.Analyzer.Name, obj, t}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// engine is the interprocedural state shared by every package loaded
// through one Loader: the static call graph over the load universe, the
// memoized escape summaries, and the cross-package fact store.
type engine struct {
	gen     int // loader generation the graph was built at
	graph   *CallGraph
	escapes map[*CallNode]*FuncEscape
	facts   map[factKey]Fact
}

// CallGraph returns the static call graph over every package the loader
// has type-checked so far (rebuilt lazily when new packages have loaded
// since the last call). Nil only for passes with no loader.
func (p *Pass) CallGraph() *CallGraph {
	e := p.engine()
	if e == nil {
		return nil
	}
	return e.callGraph(p.loader())
}

// EscapeOf returns the (memoized) escape summary for a call-graph node.
func (p *Pass) EscapeOf(n *CallNode) *FuncEscape {
	if n == nil {
		return nil
	}
	e := p.engine()
	if e == nil {
		return escapeFunc(n)
	}
	fe, ok := e.escapes[n]
	if !ok {
		fe = escapeFunc(n)
		e.escapes[n] = fe
	}
	return fe
}

func (e *engine) callGraph(l *Loader) *CallGraph {
	if e.graph == nil || e.gen != l.gen {
		e.graph = buildCallGraph(l.loadedPackages())
		e.gen = l.gen
		e.escapes = make(map[*CallNode]*FuncEscape)
	}
	return e.graph
}

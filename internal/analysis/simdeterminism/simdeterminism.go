// Package simdeterminism defines an analyzer that enforces the repository's
// determinism contract: every run of the discrete-event simulation with the
// same seed must be byte-identical. The chaos (PR 1) and telemetry (PR 2)
// subsystems both depend on this — golden-output tests, trace rings and
// failover reconciliation all compare seeded runs.
//
// Inside the deterministic packages (deterministicPkgs: the simulation
// layers, the ask service, chaos, experiments, tenancy and the workload
// generators) the analyzer reports:
//
//   - calls to wall-clock time sources (time.Now, time.Since, time.Until)
//     and host-clock blocking (time.Sleep, time.After, time.Tick,
//     time.NewTimer, time.NewTicker, time.AfterFunc) — model code must use
//     the sim.Simulation virtual clock;
//   - calls to the global math/rand (and math/rand/v2) source (rand.Intn,
//     rand.Shuffle, ...) — model code must draw from the seeded
//     sim.Simulation.Rand() stream; constructing seeded sources via
//     rand.New/rand.NewSource remains legal;
//   - `range` over a map whose iteration order can escape: Go randomizes
//     map order per run, so any map-range that emits packets, appends to
//     unsorted output, or mutates non-local state in an order-dependent way
//     breaks reproducibility.
//
// A map-range is accepted without annotation when its body is provably
// order-insensitive under a conservative syntactic rule: every statement is
// a delete from a map, a commutative accumulation (x++, x += e, x |= e,
// x ^= e, x &= e, x *= e), an assignment to a variable declared inside the
// loop body, an append to a slice that is subsequently passed to a sort
// call in the same function (the collect-then-sort idiom), an assignment to
// a map indexed directly by the range key variable, or control flow
// (if/for/block/break/continue) over those. Everything else needs a sort.
package simdeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis/framework"
)

// Analyzer is the simdeterminism analyzer.
var Analyzer = &framework.Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock, global rand, and order-leaking map iteration in deterministic packages",
	Run:  run,
}

// deterministicPkgs are the last path elements of packages that run on the
// simulation's virtual clock and must be reproducible.
var deterministicPkgs = map[string]bool{
	"sim": true, "netsim": true, "switchd": true, "hostd": true,
	"window": true, "chaos": true, "experiments": true, "tenancy": true,
	// The service layer runs the fabric controller (failover epochs, path
	// pinning) on the sim clock.
	"ask": true,
	// The workload generators: traces regenerate byte-identically from a
	// seed, so wall-clock and global-rand reads are just as forbidden as in
	// the simulation packages.
	"workload": true, "scenario": true,
}

var bannedTime = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// bannedRand are math/rand package-level functions that draw from the
// global (unseeded or shared) source. Methods on *rand.Rand and the
// constructors rand.New/rand.NewSource are fine.
var bannedRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true,
	"NormFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
	"Read": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "UintN": true, "Uint32N": true,
	"Uint64N": true, "N": true,
}

func run(pass *framework.Pass) (any, error) {
	if !deterministicPkgs[lastElem(pass.Pkg.Path())] {
		return nil, nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkMapRanges(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil, nil
}

func lastElem(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// checkCall flags wall-clock and global-rand calls.
func checkCall(pass *framework.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	switch pn.Imported().Path() {
	case "time":
		if bannedTime[sel.Sel.Name] {
			pass.Reportf(call.Pos(),
				"time.%s reads the host clock; deterministic packages must use the sim virtual clock (sim.Simulation.Now/After)",
				sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if bannedRand[sel.Sel.Name] {
			pass.Reportf(call.Pos(),
				"rand.%s draws from the global source; deterministic packages must use the seeded sim.Simulation.Rand() stream",
				sel.Sel.Name)
		}
	}
}

// checkMapRanges walks one function body and flags order-leaking map
// iteration. It needs the whole body to look ahead for the
// collect-then-sort idiom.
func checkMapRanges(pass *framework.Pass, body *ast.BlockStmt) {
	sorted := sortedSlices(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := pass.TypesInfo.Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		if orderInsensitive(pass, rs, sorted) {
			return true
		}
		pass.Reportf(rs.Pos(),
			"iteration over map %s has nondeterministic order that can escape this loop; collect and sort the keys",
			exprString(rs.X))
		return true
	})
}

// sortedSlices returns the set of objects passed as the first argument to a
// sort call anywhere in the function body.
func sortedSlices(pass *framework.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
		if !ok {
			return true
		}
		p := pn.Imported().Path()
		if p != "sort" && p != "slices" {
			return true
		}
		if !strings.HasPrefix(sel.Sel.Name, "Sort") && !strings.HasPrefix(sel.Sel.Name, "Stable") &&
			sel.Sel.Name != "Slice" && sel.Sel.Name != "SliceStable" &&
			sel.Sel.Name != "Strings" && sel.Sel.Name != "Ints" && sel.Sel.Name != "Float64s" {
			return true
		}
		if arg, ok := call.Args[0].(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[arg]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// orderInsensitive reports whether the loop body satisfies the conservative
// order-insensitivity rule described in the package doc.
func orderInsensitive(pass *framework.Pass, rs *ast.RangeStmt, sorted map[types.Object]bool) bool {
	keyObj := rangeVarObj(pass, rs.Key)
	locals := make(map[types.Object]bool)
	if keyObj != nil {
		locals[keyObj] = true
	}
	if vo := rangeVarObj(pass, rs.Value); vo != nil {
		locals[vo] = true
	}
	return stmtsOK(pass, rs.Body.List, keyObj, locals, sorted)
}

func rangeVarObj(pass *framework.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

func stmtsOK(pass *framework.Pass, stmts []ast.Stmt, keyObj types.Object,
	locals map[types.Object]bool, sorted map[types.Object]bool) bool {
	for _, s := range stmts {
		if !stmtOK(pass, s, keyObj, locals, sorted) {
			return false
		}
	}
	return true
}

func stmtOK(pass *framework.Pass, s ast.Stmt, keyObj types.Object,
	locals map[types.Object]bool, sorted map[types.Object]bool) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		// Only delete(m, k) is an acceptable statement-position call.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" {
				if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
		return false
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		return assignOK(pass, s, keyObj, locals, sorted)
	case *ast.DeclStmt:
		gd, ok := s.Decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR && gd.Tok != token.CONST {
			return false
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, name := range vs.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						locals[obj] = true
					}
				}
			}
		}
		return true
	case *ast.IfStmt:
		if s.Init != nil && !stmtOK(pass, s.Init, keyObj, locals, sorted) {
			return false
		}
		if !stmtsOK(pass, s.Body.List, keyObj, locals, sorted) {
			return false
		}
		if s.Else != nil {
			return stmtOK(pass, s.Else, keyObj, locals, sorted)
		}
		return true
	case *ast.BlockStmt:
		return stmtsOK(pass, s.List, keyObj, locals, sorted)
	case *ast.ForStmt:
		if s.Init != nil && !stmtOK(pass, s.Init, keyObj, locals, sorted) {
			return false
		}
		if s.Post != nil && !stmtOK(pass, s.Post, keyObj, locals, sorted) {
			return false
		}
		return stmtsOK(pass, s.Body.List, keyObj, locals, sorted)
	case *ast.RangeStmt:
		// A nested range over another map is checked on its own.
		if vo := rangeVarObj(pass, s.Key); vo != nil {
			locals[vo] = true
		}
		if vo := rangeVarObj(pass, s.Value); vo != nil {
			locals[vo] = true
		}
		return stmtsOK(pass, s.Body.List, keyObj, locals, sorted)
	case *ast.BranchStmt:
		return true
	case *ast.EmptyStmt:
		return true
	default:
		return false
	}
}

// assignOK accepts accumulating, local, collect-then-sort, and
// keyed-by-range-key assignments.
func assignOK(pass *framework.Pass, s *ast.AssignStmt, keyObj types.Object,
	locals map[types.Object]bool, sorted map[types.Object]bool) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	case token.DEFINE:
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Defs[id]; obj != nil {
					locals[obj] = true
				}
			}
		}
		return true
	case token.ASSIGN:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		switch lhs := s.Lhs[0].(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[lhs]
			if obj != nil && locals[obj] {
				return true
			}
			// x = append(x, ...) with x sorted later in the function.
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						if obj != nil && sorted[obj] {
							return true
						}
					}
				}
			}
			return false
		case *ast.IndexExpr:
			// m2[k] = v where k is the range key: each key is written once,
			// so the final map contents do not depend on iteration order.
			if id, ok := lhs.Index.(*ast.Ident); ok && keyObj != nil {
				if pass.TypesInfo.Uses[id] == keyObj {
					return true
				}
			}
			return false
		default:
			return false
		}
	default:
		return false
	}
}

func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.ParenExpr:
		return "(" + exprString(e.X) + ")"
	default:
		return "expr"
	}
}

// Package rulepurity keeps the violation catalogue deterministic.
//
// Invariant (paper §3.2, DESIGN.md "Rules"): internal/core rules are
// pure functions of the parsed page — the same document must produce
// the same findings on every run, machine, and worker interleaving,
// because the longitudinal tables diff rule hits across snapshots.
// Three impurity sources are flagged anywhere in the package: clock
// and randomness reads (time.Now/Since/..., math/rand), writes to
// package-level state, and iterating a map into ordered output
// (append inside a map range) without a subsequent sort in the same
// function.
package rulepurity

import (
	"go/ast"
	"go/types"

	"github.com/hvscan/hvscan/internal/lint/analysis"
)

// impureTimeFuncs are the time package entry points that read the
// clock; pure time arithmetic (Duration methods, constants) is fine.
var impureTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true,
}

// Analyzer checks every function in internal/core.
var Analyzer = &analysis.Analyzer{
	Name: "rulepurity",
	Doc: "internal/core rules must be deterministic: no clock or randomness " +
		"reads, no writes to package-level state, no map iteration into " +
		"ordered output without sorting",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.HasPathSuffix(pass.Pkg.ImportPath, "internal/core") {
		return nil
	}
	for _, f := range pass.Pkg.Syntax {
		analysis.WalkStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := pass.Callee(n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				switch {
				case fn.Pkg().Path() == "time" && impureTimeFuncs[fn.Name()]:
					pass.Reportf(n.Pos(),
						"rules must be deterministic: time.%s reads the clock; findings may not depend on wall time", fn.Name())
				case fn.Pkg().Path() == "math/rand" || fn.Pkg().Path() == "math/rand/v2":
					pass.Reportf(n.Pos(),
						"rules must be deterministic: math/rand makes findings irreproducible across runs")
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					checkGlobalWrite(pass, lhs)
				}
			case *ast.IncDecStmt:
				checkGlobalWrite(pass, n.X)
			case *ast.RangeStmt:
				checkMapRange(pass, n, stack)
			}
			return true
		})
	}
	return nil
}

// checkGlobalWrite flags an assignment whose target resolves to a
// package-level variable (directly or through an index/field/deref
// chain rooted at one).
func checkGlobalWrite(pass *analysis.Pass, lhs ast.Expr) {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			// pkg.Var or global.Field: the selected identifier decides.
			if obj := pass.ObjectOf(e.Sel); isPackageLevelVar(obj) {
				pass.Reportf(lhs.Pos(),
					"rules must be deterministic: writing package-level state (%s) makes findings depend on evaluation order", e.Sel.Name)
				return
			}
			lhs = e.X
		case *ast.Ident:
			if obj := pass.ObjectOf(e); isPackageLevelVar(obj) {
				pass.Reportf(lhs.Pos(),
					"rules must be deterministic: writing package-level state (%s) makes findings depend on evaluation order", e.Name)
			}
			return
		default:
			return
		}
	}
}

func isPackageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// checkMapRange flags `for ... := range m` over a map whose body builds
// a slice with append, unless the enclosing function also sorts —
// map iteration order is randomized, so unsorted accumulation leaks
// nondeterminism into rule output.
func checkMapRange(pass *analysis.Pass, n *ast.RangeStmt, stack []ast.Node) {
	t := pass.TypeOf(n.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if !containsAppend(pass, n.Body) {
		return // order-insensitive aggregation (counting, any-of checks)
	}
	if fn := analysis.EnclosingFunc(stack); fn != nil && containsSortCall(pass, fn) {
		return // accumulated then sorted: deterministic
	}
	pass.Reportf(n.Pos(),
		"map iteration order is randomized: appending inside a map range without sorting afterwards makes the output order nondeterministic")
}

func containsAppend(pass *analysis.Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := pass.ObjectOf(id).(*types.Builtin); ok && b.Name() == "append" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func containsSortCall(pass *analysis.Pass, fn ast.Node) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if f := pass.Callee(call); f != nil && f.Pkg() != nil &&
			(f.Pkg().Path() == "sort" || f.Pkg().Path() == "slices") {
			found = true
			return false
		}
		return true
	})
	return found
}

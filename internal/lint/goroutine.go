package lint

import (
	"go/ast"
	"go/types"
)

// checkGoroutine flags `go` statements, and calls to par.For, in
// deterministic packages whose enclosing function is not blessed with
// //simlint:ordered. Unordered concurrency is how parallel≠sequential drift
// starts: results must be written to index-addressed slots (never appended
// or merged in completion order) for a parallel run to stay bit-identical
// to the sequential one, and that property is a per-helper design fact a
// human must attest to. par.For is the one sanctioned fan-out, so a call to
// it needs the attestation a go statement needs.
func checkGoroutine(prog *Program, pkg *Package, dirs *directives) []Diagnostic {
	var diags []Diagnostic
	for _, file := range pkg.Syntax {
		ast.Inspect(file, func(n ast.Node) bool {
			if !spawns(pkg, n) {
				return true
			}
			if fd := funcFor(file, n.Pos()); fd != nil && dirs.ordered[fd] {
				return true
			}
			what := "goroutine spawned"
			if _, isGo := n.(*ast.GoStmt); !isGo {
				what = "par.For called"
			}
			diags = append(diags, diag(prog, n.Pos(), "goroutine",
				"%s outside a //simlint:ordered helper; deterministic packages may only fan out through worker pools with index-ordered writes", what))
			return true
		})
	}
	return diags
}

// parPath is the import path of the fan-out package whose For simlint
// treats as a go statement.
const parPath = "e2clab/internal/par"

// spawns reports whether n starts goroutines: a go statement or a call to
// par.For.
func spawns(pkg *Package, n ast.Node) bool {
	switch x := n.(type) {
	case *ast.GoStmt:
		return true
	case *ast.CallExpr:
		return isParFor(pkg, x)
	}
	return false
}

// isParFor reports whether call calls par.For. The callee is resolved
// through the type checker, so a renamed or dot import still matches and a
// local function that happens to be called For does not.
func isParFor(pkg *Package, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return false
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == parPath && fn.Name() == "For"
}

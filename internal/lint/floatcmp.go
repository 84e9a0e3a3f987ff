package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// floatCmpNames are lowercase fragments of identifiers that carry simulated
// time quantities: deadlines, slacks, tardiness, arrival/finish instants and
// remaining work. Exact ==/!= between two of these is almost always a bug —
// they are sums and differences of float64s, so equality that holds
// algebraically can fail (or spuriously hold) numerically.
var floatCmpNames = []string{
	"deadline", "slack", "tard", "arrival", "finish", "remain", "expiry",
}

// FloatCmp returns the analyzer flagging exact float64 equality on
// deadline/slack-like quantities. Comparator closures (sort.Slice,
// pq.NewHeap less functions) are exempt: comparing a field of x against the
// same field of y for tie-breaking is deliberate and deterministic.
func FloatCmp() *Analyzer {
	a := &Analyzer{
		Name: "floatcmp",
		Doc: "flags == and != between float64 deadline/slack/tardiness quantities " +
			"outside comparator closures; use an epsilon comparison (cf. " +
			"sim.CompletionEpsilon) or annotate the intentional exact " +
			"check with //lint:ignore",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		for _, f := range pass.Pkg.Files {
			litSpans := enclosingFuncLits(f)
			ast.Inspect(f, func(n ast.Node) bool {
				be, ok := n.(*ast.BinaryExpr)
				if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
					return true
				}
				if inAnySpan(be.Pos(), litSpans) {
					return true // comparator closure: tie-breaking idiom
				}
				if !isFloat(info.TypeOf(be.X)) && !isFloat(info.TypeOf(be.Y)) {
					return true
				}
				if !timeQuantityName(be.X) && !timeQuantityName(be.Y) {
					return true
				}
				pass.Reportf(be.OpPos,
					"exact %s comparison of float64 time quantity (%s %s %s); deadline/slack arithmetic "+
						"accumulates rounding error — compare within an epsilon (cf. "+
						"sim.CompletionEpsilon) or annotate with //lint:ignore floatcmp",
					be.Op, types.ExprString(be.X), be.Op, types.ExprString(be.Y))
				return true
			})
		}
	}
	return a
}

// isFloat reports whether t (possibly named) has a floating-point
// underlying type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// timeQuantityName reports whether the expression's trailing identifier
// looks like a simulated-time quantity.
func timeQuantityName(e ast.Expr) bool {
	name := strings.ToLower(lastName(e))
	for _, frag := range floatCmpNames {
		if strings.Contains(name, frag) {
			return true
		}
	}
	return false
}

// lastName extracts the final identifier of an expression: x -> "x",
// a.b.Deadline -> "Deadline", t.Tardiness() -> "Tardiness",
// xs[i].Finish -> "Finish".
func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.CallExpr:
		return lastName(e.Fun)
	case *ast.ParenExpr:
		return lastName(e.X)
	case *ast.IndexExpr:
		return lastName(e.X)
	case *ast.UnaryExpr:
		return lastName(e.X)
	case *ast.StarExpr:
		return lastName(e.X)
	}
	return ""
}

// Package frozengraph polices the graph layer's row-lifecycle
// contract: Row(v) views are borrowed, not owned.  The bitset.Reader a
// graph backend returns may alias internal scratch that the next Row
// call overwrites (the WAH row decoder reuses its decode buffer), so a
// row obtained inside a loop must not be stored anywhere that outlives
// the iteration — no assignment to a variable declared outside the
// loop, no store through a selector or index, no append, no
// composite-literal capture.  Re-binding with := inside the loop is the
// supported idiom.
//
// (A Builder mutated after Freeze needs no analyzer: AddEdge and
// SetName return graph.ErrFrozen at run time.)
//
// The check is intraprocedural and name-based (a method named Row on
// any named type) so testdata can stub the graph package.
package frozengraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/lintkit"
)

// Analyzer is the frozengraph check.
var Analyzer = &lintkit.Analyzer{
	Name: "frozengraph",
	Doc:  "forbid retaining Row(v) views across loop iterations",
	Run:  run,
}

func run(pass *lintkit.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkRowRetention(pass, fd)
		}
	}
	return nil
}

// checkRowRetention walks every loop and flags Row(...) call results
// that are stored somewhere outliving the iteration.
func checkRowRetention(pass *lintkit.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch loop := n.(type) {
		case *ast.ForStmt:
			body = loop.Body
		case *ast.RangeStmt:
			body = loop.Body
		default:
			return true
		}
		checkLoopBody(pass, body)
		return true // nested loops get their own (tighter) check
	})
}

func checkLoopBody(pass *lintkit.Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			// Inner loop: its stores are judged against its own (tighter)
			// body by checkRowRetention's outer walk.
			return false
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !isRowCall(rhs) {
					continue
				}
				if i >= len(n.Lhs) && len(n.Lhs) != 1 {
					continue
				}
				lhs := n.Lhs[0]
				if len(n.Lhs) == len(n.Rhs) {
					lhs = n.Lhs[i]
				}
				if retains(info, n.Tok, lhs, body) {
					pass.Reportf(rhs.Pos(),
						"Row(...) view stored in %s outlives the loop iteration; rows are borrowed scratch — copy the bits or re-bind with := inside the loop",
						lintkit.ExprString(lhs))
				}
			}
		case *ast.CallExpr:
			if lintkit.CalleeName(n) == "append" {
				for _, arg := range n.Args[min(1, len(n.Args)):] {
					if isRowCall(arg) {
						pass.Reportf(arg.Pos(),
							"Row(...) view appended to a slice outlives the loop iteration; copy the bits instead")
					}
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				e := elt
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if isRowCall(e) {
					pass.Reportf(e.Pos(),
						"Row(...) view captured in a composite literal outlives the loop iteration; copy the bits instead")
				}
			}
		}
		return true
	})
}

// retains reports whether assigning to lhs stores the row beyond the
// current iteration: any selector/index store, or a plain identifier
// declared outside the loop body (tok == "=" on an outer variable).
// A := define inside the loop is the blessed re-binding idiom.
func retains(info *types.Info, tok token.Token, lhs ast.Expr, body *ast.BlockStmt) bool {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return false
		}
		if tok == token.DEFINE {
			return false
		}
		obj := info.Uses[l]
		if obj == nil {
			obj = info.Defs[l]
		}
		if obj == nil {
			return false
		}
		return !(obj.Pos() >= body.Pos() && obj.Pos() < body.End())
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	}
	return false
}

// isRowCall reports whether e is a call sel.Row(arg) — the graph
// Interface's row accessor shape.
func isRowCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Row" && len(call.Args) == 1
}

// Package leasestate implements the repolint analyzer that tracks a
// shard lease from LeaseTable.Acquire to its settlement *across*
// function and package boundaries — the interprocedural upgrade of
// budgetpair's per-function lease spec.  Every lease a function
// acquires must show one of four evidences:
//
//   - local settlement: a Complete/Release call on a LeaseTable whose
//     argument is rooted at the lease variable, or an Expire sweep on
//     the same table the lease came from (expiry settles by deadline,
//     not identity);
//   - delegated settlement: the lease is passed to a function that
//     settles that parameter — proven by the SettlesFact the callee's
//     package exported (same-package callees are summarized in a
//     pre-pass);
//   - transfer: the lease (or its address) is returned, which exports a
//     TransfersFact so callers inherit the obligation;
//   - field escape: the lease is stored into a struct field, and some
//     function in the package settles through that same field (the
//     coordinator parks a lease in workerState.lease and handleDeath
//     releases ws.lease.ID).
//
// A lease with none of these is a finding.  The comma-ok acquire shape
// (`l, ok := t.Acquire(...)`; `if !ok`) owes nothing on the !ok path by
// construction — the analyzer checks evidence for the acquired value,
// not paths, so the exemption is implicit.
package leasestate

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/lintkit"
)

// SettlesFact marks a function that settles the lease passed as
// parameter Param (0-based, receiver excluded).
type SettlesFact struct{ Param int }

func (*SettlesFact) AFact() {}

// TransfersFact marks a function that returns an acquired lease,
// transferring the settlement obligation to its callers.
type TransfersFact struct{}

func (*TransfersFact) AFact() {}

// Analyzer is the leasestate entry point.
var Analyzer = &lintkit.Analyzer{
	Name: "leasestate",
	Doc: "track LeaseTable.Acquire results through helpers, returns and struct fields; " +
		"every lease must reach exactly one Complete/Release/Expire",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	locals := lintkit.LocalFuncs(pass.Files, pass.TypesInfo)

	// Pre-pass: summarize which local functions settle a lease-typed
	// parameter, so delegation to a same-package helper resolves without
	// order sensitivity, and export the summaries for importers.
	settles := make(map[*types.Func]int) // fn -> settled param index
	for fn, decl := range locals {
		if i, ok := settlesParam(pass.TypesInfo, fn, decl); ok {
			settles[fn] = i
			pass.ExportObjectFact(fn, &SettlesFact{Param: i})
		}
	}

	// Field settlements: (type, field) pairs some function settles
	// through (c.table.Release(ws.lease.ID, ...)).
	fieldSettled := make(map[[2]string]bool)
	for _, decl := range locals {
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSettleCall(pass.TypesInfo, call) || len(call.Args) == 0 {
				return true
			}
			if tf, ok := fieldOfArg(pass.TypesInfo, call.Args[0]); ok {
				fieldSettled[tf] = true
			}
			return true
		})
	}

	for fn, decl := range locals {
		// The table's own methods are the settlement mechanism.
		if recv := recvNamed(fn); recv == "LeaseTable" {
			continue
		}
		checkFunc(pass, locals, settles, fieldSettled, fn, decl)
	}
	return nil
}

// checkFunc verifies every Acquire in one declaration (closures
// included — settlement anywhere in the same declaration counts).
func checkFunc(pass *lintkit.Pass, locals map[*types.Func]*ast.FuncDecl, settles map[*types.Func]int,
	fieldSettled map[[2]string]bool, fn *types.Func, decl *ast.FuncDecl) {
	info := pass.TypesInfo
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return true
		}
		src := "Acquire"
		var table types.Object
		if isAcquireCall(info, call) {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if root := lintkit.RootIdent(sel.X); root != nil {
					table = info.ObjectOf(root)
				}
			}
		} else {
			// A call into a lease-transferring function hands this caller
			// the settlement obligation, exactly like a direct Acquire.
			// Same-package transfers are already checked at their return
			// site, so only imported TransfersFacts create obligations.
			callee := lintkit.CalleeFunc(info, call)
			if callee == nil {
				return true
			}
			if _, local := locals[callee]; local {
				return true
			}
			var tf TransfersFact
			if !pass.ImportObjectFact(callee, &tf) {
				return true
			}
			src = callee.Name()
		}
		if len(as.Lhs) == 0 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			pass.Reportf(call.Pos(), "lease from %s is discarded; settle it with Complete/Release/Expire", src)
			return true
		}
		lease := info.ObjectOf(id)
		if lease == nil {
			return true
		}
		if !leaseAccounted(pass, locals, settles, fieldSettled, decl, lease, table, fn) {
			pass.Reportf(call.Pos(), "lease %s from %s is neither settled (Complete/Release/Expire), "+
				"passed to a settling function, returned, nor parked in a settled field", id.Name, src)
		}
		return true
	})
}

// leaseAccounted looks for any settlement/transfer evidence for the
// lease object inside the declaration.
func leaseAccounted(pass *lintkit.Pass, locals map[*types.Func]*ast.FuncDecl, settles map[*types.Func]int,
	fieldSettled map[[2]string]bool, decl *ast.FuncDecl, lease, table types.Object, fn *types.Func) bool {
	info := pass.TypesInfo
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			// Local settlement: settle call rooted at the lease.
			if isSettleCall(info, n) && len(n.Args) > 0 && rootedAt(info, n.Args[0], lease) {
				found = true
				return false
			}
			// Expiry sweep on the same table: settles by deadline.
			if table != nil && isExpireCall(info, n) {
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && rootedAt(info, sel.X, table) {
					found = true
					return false
				}
			}
			// Delegated settlement: lease passed in a settled position.
			callee := lintkit.CalleeFunc(info, n)
			if callee == nil || callee == fn {
				return true
			}
			for i, arg := range n.Args {
				if !rootedAt(info, arg, lease) {
					continue
				}
				if _, local := locals[callee]; local {
					if pi, ok := settles[callee]; ok && pi == i {
						found = true
						return false
					}
				} else {
					var f SettlesFact
					if pass.ImportObjectFact(callee, &f) && f.Param == i {
						found = true
						return false
					}
				}
			}
		case *ast.ReturnStmt:
			// Transfer: the lease leaves through a return value.
			for _, res := range n.Results {
				if rootedAt(info, res, lease) {
					pass.ExportObjectFact(fn, &TransfersFact{})
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			// Field escape: x.f = l (or &l) with (type of x, f) settled
			// somewhere in the package.
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) && len(n.Rhs) != 1 {
					break
				}
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				if !rootedAt(info, rhs, lease) {
					continue
				}
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if tf, ok := fieldOf(info, sel); ok && fieldSettled[tf] {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// settlesParam reports whether the declaration settles a lease-typed
// parameter, and which one.
func settlesParam(info *types.Info, fn *types.Func, decl *ast.FuncDecl) (int, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || decl.Body == nil {
		return 0, false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if !isLeaseType(p.Type()) {
			continue
		}
		settled := false
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isSettleCall(info, call) || len(call.Args) == 0 {
				return true
			}
			if rootedAt(info, call.Args[0], p) {
				settled = true
				return false
			}
			return true
		})
		if settled {
			return i, true
		}
	}
	return 0, false
}

// isAcquireCall matches LeaseTable.Acquire(worker, now) nominally, so
// testdata can stub the table without importing internal/dist.
func isAcquireCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Acquire" || len(call.Args) != 2 {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && isNamed(tv.Type, "LeaseTable")
}

// isExpireCall matches Expire on a LeaseTable.
func isExpireCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Expire" {
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && isNamed(tv.Type, "LeaseTable")
}

// isSettleCall matches Complete/Release/Expire on a LeaseTable.
func isSettleCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Complete", "Release", "Expire":
	default:
		return false
	}
	tv, ok := info.Types[sel.X]
	return ok && isNamed(tv.Type, "LeaseTable")
}

// rootedAt reports whether e's leftmost identifier resolves to obj
// (l, &l, l.ID, ws.lease.ID when obj is the root var...).
func rootedAt(info *types.Info, e ast.Expr, obj types.Object) bool {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok {
		e = u.X
	}
	root := lintkit.RootIdent(e)
	return root != nil && info.ObjectOf(root) == obj
}

// fieldOf names a selector's (owner type, field) pair.
func fieldOf(info *types.Info, sel *ast.SelectorExpr) ([2]string, bool) {
	tv, ok := info.Types[sel.X]
	if !ok {
		return [2]string{}, false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return [2]string{}, false
	}
	return [2]string{named.Obj().Name(), sel.Sel.Name}, true
}

// fieldOfArg digs the (type, field) pair out of a settlement argument
// like ws.lease.ID — the selector one level above the leaf.
func fieldOfArg(info *types.Info, arg ast.Expr) ([2]string, bool) {
	e := ast.Unparen(arg)
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return [2]string{}, false
		}
		if isLeaseType(exprType(info, sel)) {
			return fieldOf(info, sel)
		}
		e = ast.Unparen(sel.X)
	}
}

func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// isLeaseType reports whether t (behind pointers) is a named type
// called Lease.
func isLeaseType(t types.Type) bool {
	return isNamed(t, "Lease")
}

// isNamed reports whether t (behind pointers) is the named type name.
func isNamed(t types.Type, name string) bool {
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Named:
			return v.Obj().Name() == name
		default:
			return false
		}
	}
}

// recvNamed returns fn's receiver type name ("" for plain functions).
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

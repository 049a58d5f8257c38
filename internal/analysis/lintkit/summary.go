package lintkit

import (
	"go/ast"
	"go/types"
)

// This file is the "callgraph lite" layer budgetpair and goroleak
// share: enough call resolution to follow a call into the callee's
// declaration when it lives in the same package, without building a
// real callgraph.  A callee in another package is opaque.

// LocalFuncs indexes a package's function and method declarations by
// their types.Func object, so an analyzer that meets a call to a
// same-package function can walk straight into its body.  Bodyless
// declarations (assembly- or linkname-backed) are omitted: every
// returned decl has a non-nil Body.
func LocalFuncs(files []*ast.File, info *types.Info) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name == nil || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// CalleeFunc resolves a call expression to the declared function or
// method it invokes, or nil for calls through function values,
// builtins, interface methods, and type conversions.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		// Interface method calls resolve to a *types.Func too, but its
		// declaring scope is the interface — callers that need a body
		// must not treat those as followable.  Distinguish via the
		// selection kind.
		if sel, ok := info.Selections[fn]; ok && sel.Kind() == types.MethodVal {
			if types.IsInterface(sel.Recv()) {
				return nil
			}
		}
		id = fn.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

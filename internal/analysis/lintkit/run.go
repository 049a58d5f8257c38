package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"io"
)

// Run applies every analyzer to every package, filters the findings
// through the files' //nolint suppressions, appends suppression-hygiene
// findings (nolint without a reason), and returns the remainder sorted
// by position.  Each package is analyzed on its own: an analyzer sees
// the bodies of its package's functions and nothing of any other
// package's.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		ds, err := runPackage(fset, pkg, analyzers)
		if err != nil {
			return nil, err
		}
		all = append(all, ds...)
	}
	sortDiagnostics(fset, all)
	return all, nil
}

// runPackage is Run for a single package.
func runPackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var raw []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			report:    func(d Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lintkit: %s on %s: %v", a.Name, pkg.ImportPath, err)
		}
	}
	// Suppression pass: a finding is dropped when a //nolint naming its
	// analyzer covers the finding's line; every nolint comment itself
	// must carry a justification.
	sups := make(map[string]suppressions) // filename -> parsed nolints
	var kept []Diagnostic
	for _, f := range pkg.Syntax {
		name := fset.Position(f.Pos()).Filename
		sup := collectSuppressions(fset, f)
		sups[name] = sup
		kept = append(kept, sup.hygiene(fset.File(f.Pos()))...)
	}
	for _, d := range raw {
		pos := fset.Position(d.Pos)
		if sups[pos.Filename].suppresses(d.Analyzer, pos.Line) {
			continue
		}
		kept = append(kept, d)
	}
	return kept, nil
}

// Format writes diagnostics in the conventional file:line:col form.
func Format(w io.Writer, fset *token.FileSet, ds []Diagnostic) {
	for _, d := range ds {
		pos := fset.Position(d.Pos)
		fmt.Fprintf(w, "%s: %s (%s)\n", pos, d.Message, d.Analyzer)
	}
}

// ----------------------------------------------------------------------
// Shared AST/type helpers used by several analyzers
// ----------------------------------------------------------------------

// CalleeName returns, for a call expression, the bare method or function
// name being invoked ("" when the callee is not an identifier or
// selector).
func CalleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// RootIdent returns the leftmost identifier of a selector chain
// (x in x.a.b), or nil.
func RootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.CallExpr:
			e = v.Fun
		default:
			return nil
		}
	}
}

// ExprString renders a small expression from its AST (the loader does
// not retain source bytes), for message text and for the textual
// quantity comparison budgetpair performs.
func ExprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.BasicLit:
		return v.Value
	case *ast.SelectorExpr:
		return ExprString(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		s := ExprString(v.Fun) + "("
		for i, a := range v.Args {
			if i > 0 {
				s += ", "
			}
			s += ExprString(a)
		}
		return s + ")"
	case *ast.BinaryExpr:
		return ExprString(v.X) + v.Op.String() + ExprString(v.Y)
	case *ast.UnaryExpr:
		return v.Op.String() + ExprString(v.X)
	case *ast.StarExpr:
		return "*" + ExprString(v.X)
	case *ast.ParenExpr:
		return "(" + ExprString(v.X) + ")"
	case *ast.IndexExpr:
		return ExprString(v.X) + "[" + ExprString(v.Index) + "]"
	}
	return "?"
}

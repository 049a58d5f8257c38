// Package budgetpair flow-checks the repo's memory-accounting
// discipline: every byte charged to a membudget.Governor must be
// released on every path out of the charging code, and every
// reservation carved out of a shared governor (Governor.Reserve) must
// be closed (Reservation.Close) on every path — or the resource's
// ownership must demonstrably transfer to a type that releases/closes
// it later.  This is the PR 5 invariant ("one budget, one meaning of
// memory"), extended in the service PR to the reservation sub-budget
// API multi-tenant admission is built on; runtime leak checks can only
// sample these disciplines, the analyzer enforces them on every return
// path mechanically.
//
// The check is intraprocedural.  A call to a same-package helper that
// releases its Governor parameter (or closes its Reservation
// parameter) counts as a release; a helper in another package is
// opaque, so a charge settled only through one is a finding.  Two
// ownership-escape rules encode the repo's legitimate cross-function
// patterns:
//
//   - receiver escape: an acquire through a field of some named type T
//     (e.g. w.gov.Charge(n) inside a *levelWriter method) is owned by T
//     when any method of T in the same package performs the matching
//     release — the constructor/Close pairing of the ooc shard writers,
//     the worker pools, and the service registry's graph pins;
//   - result escape: an acquire inside a function returning a named
//     type T whose methods release (e.g. openShard charging a read
//     buffer into the *shardReader it returns, or Admission.Acquire
//     reserving into the *Lease it hands the caller) transfers
//     ownership to the returned value.
//
// Otherwise, every return statement lexically after the first acquire
// must be covered by a deferred release registered before it or a
// release call between the acquire and the return.  Two deliberate
// exemptions: methods of the accounting types themselves (Governor,
// Reservation) are skipped — their internal parent-forwarding mirrors
// are the accounting mechanism, not acquisitions; and for the
// two-result Reserve, returns inside a `!= nil`/`== nil` error check
// are exempt — a failed Reserve leaves nothing to close.  A transfer
// the rules cannot see is suppressed with //nolint:budgetpair <reason>.
//
// When a function has exactly one Charge and none of its Releases
// textually matches the charged expression, the analyzer additionally
// reports a quantity mismatch — the charge/release amounts must track
// the same bytes.
package budgetpair

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/lintkit"
)

// Analyzer is the budgetpair check.
var Analyzer = &lintkit.Analyzer{
	Name: "budgetpair",
	Doc: "check that every membudget Charge/Reserve is paired with a Release/Close on all return paths " +
		"(or ownership provably transfers to a releasing type)",
	Run: run,
}

// pairSpec is one acquire/release discipline the analyzer enforces.
type pairSpec struct {
	acquireType string // named receiver type of the acquire method
	acquireName string
	acquireArgs int
	releaseType string // named receiver type of the release method
	releaseName string
	releaseArgs int
	quantity    bool // apply the same-amount check (Charge/Release only)
	errExempt   bool // acquire also returns an error; err-check returns owe nothing
	what        string
}

var specs = []pairSpec{
	{
		acquireType: "Governor", acquireName: "Charge", acquireArgs: 1,
		releaseType: "Governor", releaseName: "Release", releaseArgs: 1,
		quantity: true,
		what:     "the governor charge",
	},
	{
		acquireType: "Governor", acquireName: "Reserve", acquireArgs: 1,
		releaseType: "Reservation", releaseName: "Close", releaseArgs: 0,
		errExempt: true,
		what:      "the reservation",
	},
}

// releaseCall reports whether call is spec's release method, returning
// its receiver.
func releaseCall(info *types.Info, call *ast.CallExpr, spec pairSpec) (recv ast.Expr, ok bool) {
	return methodCall(info, call, spec.releaseType, spec.releaseName, spec.releaseArgs)
}

// methodCall reports whether call is method `name` with nargs arguments
// on a value whose named type is typeName.  Matching is nominal so
// analysis testdata can stub the types without importing the real
// package.
func methodCall(info *types.Info, call *ast.CallExpr, typeName, name string, nargs int) (recv ast.Expr, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != name || len(call.Args) != nargs {
		return nil, false
	}
	tv, found := info.Types[sel.X]
	if !found {
		return nil, false
	}
	return sel.X, isNamed(tv.Type, typeName)
}

// isNamed reports whether t (possibly behind pointers) is a named type
// with the given name.
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

// namedTypeName returns the name of e's named type (behind pointers),
// or "".
func namedTypeName(info *types.Info, e ast.Expr) string {
	tv, ok := info.Types[e]
	if !ok {
		return ""
	}
	t := tv.Type
	for {
		switch v := t.(type) {
		case *types.Pointer:
			t = v.Elem()
		case *types.Named:
			return v.Obj().Name()
		default:
			return ""
		}
	}
}

type acquire struct {
	pos     token.Pos
	argText string
	recv    ast.Expr
}

type release struct {
	pos      token.Pos
	argText  string
	deferred bool
	deferPos token.Pos
}

func run(pass *lintkit.Pass) error {
	locals := lintkit.LocalFuncs(pass.Files, pass.TypesInfo)
	for _, spec := range specs {
		helpers := settlerHelpers(pass.TypesInfo, locals, spec)
		owners := owningTypes(pass, spec)
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkFunc(pass, fd, spec, owners, helpers)
			}
		}
	}
	return nil
}

// settlerHelpers summarizes which functions of the package settle one
// of their parameters for spec — release a Governor parameter, close a
// Reservation parameter — mapping each to that parameter's index.
func settlerHelpers(info *types.Info, locals map[*types.Func]*ast.FuncDecl, spec pairSpec) map[*types.Func]int {
	out := make(map[*types.Func]int)
	for fn, decl := range locals {
		sig := fn.Type().(*types.Signature)
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if !isNamed(p.Type(), spec.releaseType) {
				continue
			}
			found := false
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && !found {
					if recv, ok := releaseCall(info, call, spec); ok {
						root := lintkit.RootIdent(recv)
						found = root != nil && info.ObjectOf(root) == p
					}
				}
				return !found
			})
			if found {
				out[fn] = i
				break
			}
		}
	}
	return out
}

// recvTypeName returns the named type of fd's receiver ("" for plain
// functions).
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	e := fd.Recv.List[0].Type
	if s, isStar := e.(*ast.StarExpr); isStar {
		e = s.X
	}
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.IndexExpr:
		if id, isIdent := v.X.(*ast.Ident); isIdent {
			return id.Name
		}
	}
	return ""
}

// owningTypes collects the named receiver types that own the spec's
// release somewhere in the package: any method whose body (closures
// included) calls it marks its receiver type as an owner.  The release
// method's own receiver type is seeded in — a constructor returning a
// *Reservation has transferred the close obligation to its caller.
func owningTypes(pass *lintkit.Pass, spec pairSpec) map[string]bool {
	out := map[string]bool{spec.releaseType: true}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recvName := recvTypeName(fd)
			if recvName == "" || out[recvName] {
				continue
			}
			found := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if found {
					return false
				}
				if call, isCall := n.(*ast.CallExpr); isCall {
					if _, ok := releaseCall(pass.TypesInfo, call, spec); ok {
						found = true
						return false
					}
				}
				return true
			})
			if found {
				out[recvName] = true
			}
		}
	}
	return out
}

// checkFunc applies one spec's pairing rules to one function
// declaration.  Function literals are not descended into (a closure is
// not a return path of its enclosing function), except the immediate
// body of a `defer func() { ... }()`, whose releases count as deferred
// coverage.
func checkFunc(pass *lintkit.Pass, fd *ast.FuncDecl, spec pairSpec, owners map[string]bool,
	helpers map[*types.Func]int) {
	// The accounting types' own methods ARE the mechanism: Governor's
	// parent-forwarding Charge/Release mirrors and Reservation's
	// reconciling Close would all read as unpaired acquisitions.
	if recv := recvTypeName(fd); recv == spec.acquireType || recv == spec.releaseType {
		return
	}

	var acquires []acquire
	var releases []release
	var returns []*ast.ReturnStmt
	var errRanges [][2]token.Pos // bodies of `if <x op nil>` blocks

	var walk func(n ast.Node, deferPos token.Pos)
	walk = func(root ast.Node, deferPos token.Pos) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // separate function; see doc comment
			case *ast.DeferStmt:
				// Walk the deferred call (and a deferred closure's whole
				// body) in deferred mode, then skip the normal descent.
				if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
					walk(lit.Body, n.Pos())
				} else {
					walk(n.Call, n.Pos())
				}
				return false
			case *ast.IfStmt:
				if spec.errExempt && isNilCheck(n.Cond) {
					errRanges = append(errRanges, [2]token.Pos{n.Body.Pos(), n.Body.End()})
				}
			case *ast.ReturnStmt:
				if deferPos == token.NoPos {
					returns = append(returns, n)
				}
			case *ast.CallExpr:
				if recv, ok := methodCall(pass.TypesInfo, n, spec.acquireType, spec.acquireName, spec.acquireArgs); ok {
					acquires = append(acquires, acquire{
						pos:     n.Pos(),
						argText: lintkit.ExprString(n.Args[0]),
						recv:    recv,
					})
				}
				if _, ok := releaseCall(pass.TypesInfo, n, spec); ok {
					argText := "?"
					if len(n.Args) > 0 {
						argText = lintkit.ExprString(n.Args[0])
					}
					releases = append(releases, release{
						pos:      n.Pos(),
						argText:  argText,
						deferred: deferPos != token.NoPos,
						deferPos: deferPos,
					})
				} else if callee := lintkit.CalleeFunc(pass.TypesInfo, n); callee != nil &&
					callee != pass.TypesInfo.Defs[fd.Name] {
					// A call into a same-package helper that settles one of
					// its parameters is a release of unknown quantity here.
					if pi, ok := helpers[callee]; ok && pi < len(n.Args) {
						releases = append(releases, release{
							pos:      n.Pos(),
							argText:  "?",
							deferred: deferPos != token.NoPos,
							deferPos: deferPos,
						})
					}
				}
			}
			return true
		})
	}
	walk(fd.Body, token.NoPos)

	if len(acquires) == 0 {
		return
	}

	// Receiver escape: the acquire went through a field of a type whose
	// methods release (w.gov.Charge inside a *levelWriter method).
	allEscape := true
	for _, a := range acquires {
		if !acquireEscapes(pass, a, fd, spec, owners) {
			allEscape = false
			break
		}
	}
	if allEscape {
		return
	}

	firstAcquire := acquires[0].pos
	covered := func(ret token.Pos) bool {
		for _, r := range releases {
			if r.deferred && r.deferPos < ret {
				return true
			}
			if !r.deferred && r.pos > firstAcquire && r.pos < ret {
				return true
			}
		}
		return false
	}
	inErrCheck := func(ret token.Pos) bool {
		for _, rng := range errRanges {
			if ret >= rng[0] && ret < rng[1] {
				return true
			}
		}
		return false
	}

	if len(releases) == 0 {
		pass.Reportf(firstAcquire,
			"%s(%s) has no matching %s in %s; %s it on every path or transfer ownership (//nolint:budgetpair <reason>)",
			spec.acquireName, acquires[0].argText, spec.releaseName, fd.Name.Name, spec.releaseName)
		return
	}

	for _, ret := range returns {
		if ret.Pos() <= firstAcquire {
			continue
		}
		if inErrCheck(ret.Pos()) {
			continue // a failed Reserve returned an error; nothing to close
		}
		if !covered(ret.Pos()) {
			pass.Reportf(ret.Pos(),
				"return leaks %s from line %d: no %s reaches this path (defer the %s or reconcile before returning)",
				spec.what, pass.Fset.Position(firstAcquire).Line, spec.releaseName, spec.releaseName)
		}
	}
	// A function body that can fall off the end is one more return path.
	if n := len(fd.Body.List); n > 0 {
		if _, endsInReturn := fd.Body.List[n-1].(*ast.ReturnStmt); !endsInReturn {
			if !covered(fd.Body.End()) {
				pass.Reportf(acquires[0].pos,
					"%s(%s) is not %sd before %s falls off the end of the function",
					spec.acquireName, acquires[0].argText, spec.releaseName, fd.Name.Name)
			}
		}
	}

	// Quantity check: a lone Charge whose releases all name a different
	// amount is charging and releasing different bytes.
	if spec.quantity && len(acquires) == 1 && acquires[0].argText != "?" {
		match := false
		for _, r := range releases {
			if r.argText == acquires[0].argText || r.argText == "?" {
				match = true
				break
			}
		}
		if !match {
			pass.Reportf(acquires[0].pos,
				"Charge(%s) is never Released with the same quantity (releases: %s)",
				acquires[0].argText, releases[0].argText)
		}
	}
}

// isNilCheck reports whether cond contains a `x != nil` or `x == nil`
// comparison — the shape of the error check after a two-result acquire.
func isNilCheck(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.NEQ || b.Op == token.EQL) {
			if isNilIdent(b.X) || isNilIdent(b.Y) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// acquireEscapes reports whether one acquire's ownership provably
// leaves the function: through the receiver chain (rule one) or through
// a returned owning type (rule two).
func acquireEscapes(pass *lintkit.Pass, a acquire, fd *ast.FuncDecl, spec pairSpec, owners map[string]bool) bool {
	// Rule one: recv is a selector chain rooted at a value of a named
	// type whose methods release (w.gov, e.opts.Gov, ...).  A bare
	// *Governor root (local or parameter) does not escape.
	if root := lintkit.RootIdent(a.recv); root != nil {
		if name := rootNamedType(pass.TypesInfo, a.recv); name != "" && name != spec.acquireType && owners[name] {
			return true
		}
	}
	// Rule two: the function returns a named type whose methods release
	// (constructors handing the acquired resource to the caller).
	if fd.Type.Results != nil {
		for _, res := range fd.Type.Results.List {
			e := res.Type
			if s, ok := e.(*ast.StarExpr); ok {
				e = s.X
			}
			if id, ok := e.(*ast.Ident); ok && owners[id.Name] {
				return true
			}
		}
	}
	return false
}

// rootNamedType returns the named type of the leftmost identifier of
// recv's selector chain ("" when untyped or not named).
func rootNamedType(info *types.Info, recv ast.Expr) string {
	root := lintkit.RootIdent(recv)
	if root == nil {
		return ""
	}
	return namedTypeName(info, root)
}

// Package budgetpair flow-checks the repo's memory-accounting
// discipline: every byte charged to a membudget.Governor must be
// released on every path out of the charging code, and every
// reservation carved out of a shared governor (Governor.Reserve) must
// be closed (Reservation.Close) on every path — or the resource's
// ownership must demonstrably transfer to a type that releases/closes
// it later.  This is the PR 5 invariant ("one budget, one meaning of
// memory"), extended in the service PR to the reservation sub-budget
// API multi-tenant admission is built on, and in the dist PR to the
// shard-lease table: a lease taken with LeaseTable.Acquire must be
// settled on every path — Complete (result landed), Release (worker
// died), or Expire (deadline sweep); runtime leak checks can only
// sample these disciplines, the analyzer enforces them on every return
// path mechanically.
//
// The check is intraprocedural with two ownership-escape rules that
// encode the repo's legitimate cross-function patterns:
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

// ReleasesParamFact marks a function that calls Governor.Release on the
// Governor passed as parameter Param: a call to it counts as a release
// of unknown quantity in the caller's pairing check.
type ReleasesParamFact struct{ Param int }

func (*ReleasesParamFact) AFact() {}

// ClosesParamFact marks a function that calls Reservation.Close on the
// Reservation passed as parameter Param.
type ClosesParamFact struct{ Param int }

func (*ClosesParamFact) AFact() {}

// Analyzer is the budgetpair check.
var Analyzer = &lintkit.Analyzer{
	Name: "budgetpair",
	Doc: "check that every membudget Charge/Reserve is paired with a Release/Close on all return paths " +
		"(or ownership provably transfers to a releasing type)",
	Run: run,
}

// relMethod is one method that settles an acquisition.
type relMethod struct {
	name string
	args int
}

// pairSpec is one acquire/release discipline the analyzer enforces.  A
// spec may accept several settling methods on the release type: the
// dist lease table's Acquire is settled by Complete (result landed),
// Release (worker died), or Expire (deadline sweep) alike.
type pairSpec struct {
	acquireType string // named receiver type of the acquire method
	acquireName string
	acquireArgs int
	releaseType string // named receiver type of the settling methods
	rels        []relMethod
	quantity    bool // apply the same-amount check (Charge/Release only)
	errExempt   bool // acquire also returns an error; err-check returns owe nothing
	okExempt    bool // acquire also returns a bool; `if !ok` returns owe nothing
	what        string
	fix         string
}

var specs = []pairSpec{
	{
		acquireType: "Governor", acquireName: "Charge", acquireArgs: 1,
		releaseType: "Governor", rels: []relMethod{{"Release", 1}},
		quantity: true,
		what:     "the governor charge", fix: "Release",
	},
	{
		acquireType: "Governor", acquireName: "Reserve", acquireArgs: 1,
		releaseType: "Reservation", rels: []relMethod{{"Close", 0}},
		errExempt: true,
		what:      "the reservation", fix: "Close",
	},
	{
		acquireType: "LeaseTable", acquireName: "Acquire", acquireArgs: 2,
		releaseType: "LeaseTable", rels: []relMethod{{"Complete", 2}, {"Release", 3}, {"Expire", 1}},
		okExempt: true,
		what:     "the shard lease", fix: "Complete/Release",
	},
}

// releaseCall reports whether call is any of spec's settling methods.
func releaseCall(info *types.Info, call *ast.CallExpr, spec pairSpec) bool {
	for _, r := range spec.rels {
		if _, ok := methodCall(info, call, spec.releaseType, r.name, r.args); ok {
			return true
		}
	}
	return false
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
	relHelpers, closeHelpers := settlerHelpers(pass)
	for _, spec := range specs {
		// settlesVia resolves a callee to the parameter index it settles
		// for this spec, through the local pre-pass or an imported fact.
		var settlesVia func(*types.Func) (int, bool)
		switch spec.acquireName {
		case "Charge":
			settlesVia = func(fn *types.Func) (int, bool) {
				if i, ok := relHelpers[fn]; ok {
					return i, true
				}
				var f ReleasesParamFact
				if pass.ImportObjectFact(fn, &f) {
					return f.Param, true
				}
				return 0, false
			}
		case "Reserve":
			settlesVia = func(fn *types.Func) (int, bool) {
				if i, ok := closeHelpers[fn]; ok {
					return i, true
				}
				var f ClosesParamFact
				if pass.ImportObjectFact(fn, &f) {
					return f.Param, true
				}
				return 0, false
			}
		}
		owners := owningTypes(pass, spec)
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkFunc(pass, fd, spec, owners, settlesVia)
			}
		}
	}
	return nil
}

// settlerHelpers summarizes which local functions release a Governor
// parameter or close a Reservation parameter, and exports the matching
// facts so importers see through the helpers too.
func settlerHelpers(pass *lintkit.Pass) (rel, cls map[*types.Func]int) {
	rel = make(map[*types.Func]int)
	cls = make(map[*types.Func]int)
	info := pass.TypesInfo
	for fn, decl := range lintkit.LocalFuncs(pass.Files, info) {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			continue
		}
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			var typeName, method string
			var nargs int
			switch {
			case isNamed(p.Type(), "Governor"):
				typeName, method, nargs = "Governor", "Release", 1
			case isNamed(p.Type(), "Reservation"):
				typeName, method, nargs = "Reservation", "Close", 0
			default:
				continue
			}
			found := false
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if recv, ok := methodCall(info, call, typeName, method, nargs); ok {
					if root := lintkit.RootIdent(recv); root != nil && info.ObjectOf(root) == p {
						found = true
						return false
					}
				}
				return true
			})
			if !found {
				continue
			}
			if typeName == "Governor" {
				rel[fn] = i
				pass.ExportObjectFact(fn, &ReleasesParamFact{Param: i})
			} else {
				cls[fn] = i
				pass.ExportObjectFact(fn, &ClosesParamFact{Param: i})
			}
			break
		}
	}
	return rel, cls
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
					if releaseCall(pass.TypesInfo, call, spec) {
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
	settlesVia func(*types.Func) (int, bool)) {
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
				if spec.okExempt && isNotOkCheck(n.Cond) {
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
				if releaseCall(pass.TypesInfo, n, spec) {
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
				} else if settlesVia != nil {
					// A call into a helper that settles one of its
					// parameters is a release of unknown quantity here.
					callee := lintkit.CalleeFunc(pass.TypesInfo, n)
					if callee != nil && callee != pass.TypesInfo.Defs[fd.Name] {
						if pi, ok := settlesVia(callee); ok && pi < len(n.Args) {
							releases = append(releases, release{
								pos:      n.Pos(),
								argText:  "?",
								deferred: deferPos != token.NoPos,
								deferPos: deferPos,
							})
						}
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
			spec.acquireName, acquires[0].argText, spec.fix, fd.Name.Name, spec.fix)
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
				spec.what, pass.Fset.Position(firstAcquire).Line, spec.fix, spec.fix)
		}
	}
	// A function body that can fall off the end is one more return path.
	if n := len(fd.Body.List); n > 0 {
		if _, endsInReturn := fd.Body.List[n-1].(*ast.ReturnStmt); !endsInReturn {
			if !covered(fd.Body.End()) {
				pass.Reportf(acquires[0].pos,
					"%s(%s) is not %sd before %s falls off the end of the function",
					spec.acquireName, acquires[0].argText, spec.fix, fd.Name.Name)
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

// isNotOkCheck reports whether cond is a bare `!ident` — the shape of
// the not-acquired check after a comma-ok acquire (`if !ok { return }`
// owes no settlement: nothing was leased).
func isNotOkCheck(cond ast.Expr) bool {
	u, ok := cond.(*ast.UnaryExpr)
	if !ok || u.Op != token.NOT {
		return false
	}
	_, isIdent := u.X.(*ast.Ident)
	return isIdent
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

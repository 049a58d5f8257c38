// Package lockorder implements the repolint analyzer that builds the
// program's mutex-acquisition order graph and reports cycles and
// canonical-order inversions.
//
// A lock class is a mutex with a stable cross-package name: a struct
// field ("pkg.Type.field") or a package-level variable ("pkg.var");
// function-local mutexes have no class and no ordering obligations.
// Within each function the analyzer walks the body in source order
// tracking the held set: acquiring B while holding A records the edge
// A→B.  Calls are followed — into same-package declarations via their
// computed summaries, into other packages via the LocksFact each
// package exports for every function that may acquire a class — so an
// edge through a helper is the same edge as an inline one.  Each
// package also exports its local edges as a package fact
// (LockEdgesFact); every pass unions all visible edge facts with its
// own and reports a cycle at each local edge that participates in one,
// which places the report in the package that contributed the edge.
//
// Independent of cycles, the suite documents a canonical total order
// for the serving stack's well-known classes:
//
//	registry (service.Registry.mu) ≺ lease (dist.LeaseTable.mu) ≺ governor (membudget.*)
//
// and any edge against that order is an inversion finding even before a
// second thread closes the cycle.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/lintkit"
)

// LocksFact records the lock classes a function may acquire,
// transitively through same-package callees.
type LocksFact struct{ Classes []string }

func (*LocksFact) AFact() {}

// LockEdge is one acquired-while-holding pair.
type LockEdge struct{ From, To string }

// LockEdgesFact is the package fact carrying every edge a package's
// functions contribute to the global acquisition graph.
type LockEdgesFact struct{ Edges []LockEdge }

func (*LockEdgesFact) AFact() {}

// Analyzer is the lockorder entry point.
var Analyzer = &lintkit.Analyzer{
	Name: "lockorder",
	Doc: "build the cross-package mutex acquisition-order graph; report cycles and " +
		"inversions of the canonical registry≺lease≺governor order",
	Run: run,
}

func run(pass *lintkit.Pass) error {
	locals := lintkit.LocalFuncs(pass.Files, pass.TypesInfo)

	// Pass 1: per-function direct acquisitions (own Lock calls plus
	// imported facts of cross-package callees), then a fixed point
	// propagating through same-package calls.
	acquires := make(map[*types.Func]map[string]bool)
	calls := make(map[*types.Func][]*types.Func) // same-package call edges
	for fn, decl := range locals {
		set := make(map[string]bool)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if class, op := lockOp(pass.TypesInfo, call); class != "" && (op == "Lock" || op == "RLock") {
				set[class] = true
				return true
			}
			callee := lintkit.CalleeFunc(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			if _, local := locals[callee]; local {
				calls[fn] = append(calls[fn], callee)
			} else {
				var f LocksFact
				if pass.ImportObjectFact(callee, &f) {
					for _, c := range f.Classes {
						set[c] = true
					}
				}
			}
			return true
		})
		acquires[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			for _, callee := range callees {
				for c := range acquires[callee] {
					if !acquires[fn][c] {
						acquires[fn][c] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 2: held-set walk collecting edges with positions.
	type edgeSite struct {
		edge LockEdge
		pos  token.Pos
	}
	var sites []edgeSite
	addEdge := func(from, to string, pos token.Pos) {
		if from != to {
			sites = append(sites, edgeSite{LockEdge{from, to}, pos})
		}
	}
	// Walk declarations in file order so every site reports, and always
	// in the same sequence.
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
			}
		}
	}
	for _, decl := range decls {
		deferred := make(map[ast.Node]bool)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				deferred[d.Call] = true
			}
			return true
		})
		var held []string
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if class, op := lockOp(pass.TypesInfo, call); class != "" {
				switch op {
				case "Lock", "RLock":
					if !deferred[ast.Node(call)] {
						for _, h := range held {
							addEdge(h, class, call.Pos())
						}
						held = append(held, class)
					}
				case "Unlock", "RUnlock":
					// Deferred unlocks keep the class held to the end of
					// the source-order walk, which is what they mean.
					if !deferred[ast.Node(call)] {
						for i := len(held) - 1; i >= 0; i-- {
							if held[i] == class {
								held = append(held[:i], held[i+1:]...)
								break
							}
						}
					}
				}
				return true
			}
			if len(held) == 0 {
				return true
			}
			callee := lintkit.CalleeFunc(pass.TypesInfo, call)
			if callee == nil {
				return true
			}
			var classes []string
			if set, local := acquires[callee]; local || len(set) > 0 {
				for c := range set {
					classes = append(classes, c)
				}
			} else {
				var f LocksFact
				if pass.ImportObjectFact(callee, &f) {
					classes = f.Classes
				}
			}
			sort.Strings(classes)
			for _, c := range classes {
				for _, h := range held {
					addEdge(h, c, call.Pos())
				}
			}
			return true
		})
	}

	// Export facts: function summaries and the package's edges.
	for fn, set := range acquires {
		if len(set) == 0 {
			continue
		}
		var classes []string
		for c := range set {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		pass.ExportObjectFact(fn, &LocksFact{Classes: classes})
	}
	dedup := make(map[LockEdge]bool, len(sites))
	pkgEdges := make([]LockEdge, 0, len(sites))
	for _, s := range sites {
		if !dedup[s.edge] {
			dedup[s.edge] = true
			pkgEdges = append(pkgEdges, s.edge)
		}
	}
	sort.Slice(pkgEdges, func(i, j int) bool {
		if pkgEdges[i].From != pkgEdges[j].From {
			return pkgEdges[i].From < pkgEdges[j].From
		}
		return pkgEdges[i].To < pkgEdges[j].To
	})
	if len(pkgEdges) > 0 {
		pass.ExportPackageFact(&LockEdgesFact{Edges: pkgEdges})
	}

	// Pass 3: union the visible graph and report.
	graph := make(map[string][]string)
	add := func(e LockEdge) { graph[e.From] = append(graph[e.From], e.To) }
	for _, f := range pass.AllPackageFacts((*LockEdgesFact)(nil)) {
		for _, e := range f.(*LockEdgesFact).Edges {
			add(e)
		}
	}
	for _, e := range pkgEdges {
		add(e)
	}
	for _, s := range sites {
		if path := pathBetween(graph, s.edge.To, s.edge.From); path != nil {
			cycle := append([]string{s.edge.From}, path...)
			pass.Reportf(s.pos, "lock order cycle: %s", strings.Join(cycle, " → "))
		}
		fr, okF := canonicalRank(s.edge.From)
		tr, okT := canonicalRank(s.edge.To)
		if okF && okT && fr > tr {
			pass.Reportf(s.pos, "lock order inversion: %s acquired while holding %s; "+
				"the canonical order is registry ≺ lease ≺ governor", s.edge.To, s.edge.From)
		}
	}
	return nil
}

// lockOp recognizes a sync.Mutex/RWMutex Lock/RLock/Unlock/RUnlock call
// and names its lock class ("" when the mutex has no stable name).
func lockOp(info *types.Info, call *ast.CallExpr) (class, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isMutex(tv.Type) {
		return "", ""
	}
	return classify(info, sel.X), sel.Sel.Name
}

// classify names the mutex expression's lock class.
func classify(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		// recv.field: class is the field of the receiver's named type.
		tv, ok := info.Types[e.X]
		if !ok {
			return ""
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + e.Sel.Name
	case *ast.Ident:
		obj := info.ObjectOf(e)
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && !v.IsField() &&
			v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex (or pointer).
func isMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// pathBetween returns a path from → to in the graph (nil when
// unreachable), used to render the cycle through an edge.
func pathBetween(graph map[string][]string, from, to string) []string {
	visited := map[string]bool{from: true}
	type node struct {
		name string
		path []string
	}
	queue := []node{{from, []string{from}}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n.name == to {
			return n.path
		}
		next := append([]string(nil), graph[n.name]...)
		sort.Strings(next)
		for _, m := range next {
			if !visited[m] {
				visited[m] = true
				queue = append(queue, node{m, append(append([]string(nil), n.path...), m)})
			}
		}
	}
	return nil
}

// canonicalRank places the serving stack's well-known classes in the
// documented total order.  Classes are matched structurally (package
// basename + type) so the corpus can exercise the rule.
func canonicalRank(class string) (int, bool) {
	switch {
	case strings.Contains(class, "service.Registry."):
		return 0, true
	case strings.Contains(class, "dist.LeaseTable."):
		return 1, true
	case strings.Contains(class, "membudget."):
		return 2, true
	}
	return 0, false
}

package lintkit

import (
	"go/types"
	"reflect"
)

// The facts layer mirrors go/analysis Facts: an analyzer may attach a
// typed fact to a package-level object (function, method, type, var) or
// to a package as a whole, and analyzers running later — over packages
// that import the exporter — can read it back.  Facts are what turn the
// per-package analyzers into whole-program ones: budgetpair follows a
// governor through an exported helper because the helper's package
// exported a "calling me releases param 1" fact, and lockorder's
// acquisition-order graph is the union of every package's exported edge
// facts.
//
// One in-memory FactStore is threaded through the packages in
// import-dependency order (Run topo-sorts), so a fact exported from a
// package is visible when its importers are analyzed and facts never
// touch disk.
//
// A Fact implementation must be a pointer-to-struct.

// Fact is the marker interface for analyzer facts (go/analysis.Fact).
type Fact interface{ AFact() }

// factKey identifies one object fact: the object's stable path plus the
// fact's concrete type (one fact of each type per object).
type factKey struct {
	obj string
	typ reflect.Type
}

// pkgFactKey identifies one package fact.
type pkgFactKey struct {
	path string
	typ  reflect.Type
}

// FactStore holds every fact exported so far in the run.
type FactStore struct {
	objects map[factKey]Fact
	pkgs    map[pkgFactKey]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{
		objects: make(map[factKey]Fact),
		pkgs:    make(map[pkgFactKey]Fact),
	}
}

// ObjectKey renders the stable cross-package key for a package-level
// object: pkgpath::Name for plain objects, pkgpath::Recv.Name for
// methods.  Objects without a package (builtins, the blank identifier)
// have no key and take no facts.
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			rt := sig.Recv().Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				name = named.Obj().Name() + "." + name
			}
		}
	}
	return obj.Pkg().Path() + "::" + name
}

func (s *FactStore) exportObject(obj types.Object, f Fact) {
	key := ObjectKey(obj)
	if key == "" {
		return
	}
	s.objects[factKey{key, reflect.TypeOf(f)}] = f
}

// importObject copies a stored fact of f's type into f, reporting
// whether one existed.
func (s *FactStore) importObject(obj types.Object, f Fact) bool {
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	got, ok := s.objects[factKey{key, reflect.TypeOf(f)}]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

func (s *FactStore) exportPackage(path string, f Fact) {
	s.pkgs[pkgFactKey{path, reflect.TypeOf(f)}] = f
}

func (s *FactStore) importPackage(path string, f Fact) bool {
	got, ok := s.pkgs[pkgFactKey{path, reflect.TypeOf(f)}]
	if !ok {
		return false
	}
	reflect.ValueOf(f).Elem().Set(reflect.ValueOf(got).Elem())
	return true
}

// allPackageFacts returns every package fact whose concrete type
// matches example's, keyed by package path.  The returned facts are the
// stored pointers: treat them as read-only.
func (s *FactStore) allPackageFacts(example Fact) map[string]Fact {
	want := reflect.TypeOf(example)
	out := make(map[string]Fact)
	for k, f := range s.pkgs {
		if k.typ == want {
			out[k.path] = f
		}
	}
	return out
}

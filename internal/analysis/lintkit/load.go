package lintkit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A Package is one loaded, parsed, type-checked package ready for
// analysis.
type Package struct {
	ImportPath string
	Dir        string
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// canonicalImportPath maps "p [p.test]" and "p_test [p.test]" to "p"
// and "p_test"; plain paths pass through.
func canonicalImportPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		return path[:i]
	}
	return path
}

// listPackage is the subset of `go list -json` output the loader reads.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
	ForTest    string
	Error      *struct{ Err string }
}

// Load resolves the go-list patterns (e.g. "./...") relative to dir,
// parses the matched packages, and type-checks them against their
// dependencies' compiler export data.  It shells out to `go list -e
// -export -deps -json`, which works entirely from the local build
// cache — no module downloads — which is what lets the suite run in a
// network-isolated environment where golang.org/x/tools cannot be
// fetched.
//
// includeTests additionally loads each package's test-augmented variant
// (in-package _test.go files merged in, plus external _test packages);
// synthesized ".test" mains are always skipped.
func Load(dir string, patterns []string, includeTests bool) ([]*Package, *token.FileSet, error) {
	args := []string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,Name,Export,GoFiles,DepOnly,Standard,ForTest,Error"}
	if includeTests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lintkit: go list: %v\n%s", err, stderr.String())
	}

	exports := make(map[string]string) // import path -> export data file
	var targets []listPackage
	augmented := make(map[string]bool) // plain paths with a [pkg.test] twin
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lintkit: go list output: %v", err)
		}
		if p.Export != "" {
			// Test-augmented variants ("p [p.test]") must not shadow the
			// plain package's export data in the import resolution map.
			if _, dup := exports[p.ImportPath]; !dup && p.ForTest == "" {
				exports[p.ImportPath] = p.Export
			}
		}
		if p.DepOnly || p.Standard || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("lintkit: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.ForTest != "" && canonicalImportPath(p.ImportPath) == p.ForTest {
			// "p [p.test]" supersedes the plain "p" listed alongside it;
			// the external "p_test [p.test]" does not — a package whose
			// tests are all external has no augmented variant.
			augmented[p.ForTest] = true
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		targets = append(targets, p)
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lintkit: no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, p := range targets {
		if p.ForTest == "" && augmented[p.ImportPath] {
			continue // analyzed via its test-augmented variant instead
		}
		var files []*ast.File
		for _, gf := range p.GoFiles {
			name := gf
			if !filepath.IsAbs(name) {
				name = filepath.Join(p.Dir, gf)
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				return nil, nil, fmt.Errorf("lintkit: %v", err)
			}
			files = append(files, f)
		}
		info := newTypesInfo()
		conf := types.Config{Importer: imp}
		// Type-check under the canonical path: the types.Package of the
		// augmented variant reads "p", not "p [p.test]".
		tpkg, err := conf.Check(canonicalImportPath(p.ImportPath), fset, files, info)
		if err != nil {
			return nil, nil, fmt.Errorf("lintkit: type-checking %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: p.ImportPath,
			Dir:        p.Dir,
			Syntax:     files,
			Types:      tpkg,
			TypesInfo:  info,
		})
	}
	return pkgs, fset, nil
}

// newTypesInfo allocates the full set of type-checker result maps the
// analyzers consult.
func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

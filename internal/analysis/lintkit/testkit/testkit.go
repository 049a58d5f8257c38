// Package testkit is the suite's analysistest analogue: it loads a
// testdata package, runs one analyzer over it, and checks the reported
// diagnostics against `// want` expectations written next to the code
// that should trigger them:
//
//	gov.Charge(n) // want `has no matching Release`
//
// The backquoted (or double-quoted) string is an anchored-nowhere
// regexp matched against the diagnostic message; several expectations
// on one line mean several diagnostics on that line.  Diagnostics with
// no matching expectation, and expectations with no matching
// diagnostic, both fail the test.
package testkit

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis/lintkit"
)

// Run loads the package tree rooted at dir (typically
// filepath.Join("testdata", "src", "a")) and applies the analyzer,
// comparing findings with the packages' // want comments.  Loading
// "./..." rather than "." lets a corpus keep helper subpackages (e.g.
// budgetpair's testdata/src/a/gov) that the root package's cases call
// across a package boundary.
func Run(t *testing.T, dir string, a *lintkit.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("testkit: %v", err)
	}
	pkgs, fset, err := lintkit.Load(abs, []string{"./..."}, false)
	if err != nil {
		t.Fatalf("testkit: loading %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("testkit: no packages under %s", dir)
	}
	ds, err := lintkit.Run(fset, pkgs, []*lintkit.Analyzer{a})
	if err != nil {
		t.Fatalf("testkit: running %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, pkgs)
	matched := make([]bool, len(wants))
	for _, d := range ds {
		pos := fset.Position(d.Pos)
		ok := false
		for i, w := range wants {
			if matched[i] || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic at %s: %s (%s)", pos, d.Message, d.Analyzer)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
}

// collectWants parses the `// want` expectations out of every comment in
// the loaded packages.
func collectWants(t *testing.T, fset *token.FileSet, pkgs []*lintkit.Package) []want {
	t.Helper()
	var wants []want
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					wants = append(wants, parseWant(t, fset, c)...)
				}
			}
		}
	}
	return wants
}

// parseWant extracts zero or more expectations from one comment.
func parseWant(t *testing.T, fset *token.FileSet, c *ast.Comment) []want {
	t.Helper()
	text, ok := strings.CutPrefix(c.Text, "// want ")
	if !ok {
		return nil
	}
	pos := fset.Position(c.Pos())
	var wants []want
	rest := strings.TrimSpace(text)
	for rest != "" {
		var pat string
		var err error
		switch rest[0] {
		case '`':
			end := strings.IndexByte(rest[1:], '`')
			if end < 0 {
				t.Fatalf("%s: unterminated ` in want comment", pos)
			}
			pat, rest = rest[1:1+end], rest[2+end:]
		case '"':
			// strconv.Unquote needs the whole quoted token; find its end by
			// scanning for an unescaped closing quote.
			end := 1
			for end < len(rest) {
				if rest[end] == '\\' {
					end += 2
					continue
				}
				if rest[end] == '"' {
					break
				}
				end++
			}
			if end >= len(rest) {
				t.Fatalf("%s: unterminated \" in want comment", pos)
			}
			pat, err = strconv.Unquote(rest[:end+1])
			if err != nil {
				t.Fatalf("%s: bad want pattern: %v", pos, err)
			}
			rest = rest[end+1:]
		default:
			t.Fatalf("%s: want patterns must be `backquoted` or \"quoted\" (got %q)", pos, rest)
		}
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s: want pattern %q: %v", pos, pat, err)
		}
		wants = append(wants, want{file: pos.Filename, line: pos.Line, re: re})
		rest = strings.TrimSpace(rest)
	}
	return wants
}

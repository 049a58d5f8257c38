// Package lintkit is the repo's self-contained static-analysis
// framework: the subset of golang.org/x/tools/go/analysis that the
// repolint suite needs, rebuilt on the standard library's go/ast,
// go/parser, go/types and go/importer so the module keeps its
// zero-dependency contract.  The API deliberately mirrors go/analysis
// (Analyzer, Pass, Diagnostic, analysistest-style `// want` testdata via
// the sibling testkit package), so a future migration to the upstream
// framework is a mechanical import swap.
//
// Three pieces live here:
//
//   - the analyzer contract (this file): Analyzer, Pass, Diagnostic,
//     plus the shared //repro: directive and //nolint: suppression
//     parsing every analyzer and the runner agree on;
//   - the loader (load.go): type-checked packages from `go list -e
//     -export -deps -json` patterns, importing dependencies through
//     their compiler export data — no network, no out-of-module code;
//   - the runner (run.go): runs analyzers over loaded packages,
//     applies nolint suppressions, checks suppression hygiene, and
//     formats diagnostics.
package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //nolint:<name> suppressions.  Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description `repolint -list` prints.
	Doc string
	// Run applies the analyzer to one package and reports findings
	// through pass.Reportf.  A non-nil error aborts the whole run —
	// reserve it for internal failures, not findings.
	Run func(pass *Pass) error
}

// A Pass is one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned in the shared FileSet.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// ----------------------------------------------------------------------
// //repro: directives
// ----------------------------------------------------------------------

// HasDirective reports whether the comment group (typically a FuncDecl's
// Doc) contains the directive comment //repro:<name>.  Directive
// comments follow the Go toolchain's machine-readable form: no space
// after //, and anything after the name on the same line is free-text
// commentary.
func HasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	prefix := "//repro:" + name
	for _, c := range doc.List {
		if c.Text == prefix || strings.HasPrefix(c.Text, prefix+" ") {
			return true
		}
	}
	return false
}

// ----------------------------------------------------------------------
// //nolint: suppressions
// ----------------------------------------------------------------------

// A nolintComment is one parsed //nolint:name1,name2 reason comment.
type nolintComment struct {
	pos       token.Position // of the comment itself
	names     map[string]bool
	all       bool // //nolint:all
	hasReason bool
	// funcSpan, when set, extends the suppression to the whole span of
	// the function declaration the comment documents.
	spanStart, spanEnd int // line range covered (inclusive)
}

// parseNolint parses a single comment's text, returning nil when it is
// not a nolint comment.
func parseNolint(text string) (names map[string]bool, all, hasReason, ok bool) {
	const marker = "//nolint:"
	if !strings.HasPrefix(text, marker) {
		return nil, false, false, false
	}
	rest := text[len(marker):]
	// The analyzer list ends at the first space; everything after it is
	// the mandatory human-readable justification.
	list, reason, _ := strings.Cut(rest, " ")
	names = make(map[string]bool)
	for _, n := range strings.Split(list, ",") {
		n = strings.TrimSpace(n)
		if n == "all" {
			all = true
		} else if n != "" {
			names[n] = true
		}
	}
	return names, all, strings.TrimSpace(reason) != "", true
}

// suppressions indexes a file's nolint comments for the runner.
type suppressions struct {
	comments []nolintComment
}

// collectSuppressions parses every nolint comment in the file.  A
// trailing comment suppresses findings on its own line; a comment alone
// on its line additionally covers the next line, so a //nolint above a
// multi-line statement reaches the finding reported at the statement's
// first token; a comment that is part of a declaration's doc group
// suppresses findings in the whole declaration.
func collectSuppressions(fset *token.FileSet, f *ast.File) suppressions {
	var sup suppressions
	// Doc-comment suppressions cover their declaration's span.
	docSpan := make(map[*ast.Comment][2]int)
	for _, d := range f.Decls {
		var doc *ast.CommentGroup
		switch d := d.(type) {
		case *ast.FuncDecl:
			doc = d.Doc
		case *ast.GenDecl:
			doc = d.Doc
		}
		if doc == nil {
			continue
		}
		start := fset.Position(d.Pos()).Line
		end := fset.Position(d.End()).Line
		for _, c := range doc.List {
			docSpan[c] = [2]int{start, end}
		}
	}
	// Lines that start a code token, to tell a trailing comment (code
	// before it on the line — covers that line only) from an own-line
	// comment (covers the statement starting below it too).
	codeLines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.Comment, *ast.CommentGroup:
			return true
		}
		codeLines[fset.Position(n.Pos()).Line] = true
		if end := n.End(); end.IsValid() {
			codeLines[fset.Position(end-1).Line] = true
		}
		return true
	})
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			names, all, hasReason, ok := parseNolint(c.Text)
			if !ok {
				continue
			}
			pos := fset.Position(c.Pos())
			nc := nolintComment{
				pos: pos, names: names, all: all, hasReason: hasReason,
				spanStart: pos.Line, spanEnd: pos.Line,
			}
			if span, isDoc := docSpan[c]; isDoc {
				nc.spanStart, nc.spanEnd = span[0], span[1]
			} else if !codeLines[pos.Line] {
				nc.spanEnd = pos.Line + 1
			}
			sup.comments = append(sup.comments, nc)
		}
	}
	return sup
}

// suppresses reports whether a diagnostic from the named analyzer at the
// given line is covered.
func (s suppressions) suppresses(analyzer string, line int) bool {
	for _, c := range s.comments {
		if line < c.spanStart || line > c.spanEnd {
			continue
		}
		if c.all || c.names[analyzer] {
			return true
		}
	}
	return false
}

// hygiene returns diagnostics for malformed suppressions: every
// //nolint must carry a justification after the analyzer list.  The
// findings carry the pseudo-analyzer name "nolint" (suppressible only
// by fixing the comment).
func (s suppressions) hygiene(file *token.File) []Diagnostic {
	var ds []Diagnostic
	for _, c := range s.comments {
		if !c.hasReason {
			ds = append(ds, Diagnostic{
				Pos:      file.LineStart(c.pos.Line),
				Analyzer: "nolint",
				Message:  "//nolint needs a justification: write //nolint:<analyzers> <reason>",
			})
		}
	}
	return ds
}

// sortDiagnostics orders findings by file position, then analyzer.
func sortDiagnostics(fset *token.FileSet, ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		pi, pj := fset.Position(ds[i].Pos), fset.Position(ds[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return ds[i].Analyzer < ds[j].Analyzer
	})
}

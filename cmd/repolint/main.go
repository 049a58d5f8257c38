// Command repolint runs the repo's custom static-analysis suite (see
// internal/analysis): the mechanical enforcement of the memory-budget,
// cancellation, hot-path, cleanup-error, goroutine-join and row-lifecycle
// invariants the enumeration engine depends on.
//
//	repolint [-tests] [-list] [-audit] [patterns...]   # default pattern ./...
//
// exits 0 when clean, 2 when it reports findings, 1 on internal error.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis/lintkit"
	"repro/internal/analysis/repolint"
)

func main() {
	os.Exit(run())
}

func run() int {
	suite := repolint.Analyzers()
	tests := flag.Bool("tests", true, "also analyze _test.go files")
	list := flag.Bool("list", false, "print the analyzers in the suite and exit")
	audit := flag.Bool("audit", false,
		"list every //nolint suppression with its reason; exit nonzero on reasonless or unknown-analyzer suppressions")
	flag.Parse()

	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, fset, err := lintkit.Load(".", patterns, *tests)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 1
	}
	if *audit {
		sites, bad := lintkit.AuditNolints(fset, pkgs, suite)
		lintkit.FormatAudit(os.Stdout, sites)
		fmt.Fprintf(os.Stderr, "repolint: %d suppression(s), %d unhealthy\n", len(sites), bad)
		if bad > 0 {
			return 2
		}
		return 0
	}
	ds, err := lintkit.Run(fset, pkgs, suite)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repolint: %v\n", err)
		return 1
	}
	if len(ds) == 0 {
		return 0
	}
	lintkit.Format(os.Stdout, fset, ds)
	fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(ds))
	return 2
}

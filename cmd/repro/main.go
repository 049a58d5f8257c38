// Command repro regenerates the tables and figures of the paper's
// evaluation section, one experiment per artefact (internal/expt names
// the function behind each; DESIGN.md §9 lists what each reproduces).
//
// Usage:
//
//	repro [flags] <experiment>
//
// Experiments:
//
//	maxclique  Section 3: maximum clique sizes of graphs A, B, C
//	table1     Table 1: Kose RAM vs the sequential Clique Enumerator
//	fig5       Figure 5: run time vs processors per Init_K
//	fig6       Figure 6: absolute and relative speedup
//	fig7       Figure 7: 256-processor speedup vs sequential run time
//	fig8       Figure 8: per-processor load balance
//	fig9       Figure 9: memory per clique size
//	blowup     Section 3: graph B exhausting a memory budget
//	all        every one of the above
//
// Flags:
//
//	-scale f   graph scale in (0,1]; 1 = the paper's exact sizes (default 0.85)
//	-seed n    RNG seed (default 1)
//	-reps n    repetitions for mean±stddev experiments (default 10)
//	-budget n  byte budget for the blow-up experiment (default 1 GiB)
//	-timeout d abort the experiment after this duration (default none)
//
// Figures 5-8 replay counted work on a model of the paper's Altix
// (internal/simarch) and print the paper's seconds: Init_K=3 runs in its
// 1,948 s in Figures 6-7 and Init_K=ω-10 in its 343 s in Figures 5 and 8,
// plus seed and overheads, and the same flags print the same table on
// any host.  Table 1 is a wall-clock race on this
// host, and Figure 8's goroutine row is measured here, in host seconds.
//
// The default scale 0.85 keeps the largest experiment (the Init_K=3
// sweep of Figures 6-7) within workstation memory and minutes of run
// time; -scale 1 reproduces the paper's exact graph sizes and needs
// several GB of RAM and patience.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/expt"
)

func main() {
	scale := flag.Float64("scale", 0.85, "graph scale in (0,1]; 1 = paper scale")
	seed := flag.Int64("seed", 1, "RNG seed")
	reps := flag.Int("reps", 10, "repetitions for mean±stddev experiments")
	budget := flag.Int64("budget", 1<<30, "byte budget for the blow-up experiment")
	timeout := flag.Duration("timeout", 0, "abort the experiment after this duration (0 = none)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: repro [flags] <maxclique|table1|fig5|fig6|fig7|fig8|fig9|blowup|all>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// Ctrl-C and -timeout cancel the enumeration phases between levels;
	// a second Ctrl-C kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := expt.Config{Ctx: ctx, Scale: *scale, Seed: *seed, Reps: *reps, Budget: *budget}

	if err := run(flag.Arg(0), cfg); err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "repro: experiment canceled (%v); partial tables above are valid\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
}

// all is every experiment, in the order "all" prints them.
var all = []string{"maxclique", "table1", "fig5", "fig8", "fig9", "blowup", "fig6", "fig7"}

// run prints one experiment's table, or every one's for "all".  A table
// an experiment returns beside its error is printed too.
func run(name string, cfg expt.Config) error {
	names := []string{name}
	if name == "all" {
		names = all
	}
	var fam *expt.Family
	for _, sub := range names {
		if name == "all" {
			fmt.Printf("--- %s ---\n", sub)
		}
		if sub == "fig6" && name == "all" {
			// Figures 6 and 7 share the expensive Init_K=3 trace; collect it once.
			var err error
			if fam, err = expt.ScalingFamily(cfg); err != nil {
				return fmt.Errorf("%s: %w", sub, err)
			}
		}
		t, err := table(sub, cfg, fam)
		if t != nil {
			if perr := t.Fprint(os.Stdout); err == nil {
				err = perr
			}
		}
		if err != nil && name == "all" {
			err = fmt.Errorf("%s: %w", sub, err)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// table runs one experiment; Figures 6 and 7 collect their own family
// when fam is nil.
func table(name string, cfg expt.Config, fam *expt.Family) (*expt.Table, error) {
	switch name {
	case "maxclique":
		return expt.MaxCliqueBounds(cfg)
	case "table1":
		res, err := expt.Table1(cfg)
		if err != nil {
			return nil, err
		}
		return res.Table, nil
	case "fig5":
		return expt.Fig5(cfg)
	case "fig6":
		return expt.Fig6(cfg, fam)
	case "fig7":
		return expt.Fig7(cfg, fam)
	case "fig8":
		return expt.Fig8(cfg)
	case "fig9":
		return expt.Fig9(cfg)
	case "blowup":
		res, err := expt.Blowup(cfg)
		if err != nil {
			return nil, err
		}
		return res.Table, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}

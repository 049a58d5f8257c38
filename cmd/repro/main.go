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

func run(name string, cfg expt.Config) error {
	switch name {
	case "maxclique":
		t, err := expt.MaxCliqueBounds(cfg)
		if t != nil {
			if perr := t.Fprint(os.Stdout); err == nil {
				err = perr
			}
		}
		return err
	case "table1":
		res, err := expt.Table1(cfg)
		if err != nil {
			return err
		}
		return res.Table.Fprint(os.Stdout)
	case "fig5":
		t, err := expt.Fig5(cfg)
		if err != nil {
			return err
		}
		return t.Fprint(os.Stdout)
	case "fig6", "fig7":
		fam, err := scalingFamily(cfg)
		if err != nil {
			return err
		}
		if name == "fig6" {
			t, err := expt.Fig6(cfg, fam)
			if err != nil {
				return err
			}
			return t.Fprint(os.Stdout)
		}
		t, err := expt.Fig7(cfg, fam)
		if err != nil {
			return err
		}
		return t.Fprint(os.Stdout)
	case "fig8":
		t, err := expt.Fig8(cfg)
		if err != nil {
			return err
		}
		return t.Fprint(os.Stdout)
	case "fig9":
		t, err := expt.Fig9(cfg)
		if err != nil {
			return err
		}
		return t.Fprint(os.Stdout)
	case "blowup":
		res, err := expt.Blowup(cfg)
		if err != nil {
			return err
		}
		return res.Table.Fprint(os.Stdout)
	case "all":
		for _, sub := range []string{"maxclique", "table1", "fig5", "fig8", "fig9", "blowup"} {
			fmt.Printf("--- %s ---\n", sub)
			if err := run(sub, cfg); err != nil {
				return fmt.Errorf("%s: %w", sub, err)
			}
		}
		// Figures 6 and 7 share the expensive Init_K=3 trace; collect it once.
		fam, err := scalingFamily(cfg)
		if err != nil {
			return err
		}
		fmt.Println("--- fig6 ---")
		t6, err := expt.Fig6(cfg, fam)
		if err != nil {
			return err
		}
		if err := t6.Fprint(os.Stdout); err != nil {
			return err
		}
		fmt.Println("--- fig7 ---")
		t7, err := expt.Fig7(cfg, fam)
		if err != nil {
			return err
		}
		return t7.Fprint(os.Stdout)
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

// scalingFamily collects the shared Figure 6/7 traces once.
func scalingFamily(cfg expt.Config) (*expt.Family, error) {
	spec := expt.SpecC.Scale(scaleOf(cfg))
	iks := []int{3, spec.Omega - 10, spec.Omega - 9, spec.Omega - 8}
	for i := range iks {
		if iks[i] < 3 {
			iks[i] = 3
		}
	}
	// Deduplicate (tiny scales clamp the ladder onto 3).
	uniq := iks[:0]
	seen := map[int]bool{}
	for _, ik := range iks {
		if !seen[ik] {
			seen[ik] = true
			uniq = append(uniq, ik)
		}
	}
	return expt.CollectFamily(cfg, uniq)
}

func scaleOf(cfg expt.Config) float64 {
	if cfg.Scale == 0 {
		return 1
	}
	return cfg.Scale
}

// Command spibench regenerates the paper's tables and figures from the
// simulated platform. With no flags it prints everything; -exp selects one
// experiment by its name in experiments.Experiments (-h lists them); -dot
// prints the Graphviz form of the synchronization-graph figures.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/lpc"
	"repro/internal/particle"
	"repro/internal/spi"
)

// errUnknown names an experiment that does not exist, which exits 2.
var errUnknown = errors.New("unknown experiment")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spibench:", err)
		if errors.Is(err, errUnknown) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run parses args and writes the selected artifact to w.
func run(args []string, w io.Writer) error {
	names := []string{"all"}
	for _, e := range experiments.Experiments {
		names = append(names, e.Name)
	}
	fs := flag.NewFlagSet("spibench", flag.ExitOnError)
	exp := fs.String("exp", "all", "experiment to run: "+strings.Join(names, ", "))
	dot := fs.Bool("dot", false, "print Graphviz DOT for fig3/fig5 instead of tables")
	gantt := fs.Bool("gantt", false, "print a Gantt timeline of the 3-PE actor-D deployment")
	tree := fs.Bool("tree", false, "print the HDL module hierarchies behind tables 1 and 2")
	fs.Parse(args)

	switch {
	case *tree:
		return printTrees(w)
	case *gantt:
		return printGantt(w)
	case *dot:
		dots, err := experiments.SyncFigureDOT()
		for _, d := range dots {
			fmt.Fprintln(w, d)
		}
		return err
	}

	if *exp == "all" {
		tables, err := experiments.All()
		if err != nil {
			return err
		}
		for _, t := range tables {
			fmt.Fprintln(w, t)
		}
		return nil
	}
	for _, e := range experiments.Experiments {
		if e.Name == *exp {
			t, err := e.Run()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, t)
			return nil
		}
	}
	return fmt.Errorf("%w %q (one of %s)", errUnknown, *exp, strings.Join(names, ", "))
}

// printTrees prints the synthesis-style module hierarchy reports of the
// two hardware models.
func printTrees(w io.Writer) error {
	top1, err := lpc.HardwareModel(lpc.DefaultDeploy(512, 4))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 1 hierarchy (Fmax %.0f MHz):\n%s\n", top1.FmaxMHz(), top1.Report())
	top2, err := particle.HardwareModel(particle.DefaultDeploy(300, 2))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 2 hierarchy (Fmax %.0f MHz):\n%s", top2.FmaxMHz(), top2.Report())
	return nil
}

// printGantt runs a short 3-PE actor-D deployment with tracing and renders
// the per-PE timeline ('#' compute, '>' send, '<' recv, '.' idle).
func printGantt(w io.Writer) error {
	sys, err := lpc.ErrorGenSystem(lpc.DefaultDeploy(256, 3))
	if err != nil {
		return err
	}
	dep, err := spi.Build(sys)
	if err != nil {
		return err
	}
	dep.Sim.EnableTrace()
	st, err := dep.Sim.Run(4)
	if err != nil {
		return err
	}
	cfg := dep.Sim.Config()
	fmt.Fprintf(w, "3-PE actor D (N=256), 4 frames, %.1f us total\n",
		st.Microseconds(cfg, st.Finish))
	fmt.Fprint(w, dep.Sim.LastTrace().Gantt(cfg.NumPEs, 100))
	return nil
}

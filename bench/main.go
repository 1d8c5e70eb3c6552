// Command bench is the repository's benchmark: seven closed-loop
// application workloads driven in-process through the same public calls
// the CLIs make, every output verified against its reference. README.md
// in this directory explains the metrics and how to read them.
//
// bench/ is a module of its own (BENCHMARK.json names it as the
// benchmark's only path), so it is built from inside it; run.sh does
// that and passes its arguments on. From the repository root:
//
//	bash bench/run.sh                                  every workload, one child process per run
//	bash bench/run.sh -workload pf_chan -seconds 14    one workload in this process: the end-to-end metrics
//	bash bench/run.sh -workload pf_chan -trace 1       its per-layer metrics, ladder and trace file
//	bash bench/run.sh -compare old.json new.json       verdict per workload and metric
//	bash bench/run.sh -selfcheck                       two sets back to back must agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process and print its result line (default: all of them, one child process per run)")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for signal.Speech, signal.CrackObservations and demo.Kernels; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 14, "length of one run's timed window")
	trace := flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics with tracing off; 1 measures the per-layer metrics, runs the ladder and writes bench/out/<workload>.trace.json")
	flag.Float64Var(&cfg.scale, "scale", 1, "multiply the frozen per-round unit counts (the smoke test uses 0.01)")
	flag.StringVar(&cfg.outDir, "out", "bench/out", "directory for trace files and shm segments")
	reps := flag.Int("reps", 3, "untraced repetitions per workload in a full set")
	jsonOut := flag.String("json", "", "write the full set, every repetition, to this file")
	doCompare := flag.Bool("compare", false, "compare two -json files: bench -compare old.json new.json; exit 1 on any worse metric or any rise in failed units")
	doSelfcheck := flag.Bool("selfcheck", false, "run two full sets back to back and fail if any end-to-end metric's medians disagree beyond its bound; -json keeps the first set")
	flag.Parse()
	cfg.trace = *trace != 0
	cfg.log = os.Stderr

	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	keep := func(s *suite) {
		if *jsonOut != "" {
			if err := s.write(*jsonOut); err != nil {
				fatal(err)
			}
		}
	}
	switch {
	case *doCompare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		old, err := readSuite(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		new, err := readSuite(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if compare(os.Stdout, old, new) {
			os.Exit(1)
		}

	case *doSelfcheck:
		first, ok, err := selfcheck(cfg, max(*reps, minReps), os.Stdout)
		if err != nil {
			fatal(err)
		}
		keep(first)
		if !ok {
			fatal(fmt.Errorf("selfcheck: two sets of the same code disagree beyond a bound"))
		}

	case cfg.workload == "":
		s, err := runSuite(cfg, *reps, false)
		if err != nil {
			fatal(err)
		}
		keep(s)
		s.print(os.Stdout)
		if s.failedShare() > 0 {
			fatal(fmt.Errorf("an output check failed"))
		}

	default:
		res, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	}
}

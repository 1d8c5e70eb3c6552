// Command spigraph analyzes SPI dataflow systems: repetitions vectors,
// schedules, VTS conversion and buffer bounds, and the synchronization-
// graph optimization pipeline.
//
//	spigraph -graph fig1   # the paper's VTS example
//	spigraph -graph app1      # the n-PE actor D system
//	spigraph -graph app1full  # the whole codec on n PEs
//	spigraph -graph app2      # the n-PE particle filter system
//
// The wire-level resynchronization verdict — which interprocessor UBS
// acks a distributed deployment suppresses, and the covering path that
// proves each one redundant:
//
//	spigraph -graph app1 -resync
//	spigraph -file pipeline.sdf -assign 0,1,1 -resync
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/cmd/internal/runcfg"
	"repro/internal/dataflow"
	"repro/internal/demo"
	"repro/internal/lpc"
	"repro/internal/particle"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/vts"
)

// newFlagSet declares spigraph's flags; the analysis switches land in the
// package-level variables below.
func newFlagSet(graph, file *string, assign *[]int, pes *int) *flag.FlagSet {
	fs := flag.NewFlagSet("spigraph", flag.ExitOnError)
	fs.StringVar(graph, "graph", "fig1", "graph to analyze: fig1, app1, app1full, app2")
	fs.StringVar(file, "file", "", "load a graph description file instead of a built-in graph")
	fs.Func("assign", "with -file: comma-separated processor index per actor, building the mapping -resync analyzes", runcfg.IntsVar(assign))
	fs.IntVar(pes, "pes", 3, "PE count for app graphs")
	fs.BoolVar(&emitDOT, "dot", false, "print the graph in Graphviz DOT format instead of the analysis")
	fs.BoolVar(&resyncWire, "resync", false, "emit the wire-level ack-suppression verdict: per-edge suppress/keep with covering-path witnesses (needs a mapping: app1, app1full, app2, or -file with -assign)")
	fs.IntVar(&fissionK, "fission", 0,
		"rewrite the heaviest fissionable actor (or -fission-actor) into k replicas behind scatter/gather stages and print the plan; -1 chooses k and the block factor jointly under -fission-mem (0 = off)")
	fs.StringVar(&fissionActor, "fission-actor", "",
		"with -fission: name of the actor to fission (default: the heaviest fissionable one)")
	fs.Int64Var(&fissionMem, "fission-mem", 0,
		"with -fission: buffer-memory bound in bytes for the joint (k, block) selection (0 = unbounded)")
	return fs
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spigraph:", err)
		os.Exit(1)
	}
}

// run parses args and writes the requested analysis to w.
func run(args []string, w io.Writer) error {
	var (
		graph, file string
		assign      []int
		pes         int
	)
	newFlagSet(&graph, &file, &assign, &pes).Parse(args)

	var err error
	switch {
	case file != "":
		err = analyzeFile(w, file, assign)
	case graph == "fig1":
		err = analyzeFig1(w)
	case graph == "app1full":
		err = analyzeSystem(w, func() (*spi.System, error) { return lpc.CodecSystem(lpc.DefaultParams(), pes) })
	case graph == "app1":
		err = analyzeSystem(w, func() (*spi.System, error) { return lpc.ErrorGenSystem(lpc.DefaultDeploy(256, pes)) })
	case graph == "app2":
		// The figures' filter: 150 particles per PE (300 on fig. 5's 2 PEs).
		n := pes
		if n < 1 {
			n = 2
		}
		err = analyzeSystem(w, func() (*spi.System, error) {
			return particle.FilterSystem(particle.DefaultDeploy(150*n, n), nil)
		})
	default:
		err = fmt.Errorf("unknown graph %q", graph)
	}
	return err
}

// emitDOT switches printVTS-style analyses to Graphviz output; resyncWire
// appends the wire-level ack-suppression verdict where a mapping exists;
// fissionK/fissionActor/fissionMem drive the -fission plan printout.
var (
	emitDOT      bool
	resyncWire   bool
	fissionK     int
	fissionActor string
	fissionMem   int64
)

// printFission rewrites the requested actor into replicas and renders the
// plan: the chosen (k, block) point with its memory bound, the per-replica
// scatter/gather rates, and the rewritten graph with its analysis — so a
// deployment can be inspected before anything runs.
func printFission(w io.Writer, g *dataflow.Graph) error {
	target, err := runcfg.FissionTarget(g, fissionActor)
	if err != nil {
		return err
	}
	opts := dataflow.FissionOptions{MemBound: fissionMem}
	if fissionK > 0 {
		opts.K = fissionK
	}
	plan, err := dataflow.Fission(g, target, opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, plan)
	for _, eid := range g.In(target) {
		e := g.Edge(eid)
		fmt.Fprintf(w, "  scatter in  %-10s %d tokens/iter x %d bytes, broadcast\n",
			e.Name, plan.InTokens[eid], e.TokenBytes)
		for _, sid := range plan.ScatterEdges[eid] {
			se := plan.Graph.Edge(sid)
			fmt.Fprintf(w, "    %-20s -> %-12s bound %d tokens\n",
				se.Name, plan.Graph.Actor(se.Snk).Name, se.Produce.Rate)
		}
	}
	for _, eid := range g.Out(target) {
		e := g.Edge(eid)
		counts := dataflow.SplitCounts(int(plan.OutTokens[eid]), plan.K)
		fmt.Fprintf(w, "  gather out  %-10s %d tokens/iter x %d bytes, split %v\n",
			e.Name, plan.OutTokens[eid], e.TokenBytes, counts)
		for _, gid := range plan.GatherEdges[eid] {
			ge := plan.Graph.Edge(gid)
			fmt.Fprintf(w, "    %-20s <- %-12s bound %d tokens\n",
				ge.Name, plan.Graph.Actor(ge.Src).Name, ge.Produce.Rate)
		}
	}
	fmt.Fprintln(w, "rewritten graph:")
	fmt.Fprint(w, plan.Graph)
	return printVTS(w, plan.Graph)
}

func analyzeFile(w io.Writer, path string, assign []int) error {
	g, err := runcfg.LoadGraph(path)
	if err != nil {
		return err
	}
	if emitDOT {
		fmt.Fprint(w, g.DOT())
		return nil
	}
	fmt.Fprint(w, g)
	if err := printVTS(w, g); err != nil {
		return err
	}
	if fissionK != 0 {
		if err := printFission(w, g); err != nil {
			return err
		}
	}
	if !resyncWire {
		return nil
	}
	if assign == nil {
		return fmt.Errorf("-resync with -file needs -assign to define the mapping")
	}
	m, err := demo.Mapping(g, assign)
	if err != nil {
		return err
	}
	plan, err := spi.ResyncSuppression(g, m)
	if err != nil {
		return err
	}
	printResyncWire(w, g, m, plan)
	return nil
}

// printResyncWire renders the spi.ResyncSuppression plan as it lands on the
// wire: a suppress/keep/bbs row per interprocessor edge, then the ID set.
func printResyncWire(w io.Writer, g *dataflow.Graph, m *sched.Mapping, plan *spi.ResyncPlan) {
	fmt.Fprintf(w, "resync wire verdict: %d of %d ack feedback edge(s) carry no message (%d suppressed, %d BBS), %d surviving\n",
		plan.Silent(), plan.AckFeedback, len(plan.Suppressed), len(plan.BBS), plan.AckSurviving)
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		if m.Proc[e.Src] == m.Proc[e.Snk] {
			continue
		}
		if witness, ok := plan.Suppressed[eid]; ok {
			fmt.Fprintf(w, "  edge %-3d %-12s suppress  via %s\n", eid, e.Name, witness)
		} else if plan.BBS[eid] {
			fmt.Fprintf(w, "  edge %-3d %-12s bbs       sends no ack\n", eid, e.Name)
		} else {
			fmt.Fprintf(w, "  edge %-3d %-12s keep\n", eid, e.Name)
		}
	}
	fmt.Fprintf(w, "wire suppression set: %v\n", plan.SuppressedIDs())
}

func analyzeFig1(w io.Writer) error {
	g := dataflow.New("fig1")
	a := g.AddActor("A", 10)
	b := g.AddActor("B", 10)
	g.AddEdge("ab", a, b, 10, 8, dataflow.EdgeSpec{
		ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 2,
	})
	g.AddEdge("ba", b, a, 1, 1, dataflow.EdgeSpec{Delay: 2})
	if emitDOT {
		fmt.Fprint(w, g.DOT())
		return nil
	}
	fmt.Fprint(w, g)
	return printVTS(w, g)
}

func printVTS(w io.Writer, g *dataflow.Graph) error {
	conv, err := vts.Convert(g)
	if err != nil {
		return err
	}
	q, err := conv.Graph.RepetitionsVector()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "repetitions vector: %v\n", q)
	sched, err := conv.Graph.FindPASS()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "PASS (%d firings):", len(sched))
	for _, a := range sched {
		fmt.Fprintf(w, " %s", conv.Graph.Actor(a).Name)
	}
	fmt.Fprintln(w)
	bounds, err := vts.ComputeBounds(conv)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "VTS bounds per edge:")
	for _, b := range bounds {
		e := conv.Graph.Edge(b.Edge)
		proto := "SPI_BBS"
		if !b.Bounded {
			proto = "SPI_UBS (no static bound)"
		}
		fmt.Fprintf(w, "  %-10s b_max=%-6d c_sdf=%-3d c(e)=%-6d Gamma=%-3d B(e)=%-6d %s\n",
			e.Name, b.BMax, b.CSDF, b.CE, b.Gamma, b.IPC, proto)
	}
	total, unbounded := vts.TotalBoundedMemory(bounds)
	fmt.Fprintf(w, "total bounded buffer memory: %d bytes (%d UBS edges)\n", total, unbounded)
	return nil
}

func analyzeSystem(w io.Writer, build func() (*spi.System, error)) error {
	sys, err := build()
	if err != nil {
		return err
	}
	g, m := sys.Graph, sys.Mapping
	if emitDOT {
		fmt.Fprint(w, g.DOT())
		return nil
	}
	fmt.Fprint(w, g)
	if err := printVTS(w, g); err != nil {
		return err
	}
	if fissionK != 0 {
		if err := printFission(w, g); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "mapping: %d processors, %d interprocessor edges\n",
		m.NumProcs, len(m.InterprocessorEdges(g)))
	plan, err := spi.ResyncSuppression(g, m)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, plan.Report)
	if resyncWire {
		printResyncWire(w, g, m, plan)
	}
	res, err := sched.SelfTimed(g, m, sched.SelfTimedConfig{Iterations: 20, Warmup: 5})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "self-timed analysis: steady period %.1f cycles, finish %d cycles over 20 iterations\n",
		res.Period, res.Finish)
	return nil
}

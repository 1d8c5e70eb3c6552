// Command spigraph analyzes SPI dataflow systems: repetitions vectors,
// schedules, VTS conversion and buffer bounds, and the synchronization-
// graph optimization pipeline.
//
//	spigraph -graph fig1   # the paper's VTS example
//	spigraph -graph app1   # the n-PE actor D system
//	spigraph -graph app2   # the 2-PE particle filter system
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
	"os"

	"repro/cmd/internal/runcfg"
	"repro/internal/dataflow"
	"repro/internal/demo"
	"repro/internal/lpc"
	"repro/internal/particle"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/syncgraph"
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
	fs.BoolVar(&resyncWire, "resync", false, "emit the wire-level ack-suppression verdict: per-edge suppress/keep with covering-path witnesses (needs a mapping: app1, app2, or -file with -assign)")
	fs.IntVar(&fissionK, "fission", 0,
		"rewrite the heaviest fissionable actor (or -fission-actor) into k replicas behind scatter/gather stages and print the plan; -1 chooses k and the block factor jointly under -fission-mem (0 = off)")
	fs.StringVar(&fissionActor, "fission-actor", "",
		"with -fission: name of the actor to fission (default: the heaviest fissionable one)")
	fs.Int64Var(&fissionMem, "fission-mem", 0,
		"with -fission: buffer-memory bound in bytes for the joint (k, block) selection (0 = unbounded)")
	return fs
}

func main() {
	var (
		graph, file string
		assign      []int
		pes         int
	)
	newFlagSet(&graph, &file, &assign, &pes).Parse(os.Args[1:])

	var err error
	switch {
	case file != "":
		err = analyzeFile(file, assign)
	case graph == "fig1":
		err = analyzeFig1()
	case graph == "app1full":
		err = analyzeFullApp1()
	case graph == "app1":
		err = analyzeSystem(func() (g *dataflow.Graph, m *sched.Mapping, err error) {
			sys, err := lpc.ErrorGenSystem(lpc.DefaultDeploy(256, pes))
			if err != nil {
				return nil, nil, err
			}
			return sys.Graph, sys.Mapping, nil
		})
	case graph == "app2":
		err = analyzeSystem(func() (g *dataflow.Graph, m *sched.Mapping, err error) {
			n := pes
			if n < 1 {
				n = 2
			}
			sys, err := particle.FilterSystem(particle.DefaultDeploy(200*n, n), nil)
			if err != nil {
				return nil, nil, err
			}
			return sys.Graph, sys.Mapping, nil
		})
	default:
		err = fmt.Errorf("unknown graph %q", graph)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spigraph:", err)
		os.Exit(1)
	}
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
func printFission(g *dataflow.Graph) error {
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
	fmt.Println(plan)
	for _, eid := range g.In(target) {
		e := g.Edge(eid)
		fmt.Printf("  scatter in  %-10s %d tokens/iter x %d bytes, broadcast\n",
			e.Name, plan.InTokens[eid], e.TokenBytes)
		for _, sid := range plan.ScatterEdges[eid] {
			se := plan.Graph.Edge(sid)
			fmt.Printf("    %-20s -> %-12s bound %d tokens\n",
				se.Name, plan.Graph.Actor(se.Snk).Name, se.Produce.Rate)
		}
	}
	for _, eid := range g.Out(target) {
		e := g.Edge(eid)
		counts := dataflow.SplitCounts(int(plan.OutTokens[eid]), plan.K)
		fmt.Printf("  gather out  %-10s %d tokens/iter x %d bytes, split %v\n",
			e.Name, plan.OutTokens[eid], e.TokenBytes, counts)
		for _, gid := range plan.GatherEdges[eid] {
			ge := plan.Graph.Edge(gid)
			fmt.Printf("    %-20s <- %-12s bound %d tokens\n",
				ge.Name, plan.Graph.Actor(ge.Src).Name, ge.Produce.Rate)
		}
	}
	fmt.Println("rewritten graph:")
	fmt.Print(plan.Graph)
	return printVTS(plan.Graph)
}

func analyzeFile(path string, assign []int) error {
	g, err := runcfg.LoadGraph(path)
	if err != nil {
		return err
	}
	if emitDOT {
		fmt.Print(g.DOT())
		return nil
	}
	fmt.Print(g)
	if err := printVTS(g); err != nil {
		return err
	}
	if fissionK != 0 {
		if err := printFission(g); err != nil {
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
	return printResyncWire(g, m)
}

// printResyncWire renders spi.ResyncSuppression as it lands on the wire:
// one row per interprocessor edge, suppress or keep, with the covering
// path that justifies each suppression, then the suppressed ID set.
func printResyncWire(g *dataflow.Graph, m *sched.Mapping) error {
	plan, err := spi.ResyncSuppression(g, m)
	if err != nil {
		return err
	}
	fmt.Printf("resync wire verdict: %d ack feedback edge(s), %d suppressed, %d surviving\n",
		plan.AckFeedback, len(plan.Suppressed), plan.AckSurviving)
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		if m.Proc[e.Src] == m.Proc[e.Snk] {
			continue
		}
		if witness, ok := plan.Suppressed[eid]; ok {
			fmt.Printf("  edge %-3d %-12s suppress  via %s\n", eid, e.Name, witness)
		} else {
			fmt.Printf("  edge %-3d %-12s keep\n", eid, e.Name)
		}
	}
	fmt.Printf("wire suppression set: %v\n", plan.SuppressedIDs())
	return nil
}

// analyzeFullApp1 analyzes the five-actor application-1 pipeline of the
// paper's figure 2, including its looped single-appearance schedule.
func analyzeFullApp1() error {
	g, err := lpc.FullGraph(lpc.DefaultParams())
	if err != nil {
		return err
	}
	fmt.Print(g)
	if err := printVTS(g); err != nil {
		return err
	}
	sas, err := sched.SingleAppearanceSchedule(g)
	if err != nil {
		return err
	}
	mem, err := sched.SASBufferMemory(g, sas)
	if err != nil {
		return err
	}
	fmt.Printf("single-appearance schedule: %s (buffer memory %d bytes)\n", sas.Notation(g), mem)
	return nil
}

func analyzeFig1() error {
	g := dataflow.New("fig1")
	a := g.AddActor("A", 10)
	b := g.AddActor("B", 10)
	g.AddEdge("ab", a, b, 10, 8, dataflow.EdgeSpec{
		ProduceDynamic: true, ConsumeDynamic: true, TokenBytes: 2,
	})
	g.AddEdge("ba", b, a, 1, 1, dataflow.EdgeSpec{Delay: 2})
	if emitDOT {
		fmt.Print(g.DOT())
		return nil
	}
	fmt.Print(g)
	return printVTS(g)
}

func printVTS(g *dataflow.Graph) error {
	conv, err := vts.Convert(g)
	if err != nil {
		return err
	}
	q, err := conv.Graph.RepetitionsVector()
	if err != nil {
		return err
	}
	fmt.Printf("repetitions vector: %v\n", q)
	sched, err := conv.Graph.FindPASS()
	if err != nil {
		return err
	}
	fmt.Printf("PASS (%d firings):", len(sched))
	for _, a := range sched {
		fmt.Printf(" %s", conv.Graph.Actor(a).Name)
	}
	fmt.Println()
	bounds, err := vts.ComputeBounds(conv)
	if err != nil {
		return err
	}
	fmt.Println("VTS bounds per edge:")
	for _, b := range bounds {
		e := conv.Graph.Edge(b.Edge)
		proto := "SPI_BBS"
		if !b.Bounded {
			proto = "SPI_UBS (no static bound)"
		}
		fmt.Printf("  %-10s b_max=%-6d c_sdf=%-3d c(e)=%-6d Gamma=%-3d B(e)=%-6d %s\n",
			e.Name, b.BMax, b.CSDF, b.CE, b.Gamma, b.IPC, proto)
	}
	total, unbounded := vts.TotalBoundedMemory(bounds)
	fmt.Printf("total bounded buffer memory: %d bytes (%d UBS edges)\n", total, unbounded)
	return nil
}

func analyzeSystem(build func() (*dataflow.Graph, *sched.Mapping, error)) error {
	g, m, err := build()
	if err != nil {
		return err
	}
	if emitDOT {
		fmt.Print(g.DOT())
		return nil
	}
	fmt.Print(g)
	if err := printVTS(g); err != nil {
		return err
	}
	if fissionK != 0 {
		if err := printFission(g); err != nil {
			return err
		}
	}
	fmt.Printf("mapping: %d processors, %d interprocessor edges\n",
		m.NumProcs, len(m.InterprocessorEdges(g)))
	ipc, err := syncgraph.BuildIPCGraph(g, m)
	if err != nil {
		return err
	}
	sg := syncgraph.SynchronizationGraph(ipc)
	syncgraph.AddAllFeedback(sg, 1)
	rep := syncgraph.Resynchronize(sg)
	fmt.Println(rep)
	if resyncWire {
		if err := printResyncWire(g, m); err != nil {
			return err
		}
	}
	res, err := sched.SelfTimed(g, m, sched.SelfTimedConfig{Iterations: 20, Warmup: 5})
	if err != nil {
		return err
	}
	fmt.Printf("self-timed analysis: steady period %.1f cycles, finish %d cycles over 20 iterations\n",
		res.Period, res.Finish)
	return nil
}

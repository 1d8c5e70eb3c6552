package experiments

import (
	"testing"

	"repro/internal/dataflow"
	"repro/internal/sched"
	"repro/internal/spi"
	"repro/internal/vts"
)

// TestRandomGraphStress drives the full compile-run chain over a population
// of generated graphs: every consistent, live SDF graph must survive VTS
// conversion, scheduling (both heuristics), synchronization optimization,
// SPI lowering, and platform execution without errors or deadlock.
func TestRandomGraphStress(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	spec := dataflow.DefaultRandomSpec()
	for seed := uint64(1); seed <= 40; seed++ {
		g, err := dataflow.Random(spec, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := g.FindPASS(); err != nil {
			t.Fatalf("seed %d: no PASS: %v", seed, err)
		}
		conv, err := vts.Convert(g)
		if err != nil {
			t.Fatalf("seed %d: VTS: %v", seed, err)
		}
		if _, err := vts.ComputeBounds(conv); err != nil {
			t.Fatalf("seed %d: bounds: %v", seed, err)
		}
		for _, nprocs := range []int{1, 2, 3} {
			for _, scheduler := range []string{"hlf", "etf"} {
				var m *sched.Mapping
				if scheduler == "hlf" {
					m, err = sched.ListSchedule(g, nprocs, 25)
				} else {
					m, err = sched.ETFSchedule(g, nprocs, 25)
				}
				if err != nil {
					t.Fatalf("seed %d %s/%d: %v", seed, scheduler, nprocs, err)
				}
				if err := m.Validate(g); err != nil {
					t.Fatalf("seed %d %s/%d: invalid mapping: %v", seed, scheduler, nprocs, err)
				}
				plan, err := spi.ResyncSuppression(g, m)
				if err != nil {
					t.Fatalf("seed %d %s/%d: resync: %v", seed, scheduler, nprocs, err)
				}
				if rep := plan.Report; rep.SyncAfter > rep.SyncBefore {
					t.Fatalf("seed %d %s/%d: resync grew: %s", seed, scheduler, nprocs, rep)
				}
				dep, err := spi.Build(&spi.System{Graph: g, Mapping: m})
				if err != nil {
					t.Fatalf("seed %d %s/%d: build: %v", seed, scheduler, nprocs, err)
				}
				st, err := dep.Sim.Run(5)
				if err != nil {
					t.Fatalf("seed %d %s/%d: run: %v", seed, scheduler, nprocs, err)
				}
				if st.Finish <= 0 {
					t.Fatalf("seed %d %s/%d: no time elapsed", seed, scheduler, nprocs)
				}
			}
		}
	}
}

// TestRandomGraphSASStress: every generated feed-forward graph has a valid
// single-appearance schedule whose flattening is a PASS. (APGAN clustering
// handles acyclic graphs; delay-broken cycles need the loose-
// interdependence analysis the implementation documents as out of scope.)
func TestRandomGraphSASStress(t *testing.T) {
	spec := dataflow.DefaultRandomSpec()
	spec.DynamicPercent = 0 // SAS over pure SDF
	spec.FeedbackEdges = 0  // acyclic clustering scope
	for seed := uint64(100); seed < 130; seed++ {
		g, err := dataflow.Random(spec, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sas, err := sched.SingleAppearanceSchedule(g)
		if err != nil {
			t.Fatalf("seed %d: SAS: %v", seed, err)
		}
		if sas.Appearances() != g.NumActors() {
			t.Fatalf("seed %d: %d appearances for %d actors", seed, sas.Appearances(), g.NumActors())
		}
		ok, err := g.ScheduleReturnsToInitialState(sas.Flatten())
		if err != nil || !ok {
			t.Fatalf("seed %d: SAS invalid: ok=%v err=%v", seed, ok, err)
		}
	}
}

// TestExecuteRandomGraphs: the functional executor completes on arbitrary
// generated graphs with pass-through kernels, moving exactly one message
// per interprocessor edge per iteration.
func TestExecuteRandomGraphs(t *testing.T) {
	specCfg := dataflow.DefaultRandomSpec()
	for seed := uint64(200); seed < 220; seed++ {
		g, err := dataflow.Random(specCfg, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m, err := sched.ListSchedule(g, 3, 10)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		kernels := map[dataflow.ActorID]spi.Kernel{}
		for _, a := range g.Actors() {
			a := a
			kernels[a] = func(iter int, in map[dataflow.EdgeID][]byte) (map[dataflow.EdgeID][]byte, error) {
				out := map[dataflow.EdgeID][]byte{}
				for _, eid := range g.Out(a) {
					out[eid] = []byte{byte(iter)}
				}
				return out, nil
			}
		}
		const iters = 4
		st, err := spi.Execute(g, m, kernels, iters)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want := int64(len(m.InterprocessorEdges(g)) * iters)
		if st.SPI.Messages != want {
			t.Errorf("seed %d: %d SPI messages, want %d", seed, st.SPI.Messages, want)
		}
	}
}

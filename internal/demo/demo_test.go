package demo

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/dataflow"
	"repro/internal/spi"
	"repro/internal/transport"
	"repro/internal/vts"
)

// TestKernelsMatchPartKernels: on every example graph, the kernels built
// from the full graph and those built from each node's compiled spec give
// bit-identical sink digests, and every out-port is sized to the VTS bound
// the full conversion computes — Convert stays the oracle for the one
// per-edge formula (vts.EdgeOf) that Kernels calls instead.
func TestKernelsMatchPartKernels(t *testing.T) {
	const seed, iters = 7, 40
	files, err := filepath.Glob("../../examples/graphs/*.sdf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example graphs: %v", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			g, err := dataflow.ParseString(string(src))
			if err != nil {
				t.Fatal(err)
			}
			conv, err := vts.Convert(g)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			digests := Sinks(g)
			kernels, err := Kernels(g, seed, digests, &mu)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range g.Actors() {
				if len(g.Out(a)) == 0 {
					continue
				}
				out, err := kernels[a](0, map[dataflow.EdgeID][]byte{})
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range g.Out(a) {
					if got, want := cap(out[e]), conv.Info(e).BMax; int64(got) != want {
						t.Errorf("edge %s: out-port bound %d, vts.Convert says %d", g.Edge(e).Name, got, want)
					}
				}
			}

			assign := make([]int, g.NumActors())
			for i := range assign {
				assign[i] = min(i, 1)
			}
			m, err := Mapping(g, assign)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := spi.Execute(g, m, kernels, iters); err != nil {
				t.Fatal(err)
			}

			specs, err := spi.BuildPartitions(g, m, []int{0, 1}, 2, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			tr := transport.NewLoopback()
			addrs := []string{file + "-0", file + "-1"}
			parts := make([]map[string]uint64, len(specs))
			errs := make([]error, len(specs))
			var wg sync.WaitGroup
			for w, spec := range specs {
				spec.Addrs, spec.Iterations = addrs, iters
				wg.Add(1)
				go func() {
					defer wg.Done()
					ks, sinks := PartKernels(spec, seed)
					_, errs[w] = spi.ExecutePartition(spec, ks, spi.DistOptions{
						Transport: tr,
						Retry:     transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
					})
					parts[w] = sinks.Take()
				}()
			}
			wg.Wait()
			got := map[string]uint64{}
			for w, err := range errs {
				if err != nil {
					t.Fatalf("node %d: %v", w, err)
				}
				for name, d := range parts[w] {
					got[name] ^= d
				}
			}
			for name, want := range digests {
				if *want == 0 {
					t.Errorf("sink %s folded nothing", name)
				}
				if got[name] != *want {
					t.Errorf("sink %s: PartKernels digest %016x, Kernels %016x", name, got[name], *want)
				}
			}
			if len(got) != len(digests) {
				t.Errorf("PartKernels folded %d sinks, Kernels %d", len(got), len(digests))
			}
		})
	}
}

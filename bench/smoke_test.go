package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests hold the Go
// tables to.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestTablesMatchBenchmarkJSON keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go in step: same names, order, units,
// directions, bounds and reasons.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	same := func(kind string, want, got []metricDef) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the Go table %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, Go table %+v", kind, i, want[i], got[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the Go table %d", len(b.Workloads), len(workloadSpecs))
	}
	for i, w := range b.Workloads {
		if s := workloadSpecs[i]; w.Name != s.name || w.Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), Go table %q (%q)", i, w.Name, w.Why, s.name, s.why)
		}
	}
}

// TestSmoke runs every workload and its ladder at a hundredth of the
// frozen unit counts: every metric BENCHMARK.json names is emitted with
// its unit, every output check passes and no unit fails.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	out := t.TempDir()
	for _, w := range b.Workloads {
		for _, trace := range []bool{false, true} {
			name, defs := w.Name+"/end_to_end", b.EndToEnd
			if trace {
				name, defs = w.Name+"/per_layer", b.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				var log bytes.Buffer
				res, err := runWorkload(runConfig{
					workload: w.Name, seed: 1, seconds: 0.2, scale: 0.01, trace: trace, outDir: out, log: &log,
				})
				if err != nil {
					t.Fatalf("%v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					v, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.Name)
					case v.Unit != d.Unit:
						t.Errorf("%s emitted in %q, BENCHMARK.json says %q", d.Name, v.Unit, d.Unit)
					case !trace && !(v.Value > 0):
						t.Errorf("end-to-end %s = %v, must be above 0", d.Name, v.Value)
					}
				}
				if !trace {
					return
				}
				if v := res.Metrics["failed_share"].Value; v != 0 {
					t.Errorf("failed_share = %v", v)
				}
				if !strings.Contains(log.String(), "unattributed") {
					t.Errorf("the ladder printed no budget ending in unattributed:\n%s", log.String())
				}
				data, err := os.ReadFile(filepath.Join(out, w.Name+".trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				var tr struct {
					TraceEvents []json.RawMessage `json:"traceEvents"`
				}
				if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
					t.Errorf("trace file holds %d spans (%v)", len(tr.TraceEvents), err)
				}
			})
		}
	}
}

// TestQuartilesMatchPython checks quartiles against values computed with
// Python's statistics.quantiles(vs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, med, q3 := quartiles(c.vs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.vs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestCompareVerdicts drives -compare on made-up suites: a difference
// inside the noise must read unresolved, never better or worse.
func TestCompareVerdicts(t *testing.T) {
	mk := func(unitsPerS ...float64) *suite {
		s := &suite{}
		for rep, v := range unitsPerS {
			m := map[string]value{}
			for _, d := range endToEnd {
				m[d.Name] = value{Value: 1, Unit: d.Unit}
			}
			m["units_per_s"] = value{Value: v, Unit: "units/s"}
			for _, spec := range workloadSpecs {
				s.Runs = append(s.Runs, suiteRun{Workload: spec.name, Rep: rep, runResult: runResult{Correct: true, Attempted: 1, Metrics: m}})
			}
		}
		return s
	}
	for _, c := range []struct {
		name      string
		old, new  *suite
		verdict   string
		regressed bool
	}{
		{"steady and 30% slower", mk(100, 101, 102), mk(70, 71, 72), "worse", true},
		{"steady and 30% faster", mk(100, 101, 102), mk(130, 131, 132), "better", false},
		{"steady and 2% slower", mk(100, 101, 102), mk(98, 99, 100), "same", false},
		{"0.89x to 1.84x swings", mk(89, 100, 184), mk(160, 170, 180), "unresolved", false},
		{"too few repetitions", mk(100, 101), mk(50, 51), "unresolved", false},
	} {
		var out bytes.Buffer
		if got := compare(&out, c.old, c.new); got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, got, c.regressed, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, " units_per_s ") && !strings.Contains(line, " "+c.verdict+" ") {
				t.Errorf("%s: want verdict %s in %q", c.name, c.verdict, line)
			}
		}
	}
	failing := mk(100, 101, 102)
	failing.Runs[0].Failed = 1
	if !compare(io.Discard, mk(100, 101, 102), failing) {
		t.Error("a rise in failed units must count as a regression")
	}
}

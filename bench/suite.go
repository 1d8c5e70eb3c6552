package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// A suite is one full set of runs: every workload, reps untraced
// repetitions each plus one traced run, one child process per run so
// peak RSS, allocation and CPU counters belong to that run alone. It is
// what -json writes, what -compare reads and what BASELINE.json holds.
type suite struct {
	Env           suiteEnv       `json:"env"`
	UnitsPerRound map[string]int `json:"units_per_round"` // the frozen counts, per workload
	Runs          []suiteRun     `json:"runs"`            // every repetition, not only medians
}

type suiteEnv struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Kernel     string  `json:"kernel"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Reps       int     `json:"reps"`
}

type suiteRun struct {
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Trace    bool   `json:"trace"`
	runResult
}

func currentEnv(cfg runConfig, reps int) suiteEnv {
	env := suiteEnv{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Kernel: "unknown", Commit: "unknown",
		Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Reps: reps,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	// Outside a git work tree (the driver's checkout) the commit stays unknown.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// runChild re-executes this binary for one run and parses its result
// line. The child's report goes to log only when the run fails.
func runChild(cfg runConfig, log io.Writer) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-scale", fmt.Sprint(cfg.scale), "-trace", trace, "-out", cfg.outDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res runResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		log.Write(stderr.Bytes())
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", cfg.workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", cfg.workload, err)
	}
	if runErr != nil || !res.Correct {
		log.Write(stderr.Bytes())
	}
	return &res, nil
}

// runSuite runs every workload reps times untraced and once traced.
// reverse flips the workload order, so two suites run back to back do not
// share it.
func runSuite(cfg runConfig, reps int, reverse bool) (*suite, error) {
	s := &suite{Env: currentEnv(cfg, reps), UnitsPerRound: map[string]int{}}
	specs := append([]workloadSpec(nil), workloadSpecs...)
	for _, spec := range specs {
		s.UnitsPerRound[spec.name] = spec.unitsPerRound
	}
	if reverse {
		for i, j := 0, len(specs)-1; i < j; i, j = i+1, j-1 {
			specs[i], specs[j] = specs[j], specs[i]
		}
	}
	for rep := 0; rep <= reps; rep++ {
		for _, spec := range specs {
			c := cfg
			c.workload, c.trace = spec.name, rep == reps // the last pass is the traced one
			fmt.Fprintf(cfg.log, "run %s rep %d trace %v\n", spec.name, rep, c.trace)
			res, err := runChild(c, cfg.log)
			if err != nil {
				return nil, err
			}
			s.Runs = append(s.Runs, suiteRun{Workload: spec.name, Rep: rep, Trace: c.trace, runResult: *res})
		}
	}
	return s, nil
}

// values collects one metric of one workload over the suite's
// repetitions, from the untraced or the traced runs.
func (s *suite) values(workload, metric string, trace bool) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if r.Workload == workload && r.Trace == trace {
			if v, ok := r.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

// failedShare is failed ÷ attempted units over every run of the suite.
func (s *suite) failedShare() float64 {
	var attempted, failed int
	for _, r := range s.Runs {
		attempted += r.Attempted
		failed += r.Failed
		if !r.Correct && r.Failed == 0 {
			failed++ // a run that failed a check without counting units
		}
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// print is the one-command report: every end-to-end metric of every
// workload by name with its unit (median over repetitions and quartiles),
// then each workload's per-unit budget from its traced run.
func (s *suite) print(w io.Writer) {
	for _, spec := range workloadSpecs {
		fmt.Fprintf(w, "%s (%s = one unit; %d per round)\n", spec.name, spec.unit, spec.unitsPerRound)
		for _, d := range endToEnd {
			vs := s.values(spec.name, d.Name, false)
			q1, med, q3 := quartiles(vs)
			fmt.Fprintf(w, "  %-22s %14.4f %-8s (q1 %.4f, q3 %.4f, n=%d; %s is better, bound %.0f%%)\n",
				d.Name, med, d.Unit, q1, q3, len(vs), d.Better, 100*d.Bound)
		}
		layer := func(name string) float64 { return median(s.values(spec.name, name, true)) }
		fmt.Fprintf(w, "  budget per unit: measured %.0f ns =", layer("ladder.measured_ns_per_unit"))
		for _, l := range []string{"kernel", "slab", "spi", "link", "carrier", "acks", "session", "orch", "unattributed"} {
			if v := layer("ladder." + l + "_ns_per_unit"); v != 0 {
				fmt.Fprintf(w, " %s %.0f", l, v)
			}
		}
		fmt.Fprintf(w, "; trace overhead ratio %.3f\n", layer("obs.trace_overhead_ratio"))
	}
	fmt.Fprintf(w, "failed_share %.6f ratio\n", s.failedShare())
}

func (s *suite) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSuite(path string) (*suite, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suite
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// minReps is the fewest repetitions per side that can carry a verdict.
const minReps = 3

// quartiles returns the first quartile, median and third quartile of vs
// as Python's statistics.quantiles(vs, n=4) gives them (the exclusive
// method), so the spread printed here is the one the driver computes.
// Fewer than two values have no quartiles: all three are the median.
func quartiles(vs []float64) (q1, med, q3 float64) {
	vs = append([]float64(nil), vs...)
	med = median(vs) // sorts
	n := len(vs)
	if n < 2 {
		return med, med, med
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (vs[j-1]*(4-delta) + vs[j]*delta) / 4
	}
	return at(1), med, at(3)
}

// compare judges new against old, one row per (workload, end-to-end
// metric): each side's median and quartiles over its repetitions, the
// ratio with its base, and a verdict from the metric's bound.
//
//	unresolved  either side's run-to-run spread (q3-q1 over the median)
//	            exceeds the bound, or a side has fewer than minReps repetitions:
//	            the difference cannot be told from noise
//	worse       new's median is worse than old's by more than the bound
//	better      new's median is better by more than old's own spread
//	same        anything else
//
// It returns whether any row is worse or failed_share rose.
func compare(w io.Writer, old, new *suite) (regressed bool) {
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %22s  %s\n", "workload", "metric", "old median", "new median", "new/old (base old)", "verdict")
	for _, spec := range workloadSpecs {
		for _, d := range endToEnd {
			ov, nv := old.values(spec.name, d.Name, false), new.values(spec.name, d.Name, false)
			oq1, om, oq3 := quartiles(ov)
			nq1, nm, nq3 := quartiles(nv)
			verdict := "unresolved"
			if om > 0 && nm > 0 {
				ospread, nspread := (oq3-oq1)/om, (nq3-nq1)/nm
				worseBy := nm/om - 1
				if d.Better == "higher" {
					worseBy = 1 - nm/om
				}
				switch {
				case len(ov) < minReps || len(nv) < minReps || max(ospread, nspread) > d.Bound:
				case worseBy > d.Bound:
					verdict = "worse"
				case -worseBy > ospread:
					verdict = "better"
				default:
					verdict = "same"
				}
			}
			if verdict == "worse" {
				regressed = true
			}
			fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f %10.3fx of %-10.4g  %-10s old [%.4g, %.4g] n=%d, new [%.4g, %.4g] n=%d, bound %.0f%%\n",
				spec.name, d.Name, om, nm, nm/om, om, verdict, oq1, oq3, len(ov), nq1, nq3, len(nv), 100*d.Bound)
		}
	}
	of, nf := old.failedShare(), new.failedShare()
	fmt.Fprintf(w, "failed_share: old %.6f, new %.6f\n", of, nf)
	if nf > of {
		fmt.Fprintln(w, "failed_share rose")
		regressed = true
	}
	return regressed
}

// selfcheck runs two suites of the same code back to back, the second in
// reverse workload order, and prints where they disagree: a metric whose
// two medians differ by more than its bound cannot carry a verdict at that
// bound. It returns the first suite (what BASELINE.json records) and
// whether every metric agreed.
func selfcheck(cfg runConfig, reps int, w io.Writer) (*suite, bool, error) {
	a, err := runSuite(cfg, reps, false)
	if err != nil {
		return nil, false, err
	}
	b, err := runSuite(cfg, reps, true)
	if err != nil {
		return nil, false, err
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "first median", "second median", "differ", "bound", "agree")
	for _, spec := range workloadSpecs {
		for _, d := range endToEnd {
			am, bm := median(a.values(spec.name, d.Name, false)), median(b.values(spec.name, d.Name, false))
			differ := 1.0
			if am > 0 && bm > 0 {
				differ = max(am, bm)/min(am, bm) - 1
			}
			agree := differ <= d.Bound
			ok = ok && agree
			fmt.Fprintf(w, "%-18s %-22s %14.4f %14.4f %8.2f%% %6.0f%%  %v\n", spec.name, d.Name, am, bm, 100*differ, 100*d.Bound, agree)
		}
	}
	if a.failedShare() > 0 || b.failedShare() > 0 {
		fmt.Fprintf(w, "failed_share: first %.6f, second %.6f\n", a.failedShare(), b.failedShare())
		ok = false
	}
	return a, ok, nil
}

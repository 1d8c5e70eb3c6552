package sched

import (
	"fmt"

	"repro/internal/dataflow"
)

// SelfTimedConfig parameterizes a self-timed execution analysis.
type SelfTimedConfig struct {
	// Iterations is the number of graph iterations to simulate. Must be
	// positive.
	Iterations int
	// Warmup is the number of leading iterations excluded from the period
	// estimate (to let the self-timed pipeline reach steady state).
	Warmup int
}

// SelfTimedResult reports the timing of a self-timed execution.
type SelfTimedResult struct {
	// Finish is the completion time (cycles) of the last block of the last
	// simulated iteration.
	Finish int64
	// IterationFinish holds the completion time of each iteration.
	IterationFinish []int64
	// Period is the average steady-state iteration period in cycles
	// (excluding warmup iterations). Zero if fewer than two measurable
	// iterations.
	Period float64
	// ProcBusy is the total busy time per processor, for utilization
	// reporting.
	ProcBusy []int64
}

// SelfTimed simulates the self-timed execution of a mapped SDF graph at
// block granularity. In the self-timed model each processor executes its
// compile-time actor order repeatedly; each block starts as soon as (a) its
// processor has finished the previous block and (b) every input edge has
// the tokens its q[a] firings consume.
//
// Token availability follows the IPC-graph abstraction: at block
// granularity each edge moves T(e) = q[src]*produce(e) tokens per
// iteration, so iteration k of the consumer depends on iteration
// k - floor(delay(e)/T(e)) of the producer (initial delays buy whole
// iterations of slack; fractional remainders are ignored, which is
// conservative). Interprocessor communication is modeled as free.
func SelfTimed(g *dataflow.Graph, m *Mapping, cfg SelfTimedConfig) (*SelfTimedResult, error) {
	if err := m.Validate(g); err != nil {
		return nil, err
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("sched: Iterations = %d", cfg.Iterations)
	}
	q, err := g.RepetitionsVector()
	if err != nil {
		return nil, err
	}

	n := g.NumActors()
	blockCost := func(a dataflow.ActorID) int64 {
		c := g.Actor(a).ExecCycles
		if c <= 0 {
			c = 1
		}
		return q[a] * c
	}
	// Iteration slack per edge.
	slack := make([]int, g.NumEdges())
	for _, eid := range g.Edges() {
		e := g.Edge(eid)
		T := g.IterationTokens(q, eid)
		if T <= 0 {
			return nil, fmt.Errorf("sched: edge %q moves no tokens", e.Name)
		}
		slack[eid] = int(int64(e.Delay) / T)
	}

	K := cfg.Iterations
	finish := make([][]int64, K) // finish[k][a]
	for k := range finish {
		finish[k] = make([]int64, n)
	}
	procTime := make([]int64, m.NumProcs)
	busy := make([]int64, m.NumProcs)
	iterFinish := make([]int64, K)

	for k := 0; k < K; k++ {
		// Within an iteration, processors run their orders. Blocks across
		// processors are resolved by iterating the per-processor orders in
		// a round-robin "advance whoever is unblocked" loop; because the
		// precedence structure within an iteration is acyclic at block
		// granularity (delays break the cycles), a fixed number of sweeps
		// suffices.
		next := make([]int, m.NumProcs)
		total := 0
		for p := range m.Order {
			total += len(m.Order[p])
		}
		done := 0
		for done < total {
			progressed := false
			for p := 0; p < m.NumProcs; p++ {
				for next[p] < len(m.Order[p]) {
					a := m.Order[p][next[p]]
					start := procTime[p]
					okToFire := true
					for _, eid := range g.In(a) {
						e := g.Edge(eid)
						dep := k - slack[eid]
						if dep < 0 {
							continue // satisfied by initial delays
						}
						if dep == k && !ranThisIter(m, next, e.Src) {
							// Same-iteration dependency: the producer block
							// must already have executed in iteration k.
							okToFire = false
							break
						}
						if avail := finish[dep][e.Src]; avail > start {
							start = avail
						}
					}
					if !okToFire {
						break
					}
					c := blockCost(a)
					finish[k][a] = start + c
					busy[p] += c
					procTime[p] = finish[k][a]
					next[p]++
					done++
					progressed = true
				}
			}
			if !progressed {
				return nil, fmt.Errorf("sched: self-timed execution deadlocks in iteration %d", k)
			}
		}
		var last int64
		for a := 0; a < n; a++ {
			if finish[k][a] > last {
				last = finish[k][a]
			}
		}
		iterFinish[k] = last
	}

	res := &SelfTimedResult{
		Finish:          iterFinish[K-1],
		IterationFinish: iterFinish,
		ProcBusy:        busy,
	}
	w := cfg.Warmup
	if w >= K-1 {
		w = 0
	}
	if K-w >= 2 {
		res.Period = float64(iterFinish[K-1]-iterFinish[w]) / float64(K-1-w)
	}
	return res, nil
}

// ranThisIter reports whether actor src has already executed in the current
// iteration (its processor's order cursor has moved past it).
func ranThisIter(m *Mapping, next []int, src dataflow.ActorID) bool {
	p := m.Proc[src]
	for i := 0; i < next[p]; i++ {
		if m.Order[p][i] == src {
			return true
		}
	}
	return false
}

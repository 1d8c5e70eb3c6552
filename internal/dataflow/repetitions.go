package dataflow

import (
	"fmt"
)

// Repetitions is the repetitions vector q of a consistent SDF graph: q[a]
// is the number of times actor a fires in one minimal periodic schedule.
// For every edge e, q[src(e)]*produce(e) == q[snk(e)]*consume(e).
type Repetitions []int64

// InconsistentError reports a sample-rate inconsistency: the balance
// equations of the graph admit only the zero solution.
type InconsistentError struct {
	// Edge is the edge at which the inconsistency was detected.
	Edge string
}

func (e *InconsistentError) Error() string {
	return fmt.Sprintf("dataflow: inconsistent sample rates detected at edge %q", e.Edge)
}

// rational is a nonnegative fraction used while propagating balance
// equations across a spanning tree of the graph.
type rational struct {
	num, den int64
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a < 0 {
		return -a
	}
	return a
}

func (r rational) reduce() rational {
	if r.num == 0 {
		return rational{0, 1}
	}
	g := gcd64(r.num, r.den)
	return rational{r.num / g, r.den / g}
}

func (r rational) mul(num, den int64) rational {
	return rational{r.num * num, r.den * den}.reduce()
}

func (r rational) equal(o rational) bool {
	return r.num*o.den == o.num*r.den
}

// RepetitionsVector solves the balance equations of the graph and returns
// the minimal positive integer repetitions vector. Dynamic ports participate
// with their declared bound interpreted as a fixed rate of one packed token
// (i.e., rate 1): this matches the VTS semantics in which a dynamic edge
// carries exactly one variable-size packed token per firing. Callers that
// want the raw (pre-VTS) rates should convert the graph first.
//
// If the graph has several weakly-connected components, each component is
// solved independently (each gets its own minimal scaling).
//
// Returns an *InconsistentError if the balance equations have no positive
// solution.
func (g *Graph) RepetitionsVector() (Repetitions, error) {
	n := len(g.actors)
	if n == 0 {
		return nil, fmt.Errorf("dataflow: empty graph has no repetitions vector")
	}
	frac := make([]rational, n)
	visited := make([]bool, n)

	// effective rates: dynamic ports move one packed token per firing.
	prodRate := func(e *Edge) int64 {
		if e.Produce.Kind == DynamicPort {
			return 1
		}
		return int64(e.Produce.Rate)
	}
	consRate := func(e *Edge) int64 {
		if e.Consume.Kind == DynamicPort {
			return 1
		}
		return int64(e.Consume.Rate)
	}

	// BFS over the undirected structure, propagating fractions.
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		frac[start] = rational{1, 1}
		visited[start] = true
		queue := []ActorID{ActorID(start)}
		component := []ActorID{ActorID(start)}
		for len(queue) > 0 {
			a := queue[0]
			queue = queue[1:]
			// outgoing: q[snk] = q[a] * produce/consume
			for _, eid := range g.out[a] {
				e := &g.edges[eid]
				want := frac[a].mul(prodRate(e), consRate(e))
				if !visited[e.Snk] {
					frac[e.Snk] = want
					visited[e.Snk] = true
					queue = append(queue, e.Snk)
					component = append(component, e.Snk)
				} else if !frac[e.Snk].equal(want) {
					return nil, &InconsistentError{Edge: e.Name}
				}
			}
			// incoming: q[src] = q[a] * consume/produce
			for _, eid := range g.in[a] {
				e := &g.edges[eid]
				want := frac[a].mul(consRate(e), prodRate(e))
				if !visited[e.Src] {
					frac[e.Src] = want
					visited[e.Src] = true
					queue = append(queue, e.Src)
					component = append(component, e.Src)
				} else if !frac[e.Src].equal(want) {
					return nil, &InconsistentError{Edge: e.Name}
				}
			}
		}
		// Scale this component's fractions to the minimal integer vector:
		// multiply by lcm of denominators, then divide by gcd of numerators.
		var lcm int64 = 1
		for _, a := range component {
			d := frac[a].den
			lcm = lcm / gcd64(lcm, d) * d
		}
		var g0 int64
		for _, a := range component {
			frac[a] = rational{frac[a].num * (lcm / frac[a].den), 1}
			g0 = gcd64(g0, frac[a].num)
		}
		if g0 > 1 {
			for _, a := range component {
				frac[a].num /= g0
			}
		}
	}

	q := make(Repetitions, n)
	for i := range q {
		q[i] = frac[i].num
	}
	return q, nil
}

// IterationTokens returns the total number of tokens moved across edge e
// during one graph iteration (one period of the minimal schedule):
// q[src(e)] * produce(e). For a consistent graph this equals
// q[snk(e)] * consume(e). Dynamic ports count one packed token per firing.
func (g *Graph) IterationTokens(q Repetitions, e EdgeID) int64 {
	ed := &g.edges[e]
	rate := int64(ed.Produce.Rate)
	if ed.Produce.Kind == DynamicPort {
		rate = 1
	}
	return q[ed.Src] * rate
}

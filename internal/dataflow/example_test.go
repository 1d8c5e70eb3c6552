package dataflow_test

import (
	"fmt"

	"repro/internal/dataflow"
)

// Build a two-actor multirate graph and derive its repetitions vector and
// a periodic schedule.
func Example() {
	g := dataflow.New("demo")
	a := g.AddActor("A", 10)
	b := g.AddActor("B", 20)
	g.AddEdge("ab", a, b, 2, 3, dataflow.EdgeSpec{TokenBytes: 4})

	q, _ := g.RepetitionsVector()
	fmt.Println("repetitions:", q)

	sched, _ := g.FindPASS()
	for _, actor := range sched {
		fmt.Print(g.Actor(actor).Name, " ")
	}
	fmt.Println()
	// Output:
	// repetitions: [3 2]
	// A A A B B
}

// Parse a graph from the textual DSL and emit it back.
func ExampleParseString() {
	g, err := dataflow.ParseString(`
graph example
actor src 100
actor dst 200
edge data src dst 4 2 bytes=8 delay=2
`)
	if err != nil {
		fmt.Println("parse error:", err)
		return
	}
	q, _ := g.RepetitionsVector()
	fmt.Println(g.Name(), q)
	// Output:
	// example [1 2]
}

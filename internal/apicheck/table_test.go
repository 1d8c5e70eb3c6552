package apicheck

import (
	"strings"
	"testing"
)

// The checker's own cases, over a small module held in memory: a library,
// a second package whose test uses it, and a program.
var tableModule = []*pkg{
	{
		path:  "ex/lib",
		files: []string{"/ex/lib/lib.go"},
		tests: []string{"/ex/lib/lib_test.go"},
		src: map[string]string{
			"/ex/lib/lib.go": `package lib

import "container/heap"

// H is a heap the standard library orders through heap.Interface.
type H []int

func (h H) Len() int           { return len(h) }
func (h H) Less(i, j int) bool { return h[i] < h[j] }
func (h H) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *H) Push(x any)        { *h = append(*h, x.(int)) }
func (h *H) Pop() any          { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

func Heapify(h *H) { heap.Init(h) }

type wrapped struct{ err error }

func (w wrapped) Error() string { return "wrapped: " + w.err.Error() }
func (w wrapped) Unwrap() error { return w.err }

func Wrap(err error) error { return wrapped{err} }

type Shape interface{ Area() float64 }

type Square struct{ S float64 }

func (s Square) Area() float64 { return s.S * s.S }

func NewSquare(s float64) Shape { return Square{s} }

func Total(shapes []Shape) (t float64) {
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

func OwnTestOnly() int { return 1 }

func OtherTestOnly() int { return 2 }

func Unused() {}

// Config is read by Use; each field but the last two is written by the
// program in a different form.
type Config struct {
	Keyed     int
	Assigned  int
	Indexed   []int
	Counted   int
	Bound     int
	WriteOnly int
	TestSet   int
	Unset     int
}

type Pair struct{ A, B int }

func Use(c *Config, p Pair) int {
	return c.Keyed + c.Assigned + c.Indexed[0] + c.Counted + c.Bound + c.TestSet + c.Unset + p.A + p.B
}
`,
			"/ex/lib/lib_test.go": `package lib

import "testing"

func TestOwn(t *testing.T) { _ = OwnTestOnly() }

func TestConfig(t *testing.T) { _ = Use(&Config{TestSet: 1}, Pair{}) }
`,
		},
	},
	{
		path:  "ex/other",
		files: []string{"/ex/other/other.go"},
		tests: []string{"/ex/other/other_test.go"},
		src: map[string]string{
			"/ex/other/other.go": "package other\n\nfunc init() {}\n",
			"/ex/other/other_test.go": `package other

import (
	"testing"

	"ex/lib"
)

func TestOther(t *testing.T) { _ = lib.OtherTestOnly() }
`,
		},
	},
	{
		path:  "ex/cmd",
		main:  true,
		files: []string{"/ex/cmd/main.go"},
		src: map[string]string{
			"/ex/cmd/main.go": `package main

import (
	"errors"
	"flag"

	"ex/lib"
)

var base = errors.New("base")

func main() {
	lib.Heapify(&lib.H{3, 1, 2})
	_ = errors.Is(lib.Wrap(base), base)
	_ = lib.Total([]lib.Shape{lib.NewSquare(2)})

	c := &lib.Config{Keyed: 1, WriteOnly: 1, Indexed: make([]int, 1)}
	c.Assigned = 2
	c.Indexed[0] = 3
	c.Counted++
	flag.IntVar(&c.Bound, "n", 0, "")
	_ = lib.Use(c, lib.Pair{1, 2})
}
`,
		},
	},
}

func TestCheckerTable(t *testing.T) {
	unreached, unset, err := check(tableModule, "/ex")
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, line := range append(append([]string{}, unreached...), unset...) {
		reported[line[strings.LastIndex(line, " ")+1:]] = true
	}
	for _, c := range []struct {
		name     string
		reported bool
		why      string
	}{
		{"H.Less", false, "container/heap calls it through heap.Interface"},
		{"H.Pop", false, "container/heap calls it through heap.Interface"},
		{"wrapped.Unwrap", false, "errors.Is calls it through an interface"},
		{"Square.Area", false, "reached code calls Area through Shape"},
		{"OtherTestOnly", false, "another package's test uses it"},
		{"OwnTestOnly", true, "only its own package's tests use it"},
		{"Unused", true, "nothing uses it"},
		{"Config.Keyed", false, "a composite-literal key sets it"},
		{"Config.Assigned", false, "an assignment sets it"},
		{"Config.Indexed", false, "an assignment to an index of it sets it"},
		{"Config.Counted", false, "an inc/dec sets it"},
		{"Config.Bound", false, "&c.Bound binds a flag to it"},
		{"Pair.A", false, "a positional composite literal sets it"},
		{"Config.WriteOnly", false, "nothing reads it"},
		{"Config.TestSet", true, "only a test sets it"},
		{"Config.Unset", true, "nothing sets it"},
	} {
		if reported[c.name] != c.reported {
			t.Errorf("%s: reported = %v, want %v (%s)", c.name, reported[c.name], c.reported, c.why)
		}
	}
	if want := []string{"lib/lib.go:38 OwnTestOnly", "lib/lib.go:42 Unused"}; strings.Join(unreached, "\n") != strings.Join(want, "\n") {
		t.Errorf("unreached =\n\t%s\nwant\n\t%s", strings.Join(unreached, "\n\t"), strings.Join(want, "\n\t"))
	}
	if want := []string{"lib/lib.go:53 Config.TestSet", "lib/lib.go:54 Config.Unset"}; strings.Join(unset, "\n") != strings.Join(want, "\n") {
		t.Errorf("unset =\n\t%s\nwant\n\t%s", strings.Join(unset, "\n\t"), strings.Join(want, "\n\t"))
	}
}

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
`,
			"/ex/lib/lib_test.go": `package lib

import "testing"

func TestOwn(t *testing.T) { _ = OwnTestOnly() }
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

	"ex/lib"
)

var base = errors.New("base")

func main() {
	lib.Heapify(&lib.H{3, 1, 2})
	_ = errors.Is(lib.Wrap(base), base)
	_ = lib.Total([]lib.Shape{lib.NewSquare(2)})
}
`,
		},
	},
}

func TestCheckerTable(t *testing.T) {
	unreached, err := check(tableModule, "/ex")
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, line := range unreached {
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
	} {
		if reported[c.name] != c.reported {
			t.Errorf("%s: reported = %v, want %v (%s)", c.name, reported[c.name], c.reported, c.why)
		}
	}
	if want := []string{"lib/lib.go:38 OwnTestOnly", "lib/lib.go:42 Unused"}; strings.Join(unreached, "\n") != strings.Join(want, "\n") {
		t.Errorf("unreached =\n\t%s\nwant\n\t%s", strings.Join(unreached, "\n\t"), strings.Join(want, "\n\t"))
	}
}

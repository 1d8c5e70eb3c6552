package hdl

import (
	"fmt"
	"sort"
	"strings"
)

// Module is a named hardware block: its own primitive resources plus child
// modules. Totals aggregate bottom-up, like a synthesis hierarchy report.
type Module struct {
	name     string
	own      Resources
	ownDepth int
	children []*Module
}

// NewModule returns an empty module with the given instance name.
func NewModule(name string) *Module {
	return &Module{name: name}
}

// Name returns the instance name.
func (m *Module) Name() string { return m.name }

// AddOwn accumulates primitive resources directly owned by this module and
// returns m for chaining.
func (m *Module) AddOwn(r Resources) *Module {
	m.own = m.own.Add(r)
	return m
}

// Add attaches a child module and returns m for chaining.
func (m *Module) Add(child *Module) *Module {
	if child == nil {
		panic("hdl: nil child module")
	}
	m.children = append(m.children, child)
	return m
}

// Total returns the aggregate resources of the module and all descendants.
func (m *Module) Total() Resources {
	t := m.own
	for _, c := range m.children {
		t = t.Add(c.Total())
	}
	return t
}

// FindAll returns every descendant (including m) whose name has the given
// prefix — e.g. all "spi_" modules, for library-vs-system accounting.
func (m *Module) FindAll(prefix string) []*Module {
	var out []*Module
	var walk func(x *Module)
	walk = func(x *Module) {
		if strings.HasPrefix(x.name, prefix) {
			out = append(out, x)
			return // don't double count nested matches
		}
		for _, c := range x.children {
			walk(c)
		}
	}
	walk(m)
	return out
}

// TotalOf sums the totals of all modules matching the prefix.
func (m *Module) TotalOf(prefix string) Resources {
	var t Resources
	for _, x := range m.FindAll(prefix) {
		t = t.Add(x.Total())
	}
	return t
}

// Report renders the hierarchy with per-module totals, deepest-first
// ordering preserved, similar to a synthesis utilization report.
func (m *Module) Report() string {
	var b strings.Builder
	var walk func(x *Module, depth int)
	walk = func(x *Module, depth int) {
		fmt.Fprintf(&b, "%s%s: %s\n", strings.Repeat("  ", depth), x.name, x.Total())
		kids := append([]*Module(nil), x.children...)
		sort.SliceStable(kids, func(i, j int) bool { return kids[i].name < kids[j].name })
		for _, c := range kids {
			walk(c, depth+1)
		}
	}
	walk(m, 0)
	return b.String()
}

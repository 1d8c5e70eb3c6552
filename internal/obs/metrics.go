// Package obs is the observability subsystem of the SPI runtime: a
// lock-cheap metrics registry (counters, gauges, histograms with atomic
// fast paths), a ring-buffered structured event tracer exportable as
// Chrome trace_event JSON, and an HTTP handler exposing both for live
// spinode introspection.
//
// The recording fast path is allocation-free and nil-safe: instrumented
// code resolves typed handles (*Counter, *Gauge, *Histogram, *Tracer)
// once at setup and calls them unconditionally — a nil handle records
// nothing, so disabling observability costs one predictable branch per
// record site and no interface dispatch.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Key: "edge", Value: "sm"}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be >= 0 for the Prometheus contract; Add does not
// enforce it).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. All methods are safe for
// concurrent use and no-ops on a nil receiver.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates observations into fixed cumulative-style buckets
// (Prometheus semantics: bucket i counts observations <= Bounds[i], plus
// one implicit +Inf bucket). Observe is lock-free: a binary search over
// the bounds and three atomic adds. No-op on a nil receiver.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, last is +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// LatencyBucketsUS is the default histogram bucketing for microsecond
// latencies: 1 µs to 100 ms in a 1-2.5-5 ladder.
var LatencyBucketsUS = []float64{1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000}

type metricType uint8

const (
	typeCounter metricType = iota
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family; exactly one of c/g/h is
// set, matching the family type.
type series struct {
	labels []Label
	key    string // canonical label rendering, for dedup and sort
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all series of one metric name.
type family struct {
	name, help string
	typ        metricType
	bounds     []float64 // histogram families only
	series     []*series
	byKey      map[string]*series
}

// Registry holds metric families. Registration (Counter/Gauge/Histogram)
// takes the registry lock and may allocate; recording through the
// returned handles never does — hold the handle, not the name.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey renders labels canonically (sorted by key) for dedup.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}

// lookup finds or creates the family and series for (name, labels). A
// name registered twice with different types or histogram bounds panics:
// that is a programming error, not a runtime condition.
func (r *Registry) lookup(name, help string, typ metricType, bounds []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, bounds: bounds, byKey: map[string]*series{}}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	key := labelKey(labels)
	if s := f.byKey[key]; s != nil {
		return s
	}
	s := &series{labels: append([]Label(nil), labels...), key: key}
	switch typ {
	case typeCounter:
		s.c = &Counter{}
	case typeGauge:
		s.g = &Gauge{}
	case typeHistogram:
		s.h = &Histogram{bounds: f.bounds, buckets: make([]atomic.Int64, len(f.bounds)+1)}
	}
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Counter registers (or finds) a counter series and returns its handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.lookup(name, help, typeCounter, nil, labels).c
}

// Gauge registers (or finds) a gauge series and returns its handle.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.lookup(name, help, typeGauge, nil, labels).g
}

// Histogram registers (or finds) a histogram series with the given bucket
// bounds (nil = LatencyBucketsUS) and returns its handle. All series of
// one family share the bounds of the first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = LatencyBucketsUS
	}
	return r.lookup(name, help, typeHistogram, bounds, labels).h
}

// Sum adds up a counter or gauge family's current values across all its
// series — the cheap aggregate for periodic stats lines. Unknown names
// sum to 0.
func (r *Registry) Sum(name string) int64 {
	r.mu.Lock()
	f := r.families[name]
	var ss []*series
	if f != nil {
		ss = append(ss, f.series...)
	}
	r.mu.Unlock()
	var total int64
	for _, s := range ss {
		switch {
		case s.c != nil:
			total += s.c.Value()
		case s.g != nil:
			total += s.g.Value()
		}
	}
	return total
}

// Get returns the current value of one counter/gauge series, and whether
// it exists. Tests use it to compare scraped metrics against run stats.
func (r *Registry) Get(name string, labels ...Label) (int64, bool) {
	r.mu.Lock()
	f := r.families[name]
	var s *series
	if f != nil {
		s = f.byKey[labelKey(labels)]
	}
	r.mu.Unlock()
	if s == nil {
		return 0, false
	}
	if s.c != nil {
		return s.c.Value(), true
	}
	if s.g != nil {
		return s.g.Value(), true
	}
	return 0, false
}

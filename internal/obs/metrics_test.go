package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("msgs_total", "messages", L("edge", "sm"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	// Same name+labels returns the same instance.
	if again := r.Counter("msgs_total", "messages", L("edge", "sm")); again != c {
		t.Error("re-registration returned a different counter")
	}
	// Different labels are a different series.
	other := r.Counter("msgs_total", "messages", L("edge", "ms"))
	if other == c {
		t.Error("different labels returned the same counter")
	}
	g := r.Gauge("depth", "queue depth")
	g.Set(3)
	g.Add(2)
	g.Add(-4)
	if g.Value() != 1 {
		t.Errorf("gauge value %d, want 1", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_us", "latency", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Errorf("sum = %g, want 556.5", h.Sum())
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_us_bucket{le="1"} 2`,   // 0.5 and 1 (le is inclusive)
		`lat_us_bucket{le="10"} 3`,  // + 5
		`lat_us_bucket{le="100"} 4`, // + 50
		`lat_us_bucket{le="+Inf"} 5`,
		`lat_us_sum 556.5`,
		`lat_us_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var tr *Tracer
	var o *Observer
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	tr.Instant("cat", "name", 0, 0)
	tr.Span("cat", "name", 0, 0, tr.Now())
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must read as zero")
	}
	if o.Counter("x", "") != nil || o.Gauge("x", "") != nil ||
		o.Histogram("x", "", nil) != nil || o.Tracer() != nil || o.Pid() != 0 {
		t.Error("nil observer must hand out nil handles")
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "bees", L("edge", "sm"), L("node", "0")).Add(7)
	r.Counter("b_total", "bees", L("edge", "ms"), L("node", "0")).Add(2)
	r.Gauge("a_depth", "depth").Set(-3)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := "# HELP a_depth depth\n" +
		"# TYPE a_depth gauge\n" +
		"a_depth -3\n" +
		"# HELP b_total bees\n" +
		"# TYPE b_total counter\n" +
		"b_total{edge=\"ms\",node=\"0\"} 2\n" +
		"b_total{edge=\"sm\",node=\"0\"} 7\n"
	if out != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", out, want)
	}
}

func TestSumAndGet(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "", L("edge", "a")).Add(3)
	r.Counter("m_total", "", L("edge", "b")).Add(4)
	if got := r.Sum("m_total"); got != 7 {
		t.Errorf("Sum = %d, want 7", got)
	}
	if got := r.Sum("missing"); got != 0 {
		t.Errorf("Sum(missing) = %d, want 0", got)
	}
	if v, ok := r.Get("m_total", L("edge", "b")); !ok || v != 4 {
		t.Errorf("Get = %d,%v want 4,true", v, ok)
	}
	if _, ok := r.Get("m_total", L("edge", "zzz")); ok {
		t.Error("Get of unknown series reported ok")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x_total", "")
}

// TestRegistryConcurrent hammers registration, recording, and export from
// many goroutines at once; run under -race this is the registry's
// concurrency contract.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			labels := []Label{L("worker", string(rune('a'+w%4)))}
			c := r.Counter("conc_total", "", labels...)
			g := r.Gauge("conc_depth", "", labels...)
			h := r.Histogram("conc_lat", "", nil, labels...)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 100))
				if i%500 == 0 {
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Sum("conc_total"); got != workers*perWorker {
		t.Errorf("conc_total = %d, want %d", got, workers*perWorker)
	}
	if got := r.Sum("conc_depth"); got != workers*perWorker {
		t.Errorf("conc_depth = %d, want %d", got, workers*perWorker)
	}
}

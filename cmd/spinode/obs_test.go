package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/spi"
	"repro/internal/transport"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// runTwoNodesSeeded runs the shipped pipeline.sdf two-node split over
// loopback with a deterministic observer per node and returns the outputs
// and observers. Fault-free and seeded, so the recorded event multiset is
// identical across runs (only timestamps and interleaving vary).
func runTwoNodesSeeded(t *testing.T, iters int) ([2]*bytes.Buffer, [2]*obs.Observer) {
	t.Helper()
	tr := transport.NewLoopback()
	ln, err := tr.Listen("obs-node0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr(), "unused"}
	outs := [2]*bytes.Buffer{{}, {}}
	obses := [2]*obs.Observer{obs.NewSeeded(0, 101), obs.NewSeeded(1, 202)}
	var errs [2]error
	var wg sync.WaitGroup
	for node := 0; node < 2; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			opts := spi.DistOptions{Transport: tr, Addrs: addrs, Node: node, Obs: obses[node]}
			if node == 0 {
				opts.Listener = ln
			}
			errs[node] = runNode(pipelineNode(loadPipelineSDF(t), iters, []int{0, 1}, opts), outs[node])
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v\n%s", node, err, outs[node].String())
		}
	}
	return outs, obses
}

// scrape fetches one metric series value from a /metrics exposition.
func scrape(t *testing.T, body, series string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				t.Fatalf("series %s has value %q", series, rest)
			}
			return v
		}
	}
	t.Fatalf("series %q not found in exposition:\n%s", series, body)
	return 0
}

// TestMetricsMatchExecStats is the acceptance check: after a seeded
// two-node pipeline.sdf run, the /metrics endpoint of each node reports
// per-edge data and ack counters exactly equal to the per-edge ExecStats
// the node printed.
func TestMetricsMatchExecStats(t *testing.T) {
	const iters = 12
	outs, obses := runTwoNodesSeeded(t, iters)

	// "  edge sm (SPI_BBS): 13 messages, 52 data bytes, 0 acks, 0 ack bytes"
	edgeLine := regexp.MustCompile(`edge sm \(\S+\): (\d+) messages, (\d+) data bytes, (\d+) acks, (\d+) ack bytes`)
	for node := 0; node < 2; node++ {
		m := edgeLine.FindStringSubmatch(outs[node].String())
		if m == nil {
			t.Fatalf("node %d printed no per-edge stats line:\n%s", node, outs[node].String())
		}
		srv := httptest.NewServer(obses[node].Handler(nil))
		resp, err := srv.Client().Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		srv.Close()
		for i, series := range []string{
			`spi_edge_messages_total{edge="sm"}`,
			`spi_edge_data_bytes_total{edge="sm"}`,
			`spi_edge_acks_total{edge="sm"}`,
			`spi_edge_ack_bytes_total{edge="sm"}`,
		} {
			want, _ := strconv.ParseInt(m[i+1], 10, 64)
			if got := scrape(t, string(body), series); got != want {
				t.Errorf("node %d %s = %d, exec stats printed %d", node, series, got, want)
			}
		}
	}

	// Cross-check the absolute counts: src sends one message per iteration
	// plus one preloaded delay token; mid acks one per consumed message.
	srv := httptest.NewServer(obses[0].Handler(nil))
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	srv.Close()
	if got := scrape(t, string(body), `spi_edge_messages_total{edge="sm"}`); got != iters+1 {
		t.Errorf("node 0 sent %d messages on sm, want %d (iters + preload)", got, iters+1)
	}
}

// canonicalTrace reduces both nodes' event streams to a deterministic
// fingerprint: timing-dependent fields (ts, dur) and timing-dependent
// events (credit stalls — whether a sender ever blocks depends on
// scheduling) are dropped, then identical events collapse into counts and
// the lines sort lexicographically.
func canonicalTrace(obses [2]*obs.Observer) string {
	counts := map[string]int{}
	for _, o := range obses {
		for _, ev := range o.Trace.Events() {
			if strings.HasPrefix(ev.Name, "credit-stall:") {
				continue
			}
			key := fmt.Sprintf("pid=%d cat=%s ph=%c tid=%d name=%s", ev.Pid, ev.Cat, ev.Ph, ev.Tid, ev.Name)
			counts[key]++
		}
	}
	lines := make([]string, 0, len(counts))
	for k, n := range counts {
		lines = append(lines, fmt.Sprintf("%s count=%d", k, n))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestChromeTraceGolden runs the seeded two-node pipeline.sdf split and
// compares the canonicalized trace against the checked-in golden file,
// then verifies the Chrome export is loadable JSON carrying one event per
// message-level occurrence. Regenerate with: go test -run Golden -update-golden
func TestChromeTraceGolden(t *testing.T) {
	const iters = 12
	_, obses := runTwoNodesSeeded(t, iters)

	got := canonicalTrace(obses)
	golden := filepath.Join("testdata", "pipeline_trace_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got != string(want) {
		t.Errorf("canonical trace diverged from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The Chrome export must load as trace_event JSON, with every recorded
	// event present and kernel firings carrying durations.
	for node, o := range obses {
		var b strings.Builder
		if err := o.Trace.WriteChrome(&b); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
				Dur  *int64 `json:"dur"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
			t.Fatalf("node %d trace is not valid JSON: %v", node, err)
		}
		if len(doc.TraceEvents) != o.Trace.Len() {
			t.Errorf("node %d exported %d events, recorded %d", node, len(doc.TraceEvents), o.Trace.Len())
		}
		kernels := 0
		for _, ev := range doc.TraceEvents {
			if ev.Ph == "X" && ev.Dur != nil {
				kernels++
			}
		}
		wantKernels := iters // node 0: src fires iters times
		if node == 1 {
			wantKernels = 2 * iters // mid and sink
		}
		if kernels < wantKernels {
			t.Errorf("node %d trace has %d complete spans, want at least %d kernel firings", node, kernels, wantKernels)
		}
	}
}

// syncBuffer makes runNode's output readable while the run is still in
// flight.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestHTTPServesDuringRun starts node 0 with -http alone: it binds the
// endpoint, prints the address, and then blocks waiting for node 1 to
// connect — a deterministic window in which the test scrapes /healthz and
// /metrics live. Node 1 is then started so both nodes finish cleanly.
func TestHTTPServesDuringRun(t *testing.T) {
	tr := transport.NewLoopback()
	ln, err := tr.Listen("http-node0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr(), "unused"}
	cfgFor := func(node int) nodeConfig {
		return pipelineNode(loadPipelineSDF(t), 8, []int{0, 1},
			spi.DistOptions{Transport: tr, Addrs: addrs, Node: node})
	}

	out0 := &syncBuffer{}
	cfg0 := cfgFor(0)
	cfg0.HTTPAddr = "127.0.0.1:0"
	cfg0.Opts.Listener = ln
	err0 := make(chan error, 1)
	go func() { err0 <- runNode(cfg0, out0) }()

	// Wait for the endpoint address to appear in the output.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("no observability line within deadline:\n%s", out0.String())
		}
		if m := regexp.MustCompile(`observability: (http://\S+)/metrics`).FindStringSubmatch(out0.String()); m != nil {
			base = m[1]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	get := func(path string) string {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		return string(body)
	}
	var health map[string]any
	if err := json.Unmarshal([]byte(get("/healthz")), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if health["graph"] != "pipeline" || health["node"] != float64(0) {
		t.Errorf("/healthz = %v", health)
	}
	if !strings.Contains(get("/metrics"), "# TYPE") && get("/metrics") != "" {
		t.Error("/metrics served no exposition")
	}
	if !strings.HasPrefix(get("/trace"), `{"traceEvents":`) {
		t.Error("/trace served no Chrome document")
	}

	var out1 bytes.Buffer
	if err := runNode(cfgFor(1), &out1); err != nil {
		t.Fatalf("node 1: %v\n%s", err, out1.String())
	}
	if err := <-err0; err != nil {
		t.Fatalf("node 0: %v\n%s", err, out0.String())
	}
}

// TestDegradedSummaryReportsFirings checks the exit-3 summary satellite: a
// permanently severed link under -degrade must report how many firings
// each starved actor completed.
func TestDegradedSummaryReportsFirings(t *testing.T) {
	fc, err := transport.ParseFaultSpec("seed=21,severat=15,skip=6,denydials=1")
	if err != nil {
		t.Fatal(err)
	}
	ft := transport.NewFaultTransport(transport.NewLoopback(), fc)
	rc := transport.ReconnectConfig{Attempts: 4, BaseDelay: time.Millisecond,
		MaxDelay: 2 * time.Millisecond, Deadline: 500 * time.Millisecond}
	outs, errs := runTwoNodes(t, loadPipelineSDF, ft, 200, spi.DistOptions{Reconnect: rc, Degrade: true})
	firingLine := regexp.MustCompile(`(\w+) completed (\d+)/200 firings`)
	for node, err := range errs {
		if err == nil {
			t.Fatalf("node %d completed despite a dead link:\n%s", node, outs[node].String())
		}
		out := outs[node].String()
		if !strings.Contains(out, "starved actors:") {
			continue // a node whose actors all finished has nothing to report
		}
		ms := firingLine.FindAllStringSubmatch(out, -1)
		if len(ms) == 0 {
			t.Errorf("node %d summary lists starved actors but no firing counts:\n%s", node, out)
		}
		for _, m := range ms {
			n, _ := strconv.Atoi(m[2])
			if n >= 200 {
				t.Errorf("node %d: starved actor %s reports %d firings, want < 200:\n%s", node, m[1], n, out)
			}
		}
	}
}

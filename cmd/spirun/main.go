// Command spirun executes the paper's two applications end-to-end on the
// software SPI runtime (goroutines + SPI edges) and reports application
// quality plus communication statistics.
//
//	spirun -app speech -pes 4 -frames 16
//	spirun -app speech -pes 4 -transport tcp
//	spirun -app crack  -pes 2 -particles 200 -steps 150
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/cmd/internal/runcfg"
	"repro/internal/dsp"
	"repro/internal/lpc"
	"repro/internal/particle"
	"repro/internal/signal"
	"repro/internal/spi"
	"repro/internal/transport"
)

// cli is spirun's flag surface: the shared run description (seed,
// transport, link tuning, deadline) plus the two applications' own knobs.
type cli struct {
	runcfg.Run
	app              string
	pes, frames      int
	particles, steps int
	adaptive         float64
	hw               bool
	sessions         int
}

func newFlagSet(c *cli) *flag.FlagSet {
	fs := flag.NewFlagSet("spirun", flag.ExitOnError)
	fs.StringVar(&c.app, "app", "speech", "application: speech (LPC compression) or crack (particle filter)")
	fs.IntVar(&c.pes, "pes", 2, "number of processing elements")
	fs.IntVar(&c.frames, "frames", 8, "speech: number of frames to process")
	fs.IntVar(&c.particles, "particles", 200, "crack: total particle count")
	fs.IntVar(&c.steps, "steps", 150, "crack: tracking steps")
	fs.Float64Var(&c.adaptive, "adaptive", 0, "crack: ESS resampling threshold fraction (0 = resample every step)")
	fs.BoolVar(&c.hw, "hw", false, "speech: also run the bit-true Q15 hardware model of actor D")
	fs.StringVar(&c.Transport, "transport", c.Transport, "speech actor-D run: chan (in-process SPI runtime), loopback (in-memory byte transport), tcp (two nodes over localhost TCP), shm (two nodes over same-host shared-memory rings)")
	fs.IntVar(&c.Fission, "fission", 0, "speech actor-D run: derive the parallel deployment automatically by fissioning the serial error generator into this many replicas behind scatter/gather stages (0 = use the hand-built n-PE deployment)")
	fs.IntVar(&c.sessions, "sessions", 0,
		"networked speech runs: run this many concurrent actor-D sessions multiplexed over one shared link; per-edge stats aggregate across sessions (0 = one plain execution)")
	// The link tuning flags apply to the networked runs only: the chan
	// transport has no wire to tune.
	c.SeedFlag(fs)
	c.WireFlags(fs)
	c.LivenessFlags(fs)
	return fs
}

// check rejects flag combinations that would be accepted and do nothing.
func (c *cli) check() error {
	if c.sessions > 0 && c.Opts.Resync {
		return errors.New("-resync does not apply with -sessions: session-tagged acks are never suppressed")
	}
	return nil
}

func main() {
	c := cli{Run: runcfg.Run{Seed: 1, Transport: "chan"}}
	newFlagSet(&c).Parse(os.Args[1:])
	err := c.check()
	if err != nil {
		fmt.Fprintln(os.Stderr, "spirun:", err)
		os.Exit(2)
	}
	switch c.app {
	case "speech":
		err = runSpeech(&c)
	case "crack":
		err = runCrack(c.pes, c.particles, c.steps, c.Seed, c.adaptive)
	default:
		err = fmt.Errorf("unknown application %q", c.app)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spirun:", err)
		os.Exit(1)
	}
}

func runSpeech(c *cli) error {
	pes, sessions, fission, trans := c.pes, c.sessions, c.Fission, c.Transport
	p := lpc.DefaultParams()
	codec, err := lpc.NewCodec(p)
	if err != nil {
		return err
	}
	x := signal.Speech(p.FrameSize*c.frames, c.Seed)
	rep, err := codec.Analyze(x)
	if err != nil {
		return err
	}
	fmt.Printf("LPC speech compression (application 1)\n")
	fmt.Printf("  frames:            %d x %d samples, order %d\n", rep.Frames, p.FrameSize, p.Order)
	fmt.Printf("  compression ratio: %.2fx vs 16-bit PCM\n", rep.Ratio)
	fmt.Printf("  reconstruction:    %.1f dB SNR\n", rep.SNRdB)

	// Container roundtrip through the wire format.
	var stream bytes.Buffer
	n, err := codec.EncodeStream(&stream, x)
	if err != nil {
		return err
	}
	decoded, _, err := lpc.DecodeStream(&stream)
	if err != nil {
		return err
	}
	fmt.Printf("  container stream:  %d bytes, %d samples decoded\n", n, len(decoded))

	// Parallel actor D across the SPI runtime, verified against serial.
	frame := x[:p.FrameSize]
	model, err := dsp.LPCAnalyze(frame, p.Order)
	if err != nil {
		return err
	}
	serial := model.Residual(frame)
	pes = min(pes, len(frame))
	what := fmt.Sprintf("parallelized on %d PEs over SPI_dynamic edges", pes)
	run := func(o spi.DistOptions) ([]float64, *spi.ExecStats, error) {
		return lpc.DistributedResidual(model, frame, pes, 1, o)
	}
	if fission > 0 && sessions == 0 {
		what = fmt.Sprintf("auto-fissioned into %d replicas behind scatter/gather stages", fission)
		run = func(o spi.DistOptions) ([]float64, *spi.ExecStats, error) {
			return lpc.FissionResidual(model, frame, fission, 1, o)
		}
	}
	var parallel []float64
	var stats *spi.ExecStats
	where := trans + " transport, 2 nodes"
	switch {
	case sessions > 0:
		where = fmt.Sprintf("%s transport, %d sessions on one shared link", trans, sessions)
		parallel, stats, err = sessionsResidual(&c.Run, model, frame, pes, sessions)
	case trans == "chan":
		where = "in-process"
		parallel, stats, err = runNodes(&c.Run, 1, run)
	default:
		parallel, stats, err = runNodes(&c.Run, 2, run)
	}
	if err != nil {
		return err
	}
	var maxDiff float64
	for i := range serial {
		if d := abs(serial[i] - parallel[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("actor D %s (%s)\n", what, where)
	fmt.Printf("  messages: %d, wire bytes: %d, ack bytes: %d\n", stats.SPI.Messages, stats.SPI.WireBytes, stats.SPI.AckBytes)
	printEdgeTable(stats.Edges)
	fmt.Printf("  max |serial - parallel| = %g (bit-identical split)\n", maxDiff)
	if c.hw {
		hwRes := lpc.HardwareResidual(model, frame)
		var hwErr float64
		for i := range serial {
			if d := abs(serial[i] - hwRes[i]); d > hwErr {
				hwErr = d
			}
		}
		fmt.Printf("bit-true Q15 hardware model of actor D\n")
		fmt.Printf("  max |float - Q15 hardware| = %.5f (coefficient shift %d)\n",
			hwErr, lpc.QuantizeModel(model).Shift)
	}
	return nil
}

func runCrack(pes, particles, steps int, seed uint64, adaptive float64) error {
	p := signal.DefaultCrackParams()
	truth := signal.CrackTruth(steps, p, seed)
	obs := signal.CrackObservations(truth, p, seed+1)
	d, err := particle.NewDistributed(particle.Model{P: p}, particles, pes, seed+2)
	if err != nil {
		return err
	}
	if adaptive > 0 {
		d.SetResampleThreshold(adaptive)
	}
	ests, err := d.Run(obs)
	if err != nil {
		return err
	}
	st := d.Stats()
	fmt.Printf("Crack-length tracking particle filter (application 2)\n")
	fmt.Printf("  particles: %d on %d PEs (%d each)\n", particles, d.PEs(), d.PerPE())
	fmt.Printf("  steps:     %d\n", steps)
	fmt.Printf("  final:     truth %.3f, estimate %.3f\n", truth[steps-1], ests[steps-1])
	fmt.Printf("  RMSE:      %.4f (observation noise %.2f)\n", particle.RMSE(ests, truth), p.MeasureNoise)
	fmt.Printf("distributed resampling over SPI\n")
	fmt.Printf("  messages: %d (sums on SPI_static, migrations on SPI_dynamic)\n", st.Messages)
	fmt.Printf("  wire bytes: %d, UBS acks: %d\n", st.WireBytes, st.Acks)
	if adaptive > 0 {
		fmt.Printf("  adaptive resampling: %d of %d steps resampled (ESS threshold %.2f)\n",
			d.Resamplings(), steps, adaptive)
	}
	return nil
}

// runNodes runs one actor-D deployment as a distributed execution inside
// this process: on one node for -transport chan, or over two — the I/O
// interface on node 0, all worker PEs on node 1 — on the selected byte
// transport, exercising the same code path as two spinode processes. run
// executes one node's share.
func runNodes(r *runcfg.Run, nodes int, run func(spi.DistOptions) ([]float64, *spi.ExecStats, error)) ([]float64, *spi.ExecStats, error) {
	opts := r.Opts
	opts.Addrs = []string{"in-process"}
	var ln transport.Listener
	if nodes > 1 {
		tr, local, cleanup, err := r.OpenTransport()
		if err != nil {
			return nil, nil, err
		}
		defer cleanup()
		if ln, err = tr.Listen(local(0)); err != nil {
			return nil, nil, err
		}
		opts.Transport, opts.Addrs = tr, []string{ln.Addr(), "unused"}
	}
	if r.Deadline > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), r.Deadline)
		defer cancel()
		opts.Context = ctx
	}
	results := make([][]float64, nodes)
	stats := make([]*spi.ExecStats, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for node := 0; node < nodes; node++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			opts := opts
			opts.Node = node
			if node == 0 {
				opts.Listener = ln
			}
			results[node], stats[node], errs[node] = run(opts)
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("node %d: %w", node, err)
		}
	}
	return results[0], sumStats(stats), nil
}

// sumStats totals the per-node (and per-session) statistics of one
// deployment. Messages are counted on the sending node and acks on the
// receiving node, so summing does not double count; per-edge rows merge
// on edge ID, so the halves of a cross-node edge — and every session that
// crossed it — land in one row, and the totals are the rows' sum.
func sumStats(stats []*spi.ExecStats) *spi.ExecStats {
	var lists [][]spi.EdgeTraffic
	for _, st := range stats {
		if st != nil {
			lists = append(lists, st.Edges)
		}
	}
	total := &spi.ExecStats{Edges: mergeEdgeTraffic(lists...)}
	for _, e := range total.Edges {
		addEdgeStats(&total.SPI, e.Stats)
	}
	return total
}

// mergeEdgeTraffic combines per-edge rows from the nodes of a distributed
// run: a cross-node edge appears on both nodes (sender half counts data,
// receiver half counts acks), so rows with the same ID sum into one.
func mergeEdgeTraffic(lists ...[]spi.EdgeTraffic) []spi.EdgeTraffic {
	byID := map[spi.EdgeID]*spi.EdgeTraffic{}
	var order []spi.EdgeID
	for _, list := range lists {
		for _, e := range list {
			m := byID[e.ID]
			if m == nil {
				cp := e
				byID[e.ID] = &cp
				order = append(order, e.ID)
				continue
			}
			addEdgeStats(&m.Stats, e.Stats)
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]spi.EdgeTraffic, len(order))
	for i, id := range order {
		out[i] = *byID[id]
	}
	return out
}

// addEdgeStats adds s's counters into dst; MaxQueued takes the larger.
func addEdgeStats(dst *spi.EdgeStats, s spi.EdgeStats) {
	dst.Messages += s.Messages
	dst.PayloadBytes += s.PayloadBytes
	dst.WireBytes += s.WireBytes
	dst.Acks += s.Acks
	dst.AckBytes += s.AckBytes
	dst.AcksSuppressed += s.AcksSuppressed
	dst.CreditWaits += s.CreditWaits
	dst.MaxQueued = max(dst.MaxQueued, s.MaxQueued)
}

// printEdgeTable renders the per-edge traffic breakdown.
func printEdgeTable(edges []spi.EdgeTraffic) {
	if len(edges) == 0 {
		return
	}
	fmt.Printf("  %-10s %-8s %9s %11s %10s %10s %10s\n", "edge", "proto", "messages", "data bytes", "acks", "ack bytes", "suppressed")
	for _, e := range edges {
		fmt.Printf("  %-10s %-8s %9d %11d %10d %10d %10d\n",
			e.Name, e.Protocol, e.Stats.Messages, e.Stats.WireBytes, e.Stats.Acks, e.Stats.AckBytes, e.Stats.AcksSuppressed)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

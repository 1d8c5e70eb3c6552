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
	// The link tuning and liveness flags apply to the networked runs only:
	// the chan transport has no wire to tune.
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
	var parallel []float64
	var stats *lpc.ParallelStats
	switch {
	case sessions > 0:
		parallel, stats, err = sessionsResidual(&c.Run, model, frame, pes, sessions)
	case fission > 0 && trans == "chan":
		parallel, stats, err = fissionedInProcess(model, frame, fission)
	case fission > 0:
		parallel, stats, err = twoNodeResidual(&c.Run, fission, func(o spi.DistOptions) ([]float64, *spi.ExecStats, error) {
			return lpc.FissionResidual(model, frame, fission, 1, o)
		})
	case trans == "chan":
		parallel, stats, err = lpc.ParallelResidual(model, frame, pes)
	default:
		parallel, stats, err = twoNodeResidual(&c.Run, pes, func(o spi.DistOptions) ([]float64, *spi.ExecStats, error) {
			return lpc.DistributedResidual(model, frame, pes, 1, o)
		})
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
	switch {
	case sessions > 0:
		fmt.Printf("actor D parallelized on %d PEs over SPI_dynamic edges (%s transport, %d sessions on one shared link)\n",
			stats.PEs, trans, sessions)
	case fission > 0 && trans == "chan":
		fmt.Printf("actor D auto-fissioned into %d replicas behind scatter/gather stages (in-process)\n", stats.PEs)
	case fission > 0:
		fmt.Printf("actor D auto-fissioned into %d replicas behind scatter/gather stages (%s transport, 2 nodes)\n", stats.PEs, trans)
	case trans == "chan":
		fmt.Printf("actor D parallelized on %d PEs over SPI_dynamic edges\n", stats.PEs)
	default:
		fmt.Printf("actor D parallelized on %d PEs over SPI_dynamic edges (%s transport, 2 nodes)\n", stats.PEs, trans)
	}
	fmt.Printf("  messages: %d, wire bytes: %d, ack bytes: %d\n", stats.Messages, stats.WireBytes, stats.AckBytes)
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

// twoNodeResidual runs one actor-D deployment as a two-node distributed
// execution inside this process — the I/O interface on node 0, all worker
// PEs on node 1 — over the selected byte transport, exercising the same
// code path as two spinode processes. run executes one node's share.
func twoNodeResidual(r *runcfg.Run, pes int, run func(spi.DistOptions) ([]float64, *spi.ExecStats, error)) ([]float64, *lpc.ParallelStats, error) {
	tr, local, cleanup, err := r.OpenTransport()
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	ln, err := tr.Listen(local(0))
	if err != nil {
		return nil, nil, err
	}
	opts := r.Opts
	opts.Transport, opts.Addrs = tr, []string{ln.Addr(), "unused"}
	if r.Deadline > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), r.Deadline)
		defer cancel()
		opts.Context = ctx
	}
	var (
		results [2][]float64
		stats   [2]*spi.ExecStats
		errs    [2]error
		wg      sync.WaitGroup
	)
	for node := 0; node < 2; node++ {
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
	return results[0], sumStats(pes, stats[:]), nil
}

// sumStats totals the per-node (and per-session) statistics of one
// deployment. Messages are counted on the sending node and acks on the
// receiving node, so summing does not double count; per-edge rows merge
// on edge ID, so the halves of a cross-node edge — and every session that
// crossed it — land in one row.
func sumStats(pes int, stats []*spi.ExecStats) *lpc.ParallelStats {
	total := &lpc.ParallelStats{PEs: pes}
	var lists [][]spi.EdgeTraffic
	for _, st := range stats {
		if st == nil {
			continue
		}
		total.Messages += st.SPI.Messages
		total.WireBytes += st.SPI.WireBytes
		total.Acks += st.SPI.Acks
		total.AckBytes += st.SPI.AckBytes
		lists = append(lists, st.Edges)
	}
	total.Edges = mergeEdgeTraffic(lists...)
	return total
}

// fissionedInProcess runs actor D through the automatic fission pass —
// the serial error generator rewritten into k replicas behind
// scatter/gather stages — on the in-process runtime.
func fissionedInProcess(model *dsp.LPCModel, frame []float64, k int) ([]float64, *lpc.ParallelStats, error) {
	p := lpc.DefaultDeploy(len(frame), 1)
	p.SampleBytes = 8
	fs, err := lpc.FissionErrorGenSystem(p, k, 0)
	if err != nil {
		return nil, nil, err
	}
	var out []float64
	kernels, err := lpc.FissionResidualKernels(fs, model, frame, func(e []float64) { out = e })
	if err != nil {
		return nil, nil, err
	}
	st, err := spi.Execute(fs.Plan.Graph, fs.Mapping, kernels, 1)
	if err != nil {
		return nil, nil, err
	}
	return out, sumStats(k, []*spi.ExecStats{st}), nil
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
			m.Stats.Messages += e.Stats.Messages
			m.Stats.PayloadBytes += e.Stats.PayloadBytes
			m.Stats.WireBytes += e.Stats.WireBytes
			m.Stats.Acks += e.Stats.Acks
			m.Stats.AckBytes += e.Stats.AckBytes
			m.Stats.AcksPiggybacked += e.Stats.AcksPiggybacked
			m.Stats.AcksSuppressed += e.Stats.AcksSuppressed
			m.Stats.CreditWaits += e.Stats.CreditWaits
			if e.Stats.MaxQueued > m.Stats.MaxQueued {
				m.Stats.MaxQueued = e.Stats.MaxQueued
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make([]spi.EdgeTraffic, len(order))
	for i, id := range order {
		out[i] = *byID[id]
	}
	return out
}

// printEdgeTable renders the per-edge traffic breakdown.
func printEdgeTable(edges []spi.EdgeTraffic) {
	if len(edges) == 0 {
		return
	}
	fmt.Printf("  %-10s %-8s %9s %11s %10s %10s %10s %10s\n", "edge", "proto", "messages", "data bytes", "acks", "ack bytes", "piggyback", "suppressed")
	for _, e := range edges {
		fmt.Printf("  %-10s %-8s %9d %11d %10d %10d %10d %10d\n",
			e.Name, e.Protocol, e.Stats.Messages, e.Stats.WireBytes, e.Stats.Acks, e.Stats.AckBytes,
			e.Stats.AcksPiggybacked, e.Stats.AcksSuppressed)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Speech codec example: the paper's application 1 end-to-end. A synthetic
// speech-like signal is compressed with the LPC pipeline (FFT →
// autocorrelation → LU predictor → residual → Huffman), actor D is
// parallelized over SPI_dynamic edges, and the PE sweep of figure 6 is
// reproduced on the platform simulator.
package main

import (
	"fmt"
	"log"

	"repro/internal/dsp"
	"repro/internal/lpc"
	"repro/internal/signal"
	"repro/internal/spi"
)

func main() {
	p := lpc.DefaultParams()
	codec, err := lpc.NewCodec(p)
	if err != nil {
		log.Fatal(err)
	}
	x := signal.Speech(p.FrameSize*32, 2026)

	// Full codec pass with quality metrics.
	rep, err := codec.Analyze(x)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compressed %d frames: %.2fx ratio, %.1f dB SNR\n",
		rep.Frames, rep.Ratio, rep.SNRdB)

	// Wire-format roundtrip of the first frame.
	frames, err := codec.Compress(x[:p.FrameSize])
	if err != nil {
		log.Fatal(err)
	}
	wire, err := frames[0].MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	back, err := lpc.UnmarshalFrame(wire, 1<<uint(p.ErrorBits))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("frame wire format: %d bytes for %d samples (%.2f bits/sample)\n",
		len(wire), back.N, float64(len(wire))*8/float64(back.N))

	// Actor D on n PEs over the software SPI runtime, one node in this
	// process, checked against the serial residual.
	frame := x[:p.FrameSize]
	model, err := dsp.LPCAnalyze(frame, p.Order)
	if err != nil {
		log.Fatal(err)
	}
	serial := model.Residual(frame)
	for _, n := range []int{1, 2, 4} {
		par, stats, err := lpc.DistributedResidual(model, frame, n, 1, spi.DistOptions{Addrs: []string{"in-process"}})
		if err != nil {
			log.Fatal(err)
		}
		same := true
		for i := range serial {
			if serial[i] != par[i] {
				same = false
				break
			}
		}
		fmt.Printf("n=%d PEs: %d SPI messages, %d wire bytes, identical=%v\n",
			n, stats.SPI.Messages, stats.SPI.WireBytes, same)
	}

	// Figure-6 style timing sweep on the simulated platform.
	fmt.Println("\nsimulated execution time of actor D (us per frame):")
	fmt.Printf("%-12s", "samples")
	for _, n := range []int{1, 2, 3, 4} {
		fmt.Printf("  n=%d   ", n)
	}
	fmt.Println()
	for _, N := range []int{64, 128, 256, 512} {
		fmt.Printf("%-12d", N)
		for _, n := range []int{1, 2, 3, 4} {
			sys, err := lpc.ErrorGenSystem(lpc.DefaultDeploy(N, n))
			if err != nil {
				log.Fatal(err)
			}
			dep, err := spi.Build(sys)
			if err != nil {
				log.Fatal(err)
			}
			st, err := dep.Sim.Run(20)
			if err != nil {
				log.Fatal(err)
			}
			cfg := dep.Sim.Config()
			fmt.Printf("  %6.2f", st.Microseconds(cfg, st.Finish)/20)
		}
		fmt.Println()
	}
}

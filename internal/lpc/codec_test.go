package lpc

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/alloctest"
	"repro/internal/signal"
	"repro/internal/spi"
	"repro/internal/transport"
)

// serialFrames is the oracle: CompressFrame over every whole frame.
func serialFrames(t testing.TB, c *Codec, x []float64) []*Frame {
	t.Helper()
	var frames []*Frame
	for i := 0; (i+1)*c.p.FrameSize <= len(x); i++ {
		f, err := c.CompressFrame(x[i*c.p.FrameSize : (i+1)*c.p.FrameSize])
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	return frames
}

// runCodec runs Codec.Run on one node in process (chan) or split over two
// nodes — the I/O processors on node 0, the PEs on node 1 — on the named
// carrier, and returns node 0's frames.
func runCodec(t *testing.T, c *Codec, x []float64, carrier string, pes, block int) ([]*Frame, error) {
	t.Helper()
	if carrier == "chan" {
		frames, _, err := c.Run(x, pes, spi.DistOptions{Addrs: []string{"only"}, Block: block})
		return frames, err
	}
	var tr transport.Transport = &transport.TCP{}
	addr := "127.0.0.1:0"
	if carrier == "loopback" {
		tr, addr = transport.NewLoopback(), "codec0"
	}
	ln, err := tr.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr(), "unused"}
	var (
		frames [2][]*Frame
		errs   [2]error
		wg     sync.WaitGroup
	)
	for node := range frames {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			opts := spi.DistOptions{Transport: tr, Node: node, Addrs: addrs, Block: block,
				Retry: transport.RetryConfig{Attempts: 50, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}}
			if node == 0 {
				opts.Listener = ln
			}
			frames[node], _, errs[node] = c.Run(x, pes, opts)
		}(node)
	}
	wg.Wait()
	for node, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", node, err)
		}
	}
	if frames[1] != nil {
		t.Errorf("the PEs' node returned %d frames, want nil", len(frames[1]))
	}
	return frames[0], nil
}

// container is the EncodeStream container of frames.
func container(t *testing.T, c *Codec, frames []*Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := c.EncodeStream(&buf, frames); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodecMatchesSerialOracle: the codec on the executor produces the
// serial CompressFrame loop's frames, and so its container, on every
// carrier, at every PE count and block — 37 frames and a partial one, so a
// block of 16 ends in a partial block and the partial frame is dropped.
func TestCodecMatchesSerialOracle(t *testing.T) {
	c, _ := NewCodec(DefaultParams())
	x := signal.Speech(c.p.FrameSize*37+100, 13)
	want := serialFrames(t, c, x)
	wantStream := container(t, c, want)
	for _, carrier := range []string{"chan", "loopback", "tcp"} {
		for _, pes := range []int{1, 2, 4} {
			for _, block := range []int{1, 16} {
				t.Run(fmt.Sprintf("%s-pes%d-block%d", carrier, pes, block), func(t *testing.T) {
					got, err := runCodec(t, c, x, carrier, pes, block)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%d frames, want %d", len(got), len(want))
					}
					for i := range want {
						if !reflect.DeepEqual(got[i], want[i]) {
							t.Fatalf("frame %d differs from CompressFrame's", i)
						}
					}
					if !bytes.Equal(container(t, c, got), wantStream) {
						t.Error("container differs from the serial loop's")
					}
				})
			}
		}
	}

	t.Run("no frames", func(t *testing.T) {
		frames, st, err := c.Run(x[:c.p.FrameSize-1], 2, spi.DistOptions{})
		if err != nil || st != nil || frames == nil || len(frames) != 0 {
			t.Errorf("Run on less than a frame: %d frames, stats %v, err %v; want an empty slice and no run", len(frames), st, err)
		}
	})
	t.Run("kernel error", func(t *testing.T) {
		for _, p := range []Params{
			{FrameSize: 256, Order: 10, ErrorBits: 7, CoeffBits: 17},  // io_send's quantizer
			{FrameSize: 256, Order: 10, ErrorBits: 17, CoeffBits: 12}, // io_recv's quantizer
		} {
			bad, err := NewCodec(p)
			if err != nil {
				t.Fatal(err)
			}
			_, serr := bad.CompressFrame(x[:p.FrameSize])
			_, err = bad.Compress(x)
			if serr == nil || err == nil || !strings.Contains(err.Error(), "lpc: frame 0: "+serr.Error()) {
				t.Errorf("Compress: %v; want it to read lpc: frame 0: %v", err, serr)
			}
		}
	})
}

// TestAllocsCompress pins what Compress allocates per frame on the
// executor: the serial stages' own allocations (the FFT and LU design, the
// quantizers, the Huffman code and the frame it builds) and the model
// indices io_recv decodes; the D section allocates nothing per frame, where
// CompressFrame allocates the quantized model and its residual. Measured at
// 142–150 allocations and 20–26 kB a frame (CompressFrame: 210 and 27 kB).
// Only the count is pinned: the bytes follow how far io_send runs ahead of
// io_recv — every edge of the codec is UBS, so its queues take a buffer per
// frame in flight — and that is the goroutine scheduler's choice.
func TestAllocsCompress(t *testing.T) {
	c, _ := NewCodec(DefaultParams())
	x := signal.Speech(c.p.FrameSize*400, 5)
	perFrame, _ := alloctest.SteadyAndOpen(200, func(n int) {
		if _, err := c.Compress(x[:n*c.p.FrameSize]); err != nil {
			t.Fatal(err)
		}
	})
	alloctest.Check(t, "Compress: per frame", perFrame, alloctest.Allocs{N: 146})
}

// BenchmarkCompress times the codec's frames per second, the serial
// CompressFrame loop beside Compress on the executor.
func BenchmarkCompress(b *testing.B) {
	c, _ := NewCodec(DefaultParams())
	x := signal.Speech(c.p.FrameSize*1000, 1)
	frames := float64(len(x) / c.p.FrameSize)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serialFrames(b, c, x)
		}
		b.ReportMetric(frames*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	})
	b.Run("executor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Compress(x); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(frames*float64(b.N)/b.Elapsed().Seconds(), "frames/s")
	})
}

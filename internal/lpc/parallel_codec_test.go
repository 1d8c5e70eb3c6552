package lpc

import (
	"testing"

	"repro/internal/signal"
)

func TestCompressFrameParallelIdentical(t *testing.T) {
	// Orders below, at and above the deployment default of 10: the
	// coefficient payload and each section's history follow the model.
	for _, order := range []int{4, 10, 16} {
		p := DefaultParams()
		p.Order = order
		c, err := NewCodec(p)
		if err != nil {
			t.Fatal(err)
		}
		x := signal.Speech(c.Params().FrameSize, 41)
		serial, err := c.CompressFrame(x)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			par, stats, err := c.CompressFrameParallel(x, n)
			if err != nil {
				t.Fatalf("order=%d n=%d: %v", order, n, err)
			}
			sb, _ := serial.MarshalBinary()
			pb, _ := par.MarshalBinary()
			if string(sb) != string(pb) {
				t.Errorf("order=%d n=%d: parallel frame differs from serial", order, n)
			}
			if stats.SPI.Messages != int64(3*n) {
				t.Errorf("order=%d n=%d: messages = %d", order, n, stats.SPI.Messages)
			}
		}
	}
}

func TestCompressFrameParallelValidation(t *testing.T) {
	c, _ := NewCodec(DefaultParams())
	if _, _, err := c.CompressFrameParallel(make([]float64, 3), 2); err == nil {
		t.Error("wrong frame size should fail")
	}
	if _, _, err := c.CompressFrameParallel(signal.Speech(256, 1), 0); err == nil {
		t.Error("0 PEs should fail")
	}
}

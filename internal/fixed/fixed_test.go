package fixed

import (
	"math"
	"testing"
)

func TestFromFloatBasics(t *testing.T) {
	cases := map[float64]Q15{
		0:           0,
		0.5:         1 << 14,
		-0.5:        -(1 << 14),
		-1.0:        MinusOne,
		1.0:         One, // saturates
		2.0:         One,
		-2.0:        MinusOne,
		1.0 / 32768: 1,
	}
	for f, want := range cases {
		if got := FromFloat(f); got != want {
			t.Errorf("FromFloat(%v) = %d, want %d", f, got, want)
		}
	}
}

func TestRoundtripPrecision(t *testing.T) {
	for _, f := range []float64{0, 0.25, -0.75, 0.123, -0.999} {
		got := FromFloat(f).Float()
		if math.Abs(got-f) > 1.0/scale {
			t.Errorf("roundtrip %v -> %v, error beyond 1 LSB", f, got)
		}
	}
}

func TestSubSaturates(t *testing.T) {
	if Sub(One, MinusOne) != One {
		t.Error("positive overflow should saturate")
	}
	if Sub(MinusOne, One) != MinusOne {
		t.Error("negative overflow should saturate")
	}
}

func TestAccumulatorPrecision(t *testing.T) {
	// Summing many small products through the wide accumulator keeps them
	// at full Q30 precision until the one final rounding.
	n := 1000
	a := make([]Q15, n)
	b := make([]Q15, n)
	var want float64
	for i := range a {
		a[i] = FromFloat(0.02)
		b[i] = FromFloat(0.03)
		want += a[i].Float() * b[i].Float()
	}
	var acc Acc
	for i := range a {
		acc = acc.MAC(a[i], b[i])
	}
	got := acc.Q15().Float()
	if math.Abs(got-want) > 2.0/scale {
		t.Errorf("dot product = %v, want %v", got, want)
	}
}

func TestAccQ15Saturates(t *testing.T) {
	var acc Acc
	for i := 0; i < 100; i++ {
		acc = acc.MAC(One, One) // ~+1 each
	}
	if acc.Q15() != One {
		t.Error("accumulated overflow should saturate at conversion")
	}
	acc = 0
	for i := 0; i < 100; i++ {
		acc = acc.MAC(One, MinusOne)
	}
	if acc.Q15() != MinusOne {
		t.Error("negative accumulation should saturate")
	}
}

func TestSliceConversions(t *testing.T) {
	f := []float64{0.1, -0.2, 0.3}
	q := FromFloats(f)
	back := ToFloats(q)
	for i := range f {
		if math.Abs(back[i]-f[i]) > 1.0/scale {
			t.Errorf("slice roundtrip %v -> %v", f[i], back[i])
		}
	}
}

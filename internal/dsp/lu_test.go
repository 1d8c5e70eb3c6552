package dsp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func matFromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 => x = 1, y = 3.
	a := matFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := SolveSystem(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("x = %v, want [1 3]", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := matFromRows([][]float64{{0, 1}, {1, 0}})
	x, err := SolveSystem(a, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Errorf("x = %v, want [3 2]", x)
	}
}

func TestSingularDetected(t *testing.T) {
	a := matFromRows([][]float64{{1, 2}, {2, 4}})
	_, err := Decompose(a)
	if !errors.Is(err, ErrSingular) {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestSolveRejectsWrongRHS(t *testing.T) {
	a := matFromRows([][]float64{{1, 0}, {0, 1}})
	lu, _ := Decompose(a)
	if _, err := lu.Solve([]float64{1}); err == nil {
		t.Error("wrong rhs length should fail")
	}
}

func TestDecomposeDoesNotModifyInput(t *testing.T) {
	a := matFromRows([][]float64{{4, 3}, {6, 3}})
	orig := a.Clone()
	if _, err := Decompose(a); err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != orig.Data[i] {
			t.Fatal("Decompose modified its input")
		}
	}
}

// Property: for random diagonally dominant systems, Solve recovers x such
// that A x ~= b.
func TestSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(8)
		a := NewMatrix(n)
		for i := 0; i < n; i++ {
			var rowSum float64
			for j := 0; j < n; j++ {
				v := r.NormFloat64()
				a.Set(i, j, v)
				rowSum += math.Abs(v)
			}
			a.Set(i, i, a.At(i, i)+rowSum+1) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := SolveSystem(a, b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += a.At(i, j) * x[j]
			}
			if math.Abs(s-b[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestToeplitzFromAutocorrelation(t *testing.T) {
	r := []float64{10, 5, 2}
	m, err := ToeplitzFromAutocorrelation(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{10, 5, 2}, {5, 10, 5}, {2, 5, 10}}
	for i := range want {
		for j := range want[i] {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("T[%d][%d] = %v, want %v", i, j, m.At(i, j), want[i][j])
			}
		}
	}
	if _, err := ToeplitzFromAutocorrelation(r, 4); err == nil {
		t.Error("too few lags should fail")
	}
}

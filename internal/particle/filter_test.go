package particle

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/signal"
)

func testModel() Model {
	return Model{P: signal.DefaultCrackParams()}
}

func TestNewFilterValidation(t *testing.T) {
	if _, err := NewFilter(testModel(), 0, 1); err == nil {
		t.Error("0 particles should fail")
	}
}

func TestPropagateFloorsAtA0(t *testing.T) {
	m := testModel()
	rng := signal.NewRNG(1)
	for i := 0; i < 1000; i++ {
		if a := m.Propagate(m.P.A0, rng); a < m.P.A0 {
			t.Fatalf("propagated below floor: %v", a)
		}
	}
}

func TestLikelihoodPeaksAtObservation(t *testing.T) {
	m := testModel()
	at := m.Likelihood(2.0, 2.0)
	off := m.Likelihood(2.0, 2.5)
	if at <= off {
		t.Errorf("likelihood at truth %v !> off truth %v", at, off)
	}
}

func TestSerialFilterTracksCrack(t *testing.T) {
	p := signal.DefaultCrackParams()
	truth := signal.CrackTruth(200, p, 42)
	obs := signal.CrackObservations(truth, p, 43)
	f, err := NewFilter(Model{P: p}, 200, 44)
	if err != nil {
		t.Fatal(err)
	}
	ests := make([]float64, len(obs))
	for i, y := range obs {
		ests[i] = f.Step(y)
	}
	rmse := RMSE(ests, truth)
	if rmse > p.MeasureNoise {
		t.Errorf("filter RMSE %v worse than raw observation noise %v", rmse, p.MeasureNoise)
	}
}

func TestSystematicResampleConservesCount(t *testing.T) {
	rng := signal.NewRNG(5)
	particles := []float64{1, 2, 3, 4}
	weights := []float64{0, 0, 1, 0}
	out := SystematicResample(nil, particles, weights, 1, 8, rng)
	if len(out) != 8 {
		t.Fatalf("resampled %d, want 8", len(out))
	}
	for _, v := range out {
		if v != 3 {
			t.Errorf("all mass on particle 3, got %v", out)
			break
		}
	}
}

func TestSystematicResampleZeroWeights(t *testing.T) {
	rng := signal.NewRNG(5)
	out := SystematicResample(nil, []float64{1, 2}, []float64{0, 0}, 0, 4, rng)
	if len(out) != 4 {
		t.Fatalf("len = %d", len(out))
	}
}

func TestEstimateWeighted(t *testing.T) {
	est := Estimate([]float64{1, 3}, []float64{1, 3}, 4)
	if math.Abs(est-2.5) > 1e-12 {
		t.Errorf("estimate = %v, want 2.5", est)
	}
	// Zero-sum fallback: unweighted mean.
	if got := Estimate([]float64{1, 3}, []float64{0, 0}, 0); got != 2 {
		t.Errorf("fallback estimate = %v, want 2", got)
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Errorf("RMSE = %v", got)
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
}

// quotasOf is quotas into fresh slices.
func quotasOf(partialSums []float64, total int) []int {
	out := make([]int, len(partialSums))
	quotas(out, make([]float64, len(partialSums)), partialSums, total)
	return out
}

func TestQuotasProportionalAndExact(t *testing.T) {
	q := quotasOf([]float64{3, 1}, 100)
	if q[0]+q[1] != 100 {
		t.Fatalf("quota sum %d", q[0]+q[1])
	}
	if q[0] != 75 || q[1] != 25 {
		t.Errorf("quotas = %v, want [75 25]", q)
	}
}

func TestQuotasLargestRemainder(t *testing.T) {
	// 1/3 each of 100: two PEs get 33, one (lowest index on tie) gets 34.
	q := quotasOf([]float64{1, 1, 1}, 100)
	total := 0
	for _, v := range q {
		total += v
	}
	if total != 100 {
		t.Fatalf("sum = %d", total)
	}
	if q[0] != 34 || q[1] != 33 || q[2] != 33 {
		t.Errorf("quotas = %v, want [34 33 33]", q)
	}
}

func TestQuotasDegenerateSums(t *testing.T) {
	q := quotasOf([]float64{0, 0}, 10)
	if q[0]+q[1] != 10 {
		t.Errorf("degenerate quotas %v", q)
	}
}

func TestQuotasSumProperty(t *testing.T) {
	f := func(seed uint64, pes uint8, total uint8) bool {
		n := int(pes%6) + 1
		tot := int(total) + 1
		rng := signal.NewRNG(seed)
		sums := make([]float64, n)
		for i := range sums {
			sums[i] = rng.Float64()
		}
		q := quotasOf(sums, tot)
		got := 0
		for _, v := range q {
			if v < 0 {
				return false
			}
			got += v
		}
		return got == tot
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMigrationPlanBalances(t *testing.T) {
	// plan is every PE's row: plan[p][q] particles flow from PE p to PE q.
	plan := func(quota []int, perPE int) [][]int {
		rows := make([][]int, len(quota))
		for p := range rows {
			rows[p] = make([]int, len(quota))
			for q := range rows[p] {
				rows[p][q] = -1 // written over, not added to
			}
			migrationRow(rows[p], quota, perPE, p)
		}
		return rows
	}
	if got := plan([]int{7, 3}, 5); !reflect.DeepEqual(got, [][]int{{0, 2}, {0, 0}}) {
		t.Errorf("plan = %v, want 2 from PE0 to PE1", got)
	}
	if got := plan([]int{5, 5}, 5); !reflect.DeepEqual(got, [][]int{{0, 0}, {0, 0}}) {
		t.Errorf("balanced quotas plan %v, want no migration", got)
	}
	// Greedy in PE order: PE0's surplus of 4 fills PE1's deficit of 3, then
	// 1 of PE2's; PE3's surplus of 2 fills the rest of PE2's.
	if got := plan([]int{9, 2, 2, 7}, 5); !reflect.DeepEqual(got, [][]int{{0, 3, 1, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 2, 0}}) {
		t.Errorf("four-way plan = %v", got)
	}
}

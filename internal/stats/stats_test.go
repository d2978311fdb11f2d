package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestRankSumIdenticalDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	res, err := RankSum(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Errorf("same-distribution samples flagged significant: p=%v", res.P)
	}
}

func TestRankSumShiftedDistributions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64() + 1.0
	}
	res, err := RankSum(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.P >= 0.001 {
		t.Errorf("clearly shifted samples not significant: p=%v", res.P)
	}
	if res.Z > 0 {
		t.Errorf("x below y should give negative z, got %v", res.Z)
	}
}

func TestRankSumWithHeavyTies(t *testing.T) {
	// Complexity values are small integers with massive ties; the test
	// must stay numerically sane.
	x := []float64{1, 2, 2, 2, 3, 3, 1, 2, 2, 3}
	y := []float64{2, 3, 3, 3, 4, 4, 2, 3, 3, 4}
	res, err := RankSum(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.P) || res.P < 0 || res.P > 1 {
		t.Errorf("p = %v", res.P)
	}
	if res.P >= 0.05 {
		t.Errorf("shifted tie-heavy samples should be significant: p=%v", res.P)
	}
}

func TestRankSumAllIdenticalValues(t *testing.T) {
	x := []float64{2, 2, 2, 2}
	y := []float64{2, 2, 2, 2}
	res, err := RankSum(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 {
		t.Errorf("identical values: p = %v, want 1", res.P)
	}
}

func TestRankSumTooFew(t *testing.T) {
	if _, err := RankSum([]float64{1}, []float64{2, 3}); err == nil {
		t.Error("expected ErrTooFewSamples")
	}
}

func TestRankSumSymmetry(t *testing.T) {
	x := []float64{1, 3, 5, 7, 9, 11}
	y := []float64{2, 4, 6, 8, 10, 12}
	r1, err := RankSum(x, y)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RankSum(y, x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.P-r2.P) > 1e-12 {
		t.Errorf("p not symmetric: %v vs %v", r1.P, r2.P)
	}
	if math.Abs(r1.Z+r2.Z) > 1e-12 {
		t.Errorf("z not antisymmetric: %v vs %v", r1.Z, r2.Z)
	}
}

func TestRankSumKnownValue(t *testing.T) {
	// scipy.stats.mannwhitneyu([1,2,3,4,5], [6,7,8,9,10],
	// alternative='two-sided', method='asymptotic', use_continuity=True)
	// gives U1=0, z=-2.5068, p≈0.01219.
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{6, 7, 8, 9, 10}
	res, err := RankSum(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.U != 0 {
		t.Errorf("U = %v, want 0", res.U)
	}
	if math.Abs(res.Z+2.5068) > 0.001 {
		t.Errorf("z = %v, want ≈-2.5068", res.Z)
	}
	if math.Abs(res.P-0.01219) > 0.0005 {
		t.Errorf("p = %v, want ≈0.01219", res.P)
	}
}

func TestDescriptives(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if Mean(xs) != 2.5 {
		t.Errorf("Mean = %v", Mean(xs))
	}
	if Median(xs) != 2.5 {
		t.Errorf("Median = %v", Median(xs))
	}
	if Median([]float64{3, 1, 2}) != 2 {
		t.Error("odd-length median")
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-input descriptives should be 0")
	}
}

func TestStdNormalCDF(t *testing.T) {
	cases := map[float64]float64{0: 0.5, 1.96: 0.975, -1.96: 0.025}
	for z, want := range cases {
		if got := stdNormalCDF(z); math.Abs(got-want) > 0.001 {
			t.Errorf("Phi(%v) = %v, want %v", z, got, want)
		}
	}
}

func BenchmarkRankSum(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 609)
	y := make([]float64, 609)
	for i := range x {
		x[i] = float64(rng.Intn(6) + 1)
		y[i] = float64(rng.Intn(6) + 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RankSum(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// Package stats provides the statistical tests and descriptive statistics
// used by the paper's evaluation: the Wilcoxon rank-sum (Mann–Whitney U)
// test with normal approximation and tie correction, plus basic
// descriptive summaries.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrTooFewSamples is returned when a test needs more data.
var ErrTooFewSamples = errors.New("too few samples")

// RankSumResult reports a two-sided Wilcoxon rank-sum test.
type RankSumResult struct {
	// U is the Mann–Whitney U statistic for the first sample.
	U float64
	// Z is the normal-approximation z-score (tie-corrected).
	Z float64
	// P is the two-sided p-value.
	P float64
}

// RankSum performs the two-sided Wilcoxon rank-sum test on x and y, using
// the normal approximation with continuity and tie corrections (the same
// approach as scipy.stats.ranksums/mannwhitneyu for large samples).
func RankSum(x, y []float64) (RankSumResult, error) {
	n1, n2 := len(x), len(y)
	if n1 < 2 || n2 < 2 {
		return RankSumResult{}, ErrTooFewSamples
	}

	type obs struct {
		v     float64
		group int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range x {
		all = append(all, obs{v, 0})
	}
	for _, v := range y {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// midranks with tie groups
	ranks := make([]float64, len(all))
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		tieTerm += t*t*t - t
		i = j
	}

	var r1 float64
	for i, o := range all {
		if o.group == 0 {
			r1 += ranks[i]
		}
	}
	fn1, fn2 := float64(n1), float64(n2)
	u1 := r1 - fn1*(fn1+1)/2
	meanU := fn1 * fn2 / 2
	n := fn1 + fn2
	varU := fn1 * fn2 / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if varU <= 0 {
		// all values identical: no evidence of difference
		return RankSumResult{U: u1, Z: 0, P: 1}, nil
	}
	// continuity correction
	num := u1 - meanU
	switch {
	case num > 0.5:
		num -= 0.5
	case num < -0.5:
		num += 0.5
	default:
		num = 0
	}
	z := num / math.Sqrt(varU)
	p := 2 * (1 - stdNormalCDF(math.Abs(z)))
	if p > 1 {
		p = 1
	}
	return RankSumResult{U: u1, Z: z, P: p}, nil
}

// stdNormalCDF is the standard normal cumulative distribution function.
func stdNormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// Mean returns the arithmetic mean; zero for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

// Median returns the median; zero for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}

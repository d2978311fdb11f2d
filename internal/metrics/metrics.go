// Package metrics implements the classification and repair metrics of the
// paper's evaluation (Table II and Table III): confusion matrices with
// precision/recall/F1/accuracy, and repair rates relative to detected and
// total vulnerabilities.
package metrics

import "fmt"

// Confusion is a binary-classification confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add accumulates one judgement: predicted vs actual vulnerability.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && actual:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of judgements recorded.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Precision is TP / (TP + FP); zero when undefined.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP / (TP + FN); zero when undefined.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy is (TP + TN) / total.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// String renders the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d (P=%.2f R=%.2f F1=%.2f A=%.2f)",
		c.TP, c.FP, c.TN, c.FN, c.Precision(), c.Recall(), c.F1(), c.Accuracy())
}

// Repair tallies patching outcomes for one tool on one sample set
// (paper Table III).
type Repair struct {
	// Detected is the number of truly vulnerable samples the tool flagged.
	Detected int
	// TotalVulnerable is the number of truly vulnerable samples in the set.
	TotalVulnerable int
	// Patched is the number of vulnerable samples the tool repaired
	// correctly (verified by the oracle).
	Patched int
}

// RateDetected is Patched / Detected — the paper's "Patched [Det.]".
func (r Repair) RateDetected() float64 {
	if r.Detected == 0 {
		return 0
	}
	return float64(r.Patched) / float64(r.Detected)
}

// RateTotal is Patched / TotalVulnerable — the paper's "Patched [Tot.]".
func (r Repair) RateTotal() float64 {
	if r.TotalVulnerable == 0 {
		return 0
	}
	return float64(r.Patched) / float64(r.TotalVulnerable)
}

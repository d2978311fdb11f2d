package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestConfusionBasics(t *testing.T) {
	var c Confusion
	c.Add(true, true)   // TP
	c.Add(true, false)  // FP
	c.Add(false, true)  // FN
	c.Add(false, false) // TN
	if c.TP != 1 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("c = %+v", c)
	}
	if c.Total() != 4 {
		t.Errorf("total = %d", c.Total())
	}
	if c.Precision() != 0.5 || c.Recall() != 0.5 || c.F1() != 0.5 || c.Accuracy() != 0.5 {
		t.Errorf("metrics: %s", c)
	}
}

func TestConfusionPaperShape(t *testing.T) {
	// A PatchitPy-like matrix: P=.97, R=.88 -> F1≈.93.
	c := Confusion{TP: 410, FP: 12, FN: 55, TN: 132}
	if p := c.Precision(); math.Abs(p-0.9716) > 0.001 {
		t.Errorf("P = %v", p)
	}
	if r := c.Recall(); math.Abs(r-0.8817) > 0.001 {
		t.Errorf("R = %v", r)
	}
	if f := c.F1(); math.Abs(f-0.9245) > 0.001 {
		t.Errorf("F1 = %v", f)
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 || c.Accuracy() != 0 {
		t.Error("empty matrix must give zeros, not NaN")
	}
	perfect := Confusion{TP: 10, TN: 10}
	if perfect.F1() != 1 || perfect.Accuracy() != 1 {
		t.Errorf("perfect: %s", perfect)
	}
}

func TestConfusionString(t *testing.T) {
	s := Confusion{TP: 1}.String()
	if !strings.Contains(s, "TP=1") {
		t.Error(s)
	}
}

// Property: all four rates stay in [0,1] for any non-negative counts.
func TestRatesBounded(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		for _, v := range []float64{c.Precision(), c.Recall(), c.F1(), c.Accuracy()} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: F1 lies between min and max of precision and recall.
func TestF1Between(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		c := Confusion{TP: int(tp) + 1, FP: int(fp), FN: int(fn)}
		p, r, f1 := c.Precision(), c.Recall(), c.F1()
		lo, hi := math.Min(p, r), math.Max(p, r)
		return f1 >= lo-1e-12 && f1 <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestRepairRates(t *testing.T) {
	r := Repair{Detected: 150, TotalVulnerable: 169, Patched: 102}
	if got := r.RateDetected(); math.Abs(got-0.68) > 0.0001 {
		t.Errorf("RateDetected = %v", got)
	}
	if got := r.RateTotal(); math.Abs(got-102.0/169.0) > 1e-9 {
		t.Errorf("RateTotal = %v", got)
	}
}

func TestRepairZeroDenominators(t *testing.T) {
	var r Repair
	if r.RateDetected() != 0 || r.RateTotal() != 0 {
		t.Error("zero denominators must give 0")
	}
}

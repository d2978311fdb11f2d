package trace

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Unix(1000, 0)

func at(ms float64) time.Time { return t0.Add(time.Duration(ms * float64(time.Millisecond))) }

// span builds a synthetic span from millisecond offsets.
func span(id, parent int64, name, op string, start, end float64) Span {
	return Span{ID: id, Parent: parent, Name: name, Op: op, Start: at(start), End: at(end)}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		span(1, 0, "wire", "a", 0, 10),           // 10 ms
		span(2, 1, "serve.handler", "a", 20, 26), // 6 ms
		span(3, 2, "core.handle", "a", 30, 34),   // 4 ms
		span(4, 3, "detect.scan", "a", 40, 43),   // 3 ms
		span(5, 3, "patch.apply", "a", 50, 52),   // 2 ms: children outgrow core.handle
		span(6, 2, "serve.decode", "a", 60, 61),  // 1 ms
	}
	self := SelfTimes(spans)
	want := map[int64]time.Duration{
		1: 4 * time.Millisecond, // 10 - 6
		2: 1 * time.Millisecond, // 6 - (4 + 1)
		3: 0,                    // 4 - min(4, 3+2)
		4: 3 * time.Millisecond,
		5: 2 * time.Millisecond,
		6: 1 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestUnattributed(t *testing.T) {
	spans := []Span{
		// Op a: wire 10, handler 6 with children 2+1: attributed 3+2+1.
		span(1, 0, "wire", "a", 0, 10),
		span(2, 1, "serve.handler", "a", 20, 26),
		span(3, 2, "core.handle", "a", 30, 32),
		span(4, 2, "serve.decode", "a", 40, 41),
		// Op b: children claim more than the wire time; the residual
		// floors at zero.
		span(5, 0, "wire", "b", 0, 2),
		span(6, 5, "serve.handler", "b", 10, 15),
		// Op c: a wire span with nothing replayed is left out.
		span(7, 0, "wire", "c", 0, 4),
	}
	wire, rest := Unattributed(spans, "wire")
	if len(wire) != 2 {
		t.Fatalf("ops with a residual: %v, want a and b", wire)
	}
	if wire["a"] != 10*time.Millisecond || rest["a"] != 4*time.Millisecond {
		t.Errorf("op a: wire %v rest %v, want 10ms and 4ms", wire["a"], rest["a"])
	}
	if rest["b"] != 0 {
		t.Errorf("op b: rest %v, want 0", rest["b"])
	}
	// The residual equals the wire span's self time when the layers
	// beneath it telescope.
	if self := SelfTimes(spans); self[1] != rest["a"] {
		t.Errorf("op a: wire self %v != residual %v", self[1], rest["a"])
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median %v, want 3", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q1 %v, want 2", got)
	}
	if got := Quantile(xs, 0.9); math.Abs(got-4.6) > 1e-9 {
		t.Errorf("p90 %v, want 4.6", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

// TestTailQuantileRule checks the reporting rule: a percentile is
// reported only with at least ten samples beyond it, else the next lower
// rung of the ladder.
func TestTailQuantileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{1000, 0.99}, // exactly 10 beyond p99
		{999, 0.95},
		{200, 0.95},
		{199, 0.9},
		{100, 0.9},
		{40, 0.75},
		{39, 0.5},
		{3, 0.5},
	}
	for _, c := range cases {
		if got := TailQuantile(c.n, 0.99); got != c.want {
			t.Errorf("n=%d: tail quantile %v, want %v", c.n, got, c.want)
		}
	}
	if !Supported(1000, 0.99) || Supported(999, 0.99) {
		t.Error("p99 needs 1000 samples")
	}
	if got := TailQuantile(1e6, 0.99); got != 0.99 {
		t.Errorf("the rule must not report above the wanted percentile: got %v", got)
	}
}

func TestHDQuantile(t *testing.T) {
	if got := betaInc(2, 3, 0.4); math.Abs(got-0.5248) > 1e-9 {
		t.Errorf("I_0.4(2,3) = %v, want 0.5248", got)
	}
	if got := HDQuantile([]float64{5, 1, 4, 2, 3}, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("median of 1..5: %v, want 3", got)
	}
	// A median falling in the gap between two equal clusters reads the
	// middle of the gap, not whichever edge one order statistic lands on.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = 4
		if i%2 == 1 {
			xs[i] = 12
		}
	}
	if got := HDQuantile(xs, 0.5); math.Abs(got-8) > 0.01 {
		t.Errorf("median across a gap: %v, want 8", got)
	}
	// p99 of 1000 exponential-like samples tracks the order statistics.
	for i := range xs {
		xs[i] = -math.Log(1 - (float64(i)+0.5)/1000)
	}
	if got, want := HDQuantile(xs, 0.99), -math.Log(0.01); math.Abs(got-want) > 0.15 {
		t.Errorf("p99: %v, want about %v", got, want)
	}
	if !math.IsNaN(HDQuantile(nil, 0.5)) {
		t.Error("no samples should give NaN")
	}
}

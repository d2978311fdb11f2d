package obs

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_ops_total")
	g := reg.Gauge("test_active")
	vec := reg.CounterVec("test_labeled_total", "kind")

	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			label := []string{"a", "b"}[w%2]
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Inc()
				vec.Add(label, 1)
				g.Dec()
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0 after balanced inc/dec", got)
	}
	if a, b := vec.With("a").Value(), vec.With("b").Value(); a+b != workers*perWorker {
		t.Errorf("vec children = %d + %d, want total %d", a, b, workers*perWorker)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram(nil)
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w+1) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("count = %d, want %d", got, workers*perWorker)
	}
	// Sum of w+1 for w in [0,8) is 36µs per round.
	want := float64(36*perWorker) / 1e6
	if got := h.Sum(); got != want {
		t.Errorf("sum = %g, want %g", got, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01, 0.1})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
	for i := 0; i < 100; i++ {
		h.Observe(500 * time.Microsecond) // first bucket
	}
	p50 := h.Quantile(0.5)
	if p50 <= 0 || p50 > 0.001 {
		t.Errorf("p50 = %g, want within first bucket (0, 0.001]", p50)
	}
	// Overflow observations report the largest bound.
	h2 := newHistogram([]float64{0.001})
	h2.Observe(time.Second)
	if got := h2.Quantile(0.99); got != 0.001 {
		t.Errorf("overflow quantile = %g, want largest bound 0.001", got)
	}
	if got := h2.Count(); got != 1 {
		t.Errorf("overflow count = %d, want 1", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_metric")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("test_metric")
}

func TestFnMetricReplaced(t *testing.T) {
	reg := NewRegistry()
	reg.GaugeFunc("test_fn", func() float64 { return 1 })
	reg.GaugeFunc("test_fn", func() float64 { return 2 })
	if got := reg.Snapshot().Gauges["test_fn"]; got != 2 {
		t.Errorf("fn gauge = %g, want replacement value 2", got)
	}
	reg.CounterFuncL("test_fn_l", "cache", "scan", func() float64 { return 3 })
	reg.CounterFuncL("test_fn_l", "cache", "scan", func() float64 { return 4 })
	if got := reg.Snapshot().Counters[`test_fn_l{cache="scan"}`]; got != 4 {
		t.Errorf("labeled fn counter = %g, want replacement value 4", got)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var reg *Registry
	if reg.Enabled() {
		t.Error("nil registry reports enabled")
	}
	if tb := reg.TraceBuckets(); len(tb.Recent)+len(tb.Slow)+len(tb.Errors) != 0 {
		t.Error("nil registry returns traces")
	}
	if got := From(context.Background()); got != nil {
		t.Errorf("From(empty ctx) = %v, want nil", got)
	}
}

// fixtureRegistry builds a registry with fully deterministic values for
// the exposition golden test.
func fixtureRegistry() *Registry {
	reg := NewRegistry()
	reg.Counter("patchitpy_scans_total").Add(3)
	reg.Gauge("patchitpy_pool_workers").Set(4)
	rv := reg.CounterVec("patchitpy_rule_findings_total", "rule")
	rv.Add("PIP-INJ-005", 2)
	rv.Add("PIP-CRY-001", 1)
	dv := reg.DurationCounterVec("patchitpy_rule_time_seconds_total", "rule")
	dv.AddDuration("PIP-INJ-005", 1500*time.Microsecond)
	reg.GaugeFunc("patchitpy_cache_hit_rate", func() float64 { return 0.25 })
	h := reg.Histogram("patchitpy_scan_duration_seconds", []float64{0.001, 0.01, 0.1})
	h.Observe(500 * time.Microsecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(time.Second) // overflow
	hv := reg.HistogramVec("patchitpy_serve_duration_seconds", "cmd", []float64{0.001, 0.01})
	hv.Observe("detect", 2*time.Millisecond)
	return reg
}

func TestPrometheusGolden(t *testing.T) {
	var buf strings.Builder
	if err := fixtureRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/metrics.golden"
	if *update {
		if err := os.WriteFile(path, []byte(buf.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != string(want) {
		t.Errorf("Prometheus exposition drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestSnapshotHistogram(t *testing.T) {
	snap := fixtureRegistry().Snapshot()
	h, ok := snap.Histograms["patchitpy_scan_duration_seconds"]
	if !ok {
		t.Fatal("scan duration histogram missing from snapshot")
	}
	if h.Count != 3 {
		t.Errorf("count = %d, want 3", h.Count)
	}
	if want := 1.0055; h.Sum != want {
		t.Errorf("sum = %g, want %g", h.Sum, want)
	}
	last := h.Buckets[len(h.Buckets)-1]
	if last.LE != "+Inf" || last.Count != h.Count {
		t.Errorf("last bucket = %+v, want le=+Inf count=%d", last, h.Count)
	}
	for i := 1; i < len(h.Buckets); i++ {
		if h.Buckets[i].Count < h.Buckets[i-1].Count {
			t.Errorf("bucket counts not cumulative at %d: %+v", i, h.Buckets)
		}
	}
	if ck := `patchitpy_rule_time_seconds_total{rule="PIP-INJ-005"}`; snap.Counters[ck] != 0.0015 {
		t.Errorf("duration counter = %g, want 0.0015 (seconds)", snap.Counters[ck])
	}
}

func TestSummaryLine(t *testing.T) {
	reg := NewRegistry()
	reg.CounterFuncL(MetricCacheHits, "cache", "scan", func() float64 { return 3 })
	reg.CounterFuncL(MetricCacheMisses, "cache", "scan", func() float64 { return 1 })
	h := reg.Histogram(MetricRuleDuration, []float64{0.001})
	h.Observe(500 * time.Microsecond)
	snap := reg.Snapshot()
	if got := snap.CacheHitRate(); got != 0.75 {
		t.Errorf("hit rate = %g, want 0.75", got)
	}
	line := snap.SummaryLine(10, 4)
	for _, part := range []string{"scanned 10 files", "4 findings", "hit-rate 75.0%", "p50", "p99"} {
		if !strings.Contains(line, part) {
			t.Errorf("summary %q missing %q", line, part)
		}
	}
}

func TestSpanNesting(t *testing.T) {
	reg := NewRegistry()
	reg.Enable()
	ctx := With(context.Background(), reg)

	ctx, root := Start(ctx, "scan")
	if root == nil {
		t.Fatal("enabled registry did not start a root span")
	}
	cctx, child := Start(ctx, "prefilter")
	_, grandchild := Start(cctx, "regex")
	// grandchild never ended: must inherit the parent chain's end time.
	_ = grandchild
	child.End()
	_, sibling := Start(ctx, "rule-match")
	sibling.End()
	root.End()

	traces := reg.TraceBuckets().Recent
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Name != "scan" || len(tr.Children) != 2 {
		t.Fatalf("root = %q with %d children, want scan with 2", tr.Name, len(tr.Children))
	}
	if tr.Children[0].Name != "prefilter" || tr.Children[1].Name != "rule-match" {
		t.Errorf("children = %q, %q; want prefilter, rule-match", tr.Children[0].Name, tr.Children[1].Name)
	}
	if len(tr.Children[0].Children) != 1 || tr.Children[0].Children[0].Name != "regex" {
		t.Errorf("grandchild missing: %+v", tr.Children[0])
	}
	if d := tr.Children[0].Children[0].DurationMS; d < 0 {
		t.Errorf("un-ended grandchild duration = %g, want >= 0", d)
	}
}

func TestSpanDisabled(t *testing.T) {
	reg := NewRegistry() // not enabled
	ctx := With(context.Background(), reg)
	_, sp := Start(ctx, "scan")
	if sp != nil {
		t.Error("disabled registry started a span")
	}
	sp.End() // nil-safe
	if got := reg.TraceBuckets().Recent; len(got) != 0 {
		t.Errorf("disabled registry recorded %d traces", len(got))
	}
	// No registry at all: also a no-op.
	if _, sp := Start(context.Background(), "scan"); sp != nil {
		t.Error("registry-less context started a span")
	}
}

func TestTraceRingEviction(t *testing.T) {
	reg := NewRegistry()
	reg.Enable()
	ctx := With(context.Background(), reg)
	for i := 0; i <= DefaultTraceCapacity; i++ {
		_, sp := Start(ctx, fmt.Sprintf("t%d", i))
		sp.End()
	}
	traces := reg.TraceBuckets().Recent
	if len(traces) != DefaultTraceCapacity {
		t.Fatalf("got %d traces, want capacity %d", len(traces), DefaultTraceCapacity)
	}
	newest, oldest := fmt.Sprintf("t%d", DefaultTraceCapacity), "t1"
	if traces[0].Name != newest || traces[len(traces)-1].Name != oldest {
		t.Errorf("retained %q..%q; want newest-first %s..%s", traces[0].Name, traces[len(traces)-1].Name, newest, oldest)
	}
}

// Package obs is PatchitPy's zero-dependency observability core: named
// counters, gauges and fixed-bucket latency histograms in a Registry,
// lightweight span tracing with a bounded in-memory ring of recent
// traces, and exposition as expvar-style JSON or Prometheus text.
//
// Three design rules shape the package:
//
//   - stdlib only, so every engine package (detect, workpool,
//     resultcache, core) can depend on it without cycles;
//   - recording is cheap and the off-state is free: instruments are
//     plain atomics behind pre-registered handles, and instrumentation
//     sites gate on Registry.Enabled() — a single atomic load — so a
//     library user who never attaches an exporter pays nothing
//     measurable on the hot path (the bench guard BenchmarkScanCorpusObs
//     holds this under 3%);
//   - exposition is pull-based and single-sourced: Snapshot(),
//     WritePrometheus, the serve protocol's "metrics" verb and the
//     debug HTTP server all read the same counters, so every frontend
//     reports the same numbers.
//
// The canonical metric names live in names.go; DESIGN.md's
// "Observability" section is the human-readable catalog.
package obs

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind classifies a metric family for exposition.
type Kind uint8

const (
	// KindCounter is a monotonically increasing value.
	KindCounter Kind = iota + 1
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket latency distribution.
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// unit tags how a family's raw uint64 values translate to exposition.
type unit uint8

const (
	unitNone  unit = iota // expose the value as-is
	unitNanos             // nanoseconds, exposed as seconds
)

// family is one named metric: either a single unlabeled instrument, or a
// set of children keyed by the value of one label.
type family struct {
	name    string
	kind    Kind
	label   string // label key; "" = unlabeled
	unit    unit
	buckets []float64 // histogram bounds (seconds)

	// Unlabeled instruments (exactly one is non-nil for the family's
	// kind; fn-backed families have fn set instead).
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() float64

	// children maps label value -> instrument (*Counter, *Gauge,
	// *Histogram, or func() float64) for labeled families.
	children sync.Map
}

// Registry is a named set of metrics plus a tracer. It is safe for
// concurrent use. The zero value is not usable; call NewRegistry.
//
// A Registry starts disabled: Enabled() reports false, and well-behaved
// instrumentation sites skip their timing and recording work entirely.
// Frontends that export metrics (the CLIs' -metrics-out, serve's
// -debug-addr and "metrics" verb) call Enable first.
type Registry struct {
	enabled  atomic.Bool
	mu       sync.Mutex
	families map[string]*family
	tracer   *Tracer
}

// NewRegistry returns an empty, disabled registry with a
// DefaultTraceCapacity-sized trace ring.
func NewRegistry() *Registry {
	return &Registry{
		families: map[string]*family{},
		tracer:   newTracer(),
	}
}

// Enable turns recording on: Enabled() reports true and instrumentation
// sites start paying for clocks and atomics.
func (r *Registry) Enable() { r.enabled.Store(true) }

// Enabled reports whether instrumentation sites should record. It is
// safe to call on a nil registry (reports false), so callers can gate on
// an optional registry without a separate nil check.
func (r *Registry) Enabled() bool {
	if r == nil {
		return false
	}
	return r.enabled.Load()
}

// family returns the named family, creating it on first registration.
// Re-registering a name with a different kind or label key panics: that
// is a wiring bug, not a runtime condition.
func (r *Registry) family(name string, kind Kind, label string, u unit, buckets []float64) *family {
	if name == "" {
		panic("obs: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.label != label {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s{%s}, was %s{%s}",
				name, kind, label, f.kind, f.label))
		}
		return f
	}
	f := &family{name: name, kind: kind, label: label, unit: u, buckets: buckets}
	switch {
	case label != "":
		// children created lazily per label value
	case kind == KindCounter:
		f.counter = &Counter{}
	case kind == KindGauge:
		f.gauge = &Gauge{}
	case kind == KindHistogram:
		f.hist = newHistogram(buckets)
	}
	r.families[name] = f
	return f
}

// sortedFamilies returns the families in name order for deterministic
// exposition.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// Counter registers (or fetches) the named unlabeled counter.
func (r *Registry) Counter(name string) *Counter {
	return r.family(name, KindCounter, "", unitNone, nil).counter
}

// Gauge registers (or fetches) the named unlabeled gauge.
func (r *Registry) Gauge(name string) *Gauge {
	return r.family(name, KindGauge, "", unitNone, nil).gauge
}

// Histogram registers (or fetches) the named unlabeled histogram. A nil
// buckets slice uses DefaultLatencyBuckets. Buckets are fixed at first
// registration.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	return r.family(name, KindHistogram, "", unitNone, buckets).hist
}

// CounterVec registers (or fetches) a counter family keyed by one label.
func (r *Registry) CounterVec(name, label string) *Vec {
	return &Vec{f: r.family(name, KindCounter, label, unitNone, nil)}
}

// DurationCounterVec registers a labeled counter that accumulates
// nanoseconds and is exposed in seconds (for *_seconds_total names).
func (r *Registry) DurationCounterVec(name, label string) *Vec {
	return &Vec{f: r.family(name, KindCounter, label, unitNanos, nil)}
}

// HistogramVec registers (or fetches) a histogram family keyed by one
// label. A nil buckets slice uses DefaultLatencyBuckets.
func (r *Registry) HistogramVec(name, label string, buckets []float64) *HistogramVec {
	return &HistogramVec{f: r.family(name, KindHistogram, label, unitNone, buckets)}
}

// CounterFunc registers a pull-style counter: fn is evaluated at
// exposition time. Registering the same name again replaces fn, so
// components that own pre-existing atomic counters (the result caches,
// the prefilter accounting) can re-wire across reconfiguration.
func (r *Registry) CounterFunc(name string, fn func() float64) {
	r.family(name, KindCounter, "", unitNone, nil).fn = fn
}

// GaugeFunc registers a pull-style gauge (see CounterFunc).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.family(name, KindGauge, "", unitNone, nil).fn = fn
}

// CounterFuncL registers a pull-style counter under name{label="value"}.
// Re-registering the same (name, value) replaces the previous fn.
func (r *Registry) CounterFuncL(name, label, value string, fn func() float64) {
	r.family(name, KindCounter, label, unitNone, nil).children.Store(value, fn)
}

// GaugeFuncL registers a pull-style gauge under name{label="value"}.
func (r *Registry) GaugeFuncL(name, label, value string, fn func() float64) {
	r.family(name, KindGauge, label, unitNone, nil).children.Store(value, fn)
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic up/down value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Vec is a counter family keyed by one label value (rule ID, analyzer
// name, serve verb, ...). Children are created on first use and live for
// the registry's lifetime, so label values must be low-cardinality.
type Vec struct{ f *family }

// With returns the counter for the given label value.
func (v *Vec) With(value string) *Counter {
	if c, ok := v.f.children.Load(value); ok {
		return c.(*Counter)
	}
	c, _ := v.f.children.LoadOrStore(value, &Counter{})
	return c.(*Counter)
}

// Add adds n to the counter for value.
func (v *Vec) Add(value string, n uint64) { v.With(value).Add(n) }

// AddDuration accumulates d into the counter for value. Only meaningful
// on families registered with DurationCounterVec.
func (v *Vec) AddDuration(value string, d time.Duration) {
	v.With(value).Add(uint64(d.Nanoseconds()))
}

// HistogramVec is a histogram family keyed by one label value.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram {
	if h, ok := v.f.children.Load(value); ok {
		return h.(*Histogram)
	}
	h, _ := v.f.children.LoadOrStore(value, newHistogram(v.f.buckets))
	return h.(*Histogram)
}

// Observe records d in the histogram for value.
func (v *HistogramVec) Observe(value string, d time.Duration) {
	v.With(value).Observe(d)
}

// ObserveExemplar records d in the histogram for value with a trace-ID
// exemplar (see Histogram.ObserveExemplar).
func (v *HistogramVec) ObserveExemplar(value string, d time.Duration, tid TraceID) {
	v.With(value).ObserveExemplar(d, tid)
}

// ctxRegKey carries the active registry in a context, so layers without
// an explicit registry parameter (workpool.Run, spans inside the scan)
// can find it.
type ctxRegKey struct{}

// With returns a context carrying reg. Passing the context down a call
// chain makes the registry visible to From and activates span tracing
// for obs.Start calls beneath it (when reg is enabled).
func With(ctx context.Context, reg *Registry) context.Context {
	return context.WithValue(ctx, ctxRegKey{}, reg)
}

// From returns the registry carried by ctx, or nil.
func From(ctx context.Context) *Registry {
	reg, _ := ctx.Value(ctxRegKey{}).(*Registry)
	return reg
}

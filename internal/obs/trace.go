package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceCapacity is the recent-trace ring size: enough recent
// traces to inspect a burst of serve requests, small enough to never
// matter for memory.
const DefaultTraceCapacity = 64

// DefaultSlowTraceCapacity and DefaultErrorTraceCapacity size the
// tail-retention rings: slow and error traces are rare and precious, so
// they get their own bounded rings that high-volume fast traffic cannot
// evict.
const (
	DefaultSlowTraceCapacity  = 32
	DefaultErrorTraceCapacity = 32
)

// DefaultSlowTraceThreshold is the root-span duration at or above which
// a finished trace is also retained in the slow ring.
const DefaultSlowTraceThreshold = 100 * time.Millisecond

// Span-tree bounds. Per-rule instrumentation of an 85-rule catalog fans
// out wide; these caps keep a pathological trace (every rule firing on
// a huge document, or a mis-instrumented loop) from growing without
// bound. Refused spans are counted in the would-be parent's
// droppedSpans.
const (
	// MaxChildrenPerSpan caps the direct children of one span.
	MaxChildrenPerSpan = 64
	// MaxSpansPerTrace caps the total spans in one trace, root included.
	MaxSpansPerTrace = 512
)

// SpanData is one finished span in an exported trace: identity, a name,
// wall-clock bounds, typed attributes, error status, and the nested
// child phases. It is the JSON shape served at /debug/traces. TraceID
// is set on root spans only; children inherit it.
type SpanData struct {
	TraceID      string         `json:"traceId,omitempty"`
	SpanID       string         `json:"spanId,omitempty"`
	Name         string         `json:"name"`
	Start        time.Time      `json:"start"`
	DurationMS   float64        `json:"durationMs"`
	Attrs        map[string]any `json:"attrs,omitempty"`
	Error        string         `json:"error,omitempty"`
	DroppedSpans int            `json:"droppedSpans,omitempty"`
	Children     []SpanData     `json:"children,omitempty"`
}

// hasError reports whether the span or any descendant recorded an
// error.
func (sd *SpanData) hasError() bool {
	if sd.Error != "" {
		return true
	}
	for i := range sd.Children {
		if sd.Children[i].hasError() {
			return true
		}
	}
	return false
}

// traceRing is a fixed-size ring of finished traces. All methods assume
// the caller holds the owning Tracer's mutex.
type traceRing struct {
	ring []SpanData
	next int // index the next trace lands in
	size int // live entries, <= len(ring)
}

func newTraceRing(capacity int) traceRing {
	return traceRing{ring: make([]SpanData, capacity)}
}

func (t *traceRing) push(sd SpanData) {
	t.ring[t.next] = sd
	t.next = (t.next + 1) % len(t.ring)
	if t.size < len(t.ring) {
		t.size++
	}
}

// newestFirst returns the retained traces, newest first.
func (t *traceRing) newestFirst() []SpanData {
	out := make([]SpanData, 0, t.size)
	for i := 1; i <= t.size; i++ {
		out = append(out, t.ring[(t.next-i+len(t.ring))%len(t.ring)])
	}
	return out
}

// Tracer retains finished root traces in three bounded rings: every
// recent trace, plus dedicated tail-retention rings for slow traces
// (root duration at or above DefaultSlowTraceThreshold) and traces
// containing an errored span — so the interesting outliers survive
// high-volume fast traffic that would otherwise evict them within
// seconds.
type Tracer struct {
	mu     sync.Mutex
	recent traceRing
	slow   traceRing
	errs   traceRing
}

func newTracer() *Tracer {
	return &Tracer{
		recent: newTraceRing(DefaultTraceCapacity),
		slow:   newTraceRing(DefaultSlowTraceCapacity),
		errs:   newTraceRing(DefaultErrorTraceCapacity),
	}
}

// record stores one finished root trace, routing it additionally into
// the slow and error rings when it qualifies.
func (t *Tracer) record(sd SpanData) {
	hasErr := sd.hasError()
	t.mu.Lock()
	t.recent.push(sd)
	if sd.DurationMS >= float64(DefaultSlowTraceThreshold)/float64(time.Millisecond) {
		t.slow.push(sd)
	}
	if hasErr {
		t.errs.push(sd)
	}
	t.mu.Unlock()
}

// TraceBuckets is the full retained-trace export: the recent ring plus
// the slow and error tail-retention rings, each newest first.
type TraceBuckets struct {
	Recent []SpanData `json:"recent"`
	Slow   []SpanData `json:"slow"`
	Errors []SpanData `json:"errors"`
}

// TraceBuckets returns all retained traces: recent, slow, and error
// rings, each newest first. Never-nil slices, so the JSON shape is
// stable.
func (r *Registry) TraceBuckets() TraceBuckets {
	tb := TraceBuckets{Recent: []SpanData{}, Slow: []SpanData{}, Errors: []SpanData{}}
	if r == nil || r.tracer == nil {
		return tb
	}
	t := r.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	tb.Recent = t.recent.newestFirst()
	tb.Slow = t.slow.newestFirst()
	tb.Errors = t.errs.newestFirst()
	return tb
}

// traceState is the per-trace identity and accounting shared by every
// span in one trace.
type traceState struct {
	traceID TraceID
	spans   atomic.Int64 // spans created in this trace, root included
}

// attr is one key/value span attribute.
type attr struct {
	key string
	val any
}

// Span is one live phase of a trace. A nil *Span is the no-op span
// every method accepts, so call sites never branch on whether tracing
// is active.
type Span struct {
	tracer *Tracer
	state  *traceState
	parent *Span
	name   string
	id     SpanID
	start  time.Time

	mu       sync.Mutex
	end      time.Time
	attrs    []attr
	err      string
	dropped  int // children refused by the span/trace caps
	children []*Span
}

// ctxSpanKey carries the active span in a context.
type ctxSpanKey struct{}

// Start begins a span named name. If ctx already carries a span, the
// new span becomes its child; otherwise a root span starts, provided
// ctx carries an enabled registry (see With) — without one, Start is a
// no-op returning ctx unchanged and a nil span. A root span adopts the
// trace ID ingested via WithTrace when present, else a random 128-bit
// ID.
//
// End the returned span exactly once. When a root span ends, the
// finished trace is pushed into the registry's retention rings. When
// the span or trace is at its size cap, Start returns ctx unchanged and
// a nil span, and the refusal is counted in the parent's droppedSpans.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if parent, ok := ctx.Value(ctxSpanKey{}).(*Span); ok && parent != nil {
		sp := parent.newChild(name, time.Now())
		if sp == nil {
			return ctx, nil
		}
		return context.WithValue(ctx, ctxSpanKey{}, sp), sp
	}
	reg := From(ctx)
	if !reg.Enabled() {
		return ctx, nil
	}
	reg.mu.Lock()
	tracer := reg.tracer
	reg.mu.Unlock()
	if tracer == nil {
		return ctx, nil
	}
	tid := TraceID{}
	if t, ok := ctx.Value(ctxTraceKey{}).(TraceID); ok {
		tid = t
	}
	if tid.IsZero() {
		tid = NewTraceID()
	}
	st := &traceState{traceID: tid}
	st.spans.Store(1)
	sp := &Span{tracer: tracer, state: st, name: name, id: NewSpanID(), start: time.Now()}
	return context.WithValue(ctx, ctxSpanKey{}, sp), sp
}

// newChild creates a started child span, or nil (counting the drop)
// when the parent's children cap or the trace's span cap is reached.
func (s *Span) newChild(name string, start time.Time) *Span {
	if s.state != nil && s.state.spans.Load() >= MaxSpansPerTrace {
		s.mu.Lock()
		s.dropped++
		s.mu.Unlock()
		return nil
	}
	s.mu.Lock()
	if len(s.children) >= MaxChildrenPerSpan {
		s.dropped++
		s.mu.Unlock()
		return nil
	}
	sp := &Span{tracer: s.tracer, state: s.state, parent: s, name: name, id: NewSpanID(), start: start}
	s.children = append(s.children, sp)
	s.mu.Unlock()
	if s.state != nil {
		s.state.spans.Add(1)
	}
	return sp
}

// RecordChild attaches an already-finished child span with explicit
// wall-clock bounds — for phases measured outside the span API (queue
// wait between submit and dispatch, per-rule regex time). Attributes
// can still be set on the returned span. Nil-safe; returns nil when the
// span caps refuse the child.
func (s *Span) RecordChild(name string, start, end time.Time) *Span {
	if s == nil {
		return nil
	}
	sp := s.newChild(name, start)
	if sp == nil {
		return nil
	}
	sp.mu.Lock()
	sp.end = end
	sp.mu.Unlock()
	return sp
}

// SetAttr records a key/value attribute on the span. Later values for
// the same key win at export. Values should be small scalars (string,
// int, bool, float64); they are exported verbatim into the trace JSON.
// Nil-safe.
func (s *Span) SetAttr(key string, val any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key: key, val: val})
	s.mu.Unlock()
}

// SetError marks the span as failed. A trace containing any errored
// span is retained in the error ring. Nil-safe; an empty msg is
// recorded as "error".
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	if msg == "" {
		msg = "error"
	}
	s.mu.Lock()
	s.err = msg
	s.mu.Unlock()
}

// TraceID returns the 128-bit trace ID the span belongs to, or the zero
// ID on a nil span.
func (s *Span) TraceID() TraceID {
	if s == nil || s.state == nil {
		return TraceID{}
	}
	return s.state.traceID
}

// SpanID returns the span's ID, or the zero ID on a nil span.
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// End finishes the span. On a nil span it is a no-op. Ending a root
// span records the whole trace; children that were never ended are
// reported with their parent's end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	end := s.end
	s.mu.Unlock()
	if s.parent == nil && s.tracer != nil {
		sd := s.data(end)
		sd.TraceID = s.TraceID().String()
		s.tracer.record(sd)
	}
}

// data snapshots the span tree. fallbackEnd stands in for spans that
// were never explicitly ended.
func (s *Span) data(fallbackEnd time.Time) SpanData {
	s.mu.Lock()
	end := s.end
	children := append([]*Span(nil), s.children...)
	var attrs map[string]any
	if len(s.attrs) > 0 {
		attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			attrs[a.key] = a.val
		}
	}
	errMsg := s.err
	dropped := s.dropped
	s.mu.Unlock()
	if end.IsZero() {
		end = fallbackEnd
	}
	dur := end.Sub(s.start)
	if dur < 0 {
		// An un-ended span whose parent finished before it started (a
		// mis-instrumented site) would report negative; clamp to zero.
		dur = 0
	}
	sd := SpanData{
		SpanID:       s.id.String(),
		Name:         s.name,
		Start:        s.start,
		DurationMS:   float64(dur) / float64(time.Millisecond),
		Attrs:        attrs,
		Error:        errMsg,
		DroppedSpans: dropped,
	}
	for _, c := range children {
		sd.Children = append(sd.Children, c.data(end))
	}
	return sd
}

package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"
)

// DefaultLogSamplePerSecond is the per-message record cap applied by
// NewLogger when LoggerOptions.SamplePerSecond is zero: high enough to
// never clip interactive traffic, low enough that a pathological client
// hammering one error path cannot turn the log into the bottleneck.
const DefaultLogSamplePerSecond = 100

// LoggerOptions configures NewLogger.
type LoggerOptions struct {
	// Level is the minimum record level (default slog.LevelInfo).
	Level slog.Leveler
	// SamplePerSecond caps how many records with the same message are
	// emitted per second; excess records are dropped and accounted. 0
	// means DefaultLogSamplePerSecond; negative disables sampling.
	SamplePerSecond int
	// Obs, when non-nil, receives log accounting: records emitted by
	// level and records dropped by the sampler.
	Obs *Registry
}

// NewLogger builds the serve logging pipeline on log/slog: a text or
// JSON base handler (format is "text" or "json"), wrapped by a
// per-message rate-limiting sampler, wrapped by a handler that stamps
// each record with the trace ID carried by the context — so every log
// line emitted under a traced request correlates with /debug/traces and
// the histogram exemplars for free.
func NewLogger(w io.Writer, format string, opt LoggerOptions) (*slog.Logger, error) {
	level := opt.Level
	if level == nil {
		level = slog.LevelInfo
	}
	var base slog.Handler
	switch format {
	case "", "text":
		base = slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})
	case "json":
		base = slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text or json)", format)
	}
	rate := opt.SamplePerSecond
	if rate == 0 {
		rate = DefaultLogSamplePerSecond
	}
	var h slog.Handler = base
	if rate > 0 {
		h = newSamplingHandler(h, rate, opt.Obs)
	}
	return slog.New(traceHandler{h}), nil
}

// DiscardLogger returns a logger that drops every record — the default
// for components whose SetLogger was never called. (slog.DiscardHandler
// is Go 1.24+; this package supports 1.22.)
func DiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// traceHandler stamps records with the context's trace ID under the
// "trace" key, linking log lines to retained traces and exemplars.
type traceHandler struct{ slog.Handler }

func (h traceHandler) Handle(ctx context.Context, r slog.Record) error {
	if tid := TraceIDFrom(ctx); !tid.IsZero() {
		r.AddAttrs(slog.String("trace", tid.String()))
	}
	return h.Handler.Handle(ctx, r)
}

func (h traceHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return traceHandler{h.Handler.WithAttrs(attrs)}
}

func (h traceHandler) WithGroup(name string) slog.Handler {
	return traceHandler{h.Handler.WithGroup(name)}
}

// samplingHandler rate-limits repetitive records per message: within
// each one-second window, the first limit records with a given message
// pass and the rest are dropped. The first record of the next window
// carries a "logDropped" attr with the number suppressed, so the
// information that clipping happened survives in-band.
type samplingHandler struct {
	next  slog.Handler
	limit int
	reg   *Registry

	mu    sync.Mutex
	state map[string]*sampleState
}

type sampleState struct {
	window  int64 // unix second the counters belong to
	passed  int
	dropped uint64
}

func newSamplingHandler(next slog.Handler, limit int, reg *Registry) *samplingHandler {
	return &samplingHandler{next: next, limit: limit, reg: reg, state: map[string]*sampleState{}}
}

func (h *samplingHandler) Enabled(ctx context.Context, l slog.Level) bool {
	return h.next.Enabled(ctx, l)
}

func (h *samplingHandler) Handle(ctx context.Context, r slog.Record) error {
	return h.handleWith(ctx, r, h.next)
}

func (h *samplingHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	// Sampling state is shared across derived handlers: the message key
	// identifies the record regardless of bound attrs.
	return &derivedSampler{parent: h, next: h.next.WithAttrs(attrs)}
}

func (h *samplingHandler) WithGroup(name string) slog.Handler {
	return &derivedSampler{parent: h, next: h.next.WithGroup(name)}
}

// derivedSampler is a WithAttrs/WithGroup derivation of a
// samplingHandler: it forwards to its own derived base handler but
// shares the parent's sampling state.
type derivedSampler struct {
	parent *samplingHandler
	next   slog.Handler
}

func (d *derivedSampler) Enabled(ctx context.Context, l slog.Level) bool {
	return d.next.Enabled(ctx, l)
}

func (d *derivedSampler) Handle(ctx context.Context, r slog.Record) error {
	return d.parent.handleWith(ctx, r, d.next)
}

func (d *derivedSampler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &derivedSampler{parent: d.parent, next: d.next.WithAttrs(attrs)}
}

func (d *derivedSampler) WithGroup(name string) slog.Handler {
	return &derivedSampler{parent: d.parent, next: d.next.WithGroup(name)}
}

// handleWith runs the sampling decision against h's shared state (the
// message key identifies the record regardless of derivation) but emits
// through the given next handler.
func (h *samplingHandler) handleWith(ctx context.Context, r slog.Record, next slog.Handler) error {
	now := r.Time
	if now.IsZero() {
		now = time.Now()
	}
	sec := now.Unix()
	h.mu.Lock()
	st, ok := h.state[r.Message]
	if !ok {
		st = &sampleState{window: sec}
		h.state[r.Message] = st
		// Bound the per-message map: a client fabricating unique
		// messages must not grow it without limit.
		if len(h.state) > 1024 {
			h.state = map[string]*sampleState{r.Message: st}
		}
	}
	var carryDropped uint64
	if st.window != sec {
		st.window, st.passed, st.dropped, carryDropped = sec, 0, 0, st.dropped
	}
	if st.passed >= h.limit {
		st.dropped++
		h.mu.Unlock()
		if h.reg != nil {
			h.reg.Counter(MetricLogDropped).Inc()
		}
		return nil
	}
	st.passed++
	h.mu.Unlock()
	if carryDropped > 0 {
		r.AddAttrs(slog.Uint64("logDropped", carryDropped))
	}
	if h.reg != nil {
		h.reg.CounterVec(MetricLogRecords, "level").Add(r.Level.String(), 1)
	}
	return next.Handle(ctx, r)
}

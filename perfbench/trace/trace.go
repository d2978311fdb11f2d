// Package trace holds the benchmark's span model and the arithmetic over
// it: percentiles under the sample-count rule, per-span self time, and
// the unattributed residual of a request's wire time.
//
// Spans are recorded by the benchmark's own files — the load generator
// records one wire span per op, and the in-process replay records one
// span per call into a layer's public entry point — and written out
// when the run ends.
package trace

import (
	"math"
	"sort"
	"time"
)

// Span is one timed interval. Parent is the ID of the span whose work
// this one is part of (0 for a root); Op names the op the span belongs
// to, shared by the wire span and every replayed span of that op.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op"`
	// Class is the op's size class or verb, for per-class percentiles.
	Class string    `json:"class,omitempty"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// Dur is the span's duration.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Recorder collects spans in memory.
type Recorder struct {
	next  int64
	Spans []Span
}

// NewRecorder returns a recorder whose span IDs start at base, so two
// recorders (the generator's and the replay's) never collide.
func NewRecorder(base int64) *Recorder { return &Recorder{next: base} }

// Add records a finished span and returns its ID.
func (r *Recorder) Add(name, op, class string, parent int64, start, end time.Time) int64 {
	r.next++
	r.Spans = append(r.Spans, Span{ID: r.next, Parent: parent, Name: name, Op: op, Class: class, Start: start, End: end})
	return r.next
}

// Time runs fn as one span and returns the span's ID.
func (r *Recorder) Time(name, op, class string, parent int64, fn func()) int64 {
	start := time.Now()
	fn()
	return r.Add(name, op, class, parent, start, time.Now())
}

// SelfTimes returns each span's self time: its duration minus the time
// its child spans cover. Children of a replayed call are themselves
// replays run one after another, not inside it, so their durations add;
// the covered time is capped at the parent's duration, so self time is
// never negative.
func SelfTimes(spans []Span) map[int64]time.Duration {
	covered := map[int64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.Dur()
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		c := covered[s.ID]
		if c > s.Dur() {
			c = s.Dur()
		}
		self[s.ID] = s.Dur() - c
	}
	return self
}

// Unattributed returns, per op that has a span named root and at least
// one other span, the root's duration and the part of it no other span
// of the op accounts for: root minus the self times of the op's other
// spans, floored at zero.
func Unattributed(spans []Span, root string) (wire, rest map[string]time.Duration) {
	self := SelfTimes(spans)
	roots := map[string]time.Duration{}
	attributed := map[string]time.Duration{}
	for _, s := range spans {
		if s.Name == root {
			roots[s.Op] = s.Dur()
		} else {
			attributed[s.Op] += self[s.ID]
		}
	}
	wire = map[string]time.Duration{}
	rest = map[string]time.Duration{}
	for op, w := range roots {
		if _, ok := attributed[op]; !ok {
			continue
		}
		wire[op] = w
		r := w - attributed[op]
		if r < 0 {
			r = 0
		}
		rest[op] = r
	}
	return wire, rest
}

// Quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted); NaN for no samples.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// MinBeyond is how many samples must lie beyond a reported percentile.
const MinBeyond = 10

// Supported reports whether n samples support the q-quantile: at least
// MinBeyond of them lie above it.
func Supported(n int, q float64) bool {
	// The tolerance absorbs rounding in 1-q (1-0.9 is 0.0999...).
	return float64(n)*(1-q) >= MinBeyond-1e-9
}

// TailQuantile returns the highest quantile at most want that n samples
// support, from the ladder 0.999, 0.99, 0.95, 0.9, 0.75, 0.5; 0.5 when
// none is supported.
func TailQuantile(n int, want float64) float64 {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if q <= want && Supported(n, q) {
			return q
		}
	}
	return 0.5
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot is a point-in-time export of every registered metric, keyed
// by metric name — labeled children use the Prometheus-style
// `name{label="value"}` key. It is the -metrics-out file format and the
// serve protocol's "metrics" payload, so the same JSON shape reaches
// every frontend.
type Snapshot struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot is one histogram's exported state. Buckets are
// cumulative (Prometheus-style le-inclusive); P50 and P99 are
// interpolated quantiles in seconds.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	P50     float64  `json:"p50"`
	P99     float64  `json:"p99"`
	Buckets []Bucket `json:"buckets"`
}

// Bucket is one cumulative histogram bucket. LE is the upper bound
// rendered as a Prometheus label value ("0.001", "+Inf").
type Bucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// labelKey renders the snapshot key for one child of a labeled family.
func labelKey(name, label, value string) string {
	return name + `{` + label + `="` + value + `"}`
}

// fmtFloat renders a float the way Prometheus text exposition does.
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// scaled converts a family's raw counter value to its exposition unit.
func (f *family) scaled(v float64) float64 {
	if f.unit == unitNanos {
		return v / 1e9
	}
	return v
}

// value evaluates an unlabeled counter or gauge family.
func (f *family) value() float64 {
	switch {
	case f.fn != nil:
		return f.fn()
	case f.counter != nil:
		return float64(f.counter.Value())
	case f.gauge != nil:
		return float64(f.gauge.Value())
	}
	return 0
}

// sortedChildren returns the family's (labelValue, instrument) pairs in
// label-value order.
func (f *family) sortedChildren() []childEntry {
	var out []childEntry
	f.children.Range(func(k, v any) bool {
		out = append(out, childEntry{value: k.(string), inst: v})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].value < out[j].value })
	return out
}

type childEntry struct {
	value string
	inst  any
}

// instValue evaluates one counter/gauge-shaped instrument.
func instValue(inst any) float64 {
	switch x := inst.(type) {
	case *Counter:
		return float64(x.Value())
	case *Gauge:
		return float64(x.Value())
	case func() float64:
		return x()
	}
	return 0
}

// histSnapshot exports one histogram.
func histSnapshot(h *Histogram) HistogramSnapshot {
	hs := HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		hs.Buckets = append(hs.Buckets, Bucket{LE: fmtFloat(b), Count: cum})
	}
	cum += h.counts[len(h.bounds)].Load()
	hs.Buckets = append(hs.Buckets, Bucket{LE: "+Inf", Count: cum})
	return hs
}

// Snapshot exports every registered metric. Values are read without a
// global pause, so counters moved mid-snapshot may be off by the
// in-flight increments — fine for monitoring, and deterministic once the
// workload has quiesced.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	for _, f := range r.sortedFamilies() {
		switch f.kind {
		case KindCounter, KindGauge:
			dst := s.Counters
			if f.kind == KindGauge {
				dst = s.Gauges
			}
			if f.label == "" {
				dst[f.name] = f.scaled(f.value())
				continue
			}
			for _, c := range f.sortedChildren() {
				dst[labelKey(f.name, f.label, c.value)] = f.scaled(instValue(c.inst))
			}
		case KindHistogram:
			if f.label == "" {
				s.Histograms[f.name] = histSnapshot(f.hist)
				continue
			}
			for _, c := range f.sortedChildren() {
				s.Histograms[labelKey(f.name, f.label, c.value)] = histSnapshot(c.inst.(*Histogram))
			}
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteSnapshotFile dumps the snapshot JSON to path — the CLIs'
// -metrics-out implementation.
func (r *Registry) WriteSnapshotFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4), deterministically: families in name order,
// children in label-value order. Label values are emitted verbatim —
// registry label values (rule IDs, tool names, verbs) contain no
// characters needing escape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.writeExposition(w, false)
}

// writeExposition writes the text exposition both dialects share. With
// openMetrics set it makes the three OpenMetrics changes: counter
// families are named without _total in their TYPE line, histogram
// buckets carry their trace-ID exemplars, and the output ends in # EOF.
func (r *Registry) writeExposition(w io.Writer, openMetrics bool) error {
	ew := &errWriter{w: w}
	for _, f := range r.sortedFamilies() {
		famName := f.name
		if openMetrics && f.kind == KindCounter {
			// The sample keeps the suffix.
			famName = strings.TrimSuffix(f.name, "_total")
		}
		ew.printf("# TYPE %s %s\n", famName, f.kind)
		switch {
		case f.kind == KindHistogram && f.label == "":
			writeHistogram(ew, f.name, "", "", f.hist, openMetrics)
		case f.kind == KindHistogram:
			for _, c := range f.sortedChildren() {
				writeHistogram(ew, f.name, f.label, c.value, c.inst.(*Histogram), openMetrics)
			}
		case f.label == "":
			ew.printf("%s %s\n", f.name, fmtFloat(f.scaled(f.value())))
		default:
			for _, c := range f.sortedChildren() {
				ew.printf("%s %s\n", labelKey(f.name, f.label, c.value), fmtFloat(f.scaled(instValue(c.inst))))
			}
		}
		if ew.err != nil {
			return ew.err
		}
	}
	if openMetrics {
		ew.printf("# EOF\n")
	}
	return ew.err
}

// writeHistogram emits one histogram's _bucket/_sum/_count series, with
// each bucket's exemplar when exemplars is set.
func writeHistogram(ew *errWriter, name, label, value string, h *Histogram, exemplars bool) {
	pre, suffix := "", ""
	if label != "" {
		pre = label + `="` + value + `",`
		suffix = `{` + label + `="` + value + `"}`
	}
	var cum uint64
	for i := 0; i <= len(h.bounds); i++ {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = fmtFloat(h.bounds[i])
		}
		ew.printf("%s_bucket{%sle=%q} %d", name, pre, le, cum)
		if exemplars {
			if ex := h.exemplarAt(i); ex != nil {
				ew.printf(" # {trace_id=%q} %s %.3f", ex.TraceID, fmtFloat(ex.Value), float64(ex.Time.UnixMilli())/1000)
			}
		}
		ew.printf("\n")
	}
	ew.printf("%s_sum%s %s\n", name, suffix, fmtFloat(h.Sum()))
	ew.printf("%s_count%s %d\n", name, suffix, cum)
}

// errWriter keeps the first write error and skips every write after it,
// so the exposition loop checks once per family instead of per line.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err == nil {
		_, ew.err = fmt.Fprintf(ew.w, format, args...)
	}
}

// CacheHitRate aggregates the hit rate across every cache= label in the
// snapshot: total hits / (hits + misses), 0 before any lookup.
func (s *Snapshot) CacheHitRate() float64 {
	var hits, misses float64
	for k, v := range s.Counters {
		switch {
		case strings.HasPrefix(k, MetricCacheHits):
			hits += v
		case strings.HasPrefix(k, MetricCacheMisses):
			misses += v
		}
	}
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// SummaryLine renders the batch-mode one-liner the CLIs print to stderr
// after a detect or eval run: file and finding counts from the caller,
// cache hit rate and rule-latency quantiles from the snapshot.
func (s *Snapshot) SummaryLine(files, findings int) string {
	var p50, p99 time.Duration
	if h, ok := s.Histograms[MetricRuleDuration]; ok {
		p50 = secondsToDuration(h.P50)
		p99 = secondsToDuration(h.P99)
	}
	line := fmt.Sprintf("scanned %d files, %d findings, cache hit-rate %.1f%%, rule latency p50 %s / p99 %s",
		files, findings, 100*s.CacheHitRate(), fmtDur(p50), fmtDur(p99))
	if n := s.Counters[MetricTaintSuppressed]; n > 0 {
		line += fmt.Sprintf(", %.0f taint-suppressed", n)
	}
	return line
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

func fmtDur(d time.Duration) string {
	if d <= 0 {
		return "0s"
	}
	switch {
	case d < time.Millisecond:
		return d.Round(100 * time.Nanosecond).String()
	case d < time.Second:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(time.Millisecond).String()
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"github.com/dessertlab/patchitpy/perfbench/trace"
	"github.com/dessertlab/patchitpy/perfbench/workload"
)

// serverCounters are the server's own counters the traced run reads
// before and after the load, through /v1/metrics and /v1/stats.
type serverCounters struct {
	metrics struct {
		Counters   map[string]float64 `json:"counters"`
		Histograms map[string]struct {
			P99 float64 `json:"p99"`
		} `json:"histograms"`
	}
	stats struct {
		Analyze, Fix, Scan struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		}
	}
}

func readCounters(s *server) serverCounters {
	var c serverCounters
	var m struct {
		Metrics *json.RawMessage `json:"metrics"`
		Stats   *json.RawMessage `json:"stats"`
	}
	if s.get("metrics", &m) == nil && m.Metrics != nil {
		_ = json.Unmarshal(*m.Metrics, &c.metrics)
	}
	m.Stats = nil
	if s.get("stats", &m) == nil && m.Stats != nil {
		_ = json.Unmarshal(*m.Stats, &c.stats)
	}
	return c
}

// hitRatio is hits / lookups over the load, NaN when there were none.
func hitRatio(h0, m0, h1, m1 float64) float64 {
	return (h1 - h0) / ((h1 - h0) + (m1 - m0))
}

// replayOutput mirrors what `inproc replay` writes.
type replayOutput struct {
	Spans    []trace.Span       `json:"spans"`
	Counters map[string]float64 `json:"counters"`
}

// replay runs the in-process half over this run's inputs and returns
// its spans and counters.
func (b *bench) replay() (replayOutput, error) {
	var out replayOutput
	path := filepath.Join(b.build, fmt.Sprintf("replay-%s-%d.json", b.name, b.seed))
	cmd := exec.Command(filepath.Join(b.build, "inproc"), "replay",
		"-workload", b.name, "-seed", fmt.Sprint(b.seed), "-seconds", fmt.Sprint(b.seconds),
		"-sessions", fmt.Sprint(b.nproc), "-dir", b.dir, "-out", path)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return out, fmt.Errorf("replay: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(data, &out)
}

// layers computes the per-layer metrics of a traced serve run from the
// wire spans of its ops, the server's counters and the replay.
func (b *bench) layers(recs []opRecord, before, after serverCounters) error {
	rec := trace.NewRecorder(0)
	for _, r := range recs {
		if r.ok {
			rec.Add("wire", r.op, r.class, 0, r.due, r.done)
		}
	}
	q := func(name string) float64 { return after.metrics.Counters[name] - before.metrics.Counters[name] }
	b.values["workpool.shed"] = q("patchitpy_http_shed_total")
	b.values["workpool.timeouts"] = q("patchitpy_http_timeouts_total")
	if h, ok := after.metrics.Histograms["patchitpy_http_queue_wait_seconds"]; ok {
		b.values["workpool.queue_wait_p99_ms"] = h.P99 * 1000
	}
	hits := `patchitpy_cache_hits_total{cache="http"}`
	misses := `patchitpy_cache_misses_total{cache="http"}`
	b.values["resultcache.http_hit_ratio"] = hitRatio(before.metrics.Counters[hits], before.metrics.Counters[misses],
		after.metrics.Counters[hits], after.metrics.Counters[misses])
	s0, s1 := before.stats, after.stats
	b.values["resultcache.analyze_hit_ratio"] = hitRatio(s0.Analyze.Hits, s0.Analyze.Misses, s1.Analyze.Hits, s1.Analyze.Misses)
	b.values["resultcache.fix_hit_ratio"] = hitRatio(s0.Fix.Hits, s0.Fix.Misses, s1.Fix.Hits, s1.Fix.Misses)
	b.values["resultcache.scan_lookups"] = (s1.Scan.Hits + s1.Scan.Misses) - (s0.Scan.Hits + s0.Scan.Misses)
	lookups := func(h0, m0, h1, m1 float64) int { return int(h1 - h0 + m1 - m0) }
	b.counts["resultcache.http_hit_ratio"] = lookups(before.metrics.Counters[hits], before.metrics.Counters[misses],
		after.metrics.Counters[hits], after.metrics.Counters[misses])
	b.counts["resultcache.analyze_hit_ratio"] = lookups(s0.Analyze.Hits, s0.Analyze.Misses, s1.Analyze.Hits, s1.Analyze.Misses)
	b.counts["resultcache.fix_hit_ratio"] = lookups(s0.Fix.Hits, s0.Fix.Misses, s1.Fix.Hits, s1.Fix.Misses)

	rp, err := b.replay()
	if err != nil {
		return err
	}
	spans := append(rec.Spans, rp.Spans...)
	// A replayed handler call is part of its op's wire time.
	wireID := map[string]int64{}
	for _, s := range rec.Spans {
		wireID[s.Op] = s.ID
	}
	for i := range spans {
		if spans[i].Name == "serve.handler" && spans[i].Parent == 0 {
			spans[i].Parent = wireID[spans[i].Op]
		}
	}
	b.spanMetrics(spans, rp.Counters)
	return b.writeSpans(spans)
}

// spanMetrics derives the per-layer metrics from spans: each layer's
// p50 (per size class where it has one), the client's share of the wire
// time and the unattributed residual.
func (b *bench) spanMetrics(spans []trace.Span, counters map[string]float64) {
	for k, v := range counters {
		b.values[k] = v
	}
	self := trace.SelfTimes(spans)
	byName := map[string][]float64{}
	hasWire := map[string]bool{}
	hasHandler := map[string]bool{}
	for _, s := range spans {
		switch s.Name {
		case "wire":
			hasWire[s.Op] = true
		case "serve.handler":
			hasHandler[s.Op] = true
		}
	}
	var clientMs, handlerMs []float64
	for _, s := range spans {
		ms := float64(s.Dur()) / float64(time.Millisecond)
		byName[s.Name+"|"+s.Class] = append(byName[s.Name+"|"+s.Class], ms)
		byName[s.Name] = append(byName[s.Name], ms)
		switch {
		case s.Name == "wire" && hasHandler[s.Op]:
			// The wire span's self time: wire minus the in-process handler.
			clientMs = append(clientMs, float64(self[s.ID])/float64(time.Millisecond))
		case s.Name == "serve.handler" && hasWire[s.Op]:
			handlerMs = append(handlerMs, ms)
		}
	}
	set := func(name string, xs []float64, v float64) {
		if len(xs) > 0 {
			b.values[name] = v
			b.counts[name] = len(xs)
		}
	}
	p50 := func(name string, key string) { set(name, byName[key], median(byName[key])) }
	set("client.unattributed_p50_ms", clientMs, median(clientMs))
	if len(handlerMs) == 0 {
		handlerMs = byName["serve.handler"]
	}
	set("serve.handler_p50_ms", handlerMs, median(handlerMs))
	for i, sz := range workload.SizeNames {
		p50("serve.decode_p50_ms."+sz, "serve.decode|"+sz)
		p50("serve.encode_p50_ms."+sz, "serve.encode|"+sz)
		p50("detect.scan_p50_ms."+sz, "detect.scan|"+sz)
		if xs := byName["detect.scan|"+sz]; len(xs) > 0 {
			set("detect.scan_mb_s."+sz, xs, float64(workload.SizeBytes[i])/1e6/(median(xs)/1000))
		}
		p50("pytoken.tokenize_p50_ms."+sz, "pytoken.tokenize|"+sz)
		p50("lineindex.new_p50_ms."+sz, "lineindex.new|"+sz)
		p50("taint.analyze_p50_ms."+sz, "taint.analyze|"+sz)
		p50("pyast.parse_p50_ms."+sz, "pyast.parse|"+sz)
		p50("patch.apply_p50_ms."+sz, "patch.apply|"+sz)
	}
	for _, v := range []string{workload.VerbDetect, workload.VerbPatch, workload.VerbTaint} {
		p50("core.handle_p50_ms."+v, "core.handle|"+v)
	}
	p50("docsession.edit_p50_ms", "docsession.edit")
	p50("detect.rescan_edited_p50_ms", "detect.rescan_edited")
	p50("detect.fullscan_p50_ms.16k", "detect.fullscan")
	if xs := byName["experiments.pass"]; len(xs) > 0 {
		set("experiments.pass_s", xs, median(xs)/1000)
	}
	for _, name := range []string{"baseline.banditlite", "baseline.semgreplite", "baseline.querydb", "baseline.llmsim",
		"complexity.program", "lintscore.score", "core.fix"} {
		p50(name+"_ms_per_pass", name)
	}

	// The residual: the part of a root span's time that no layer span
	// accounts for, per workload and per cold-docs size class.
	root := "wire"
	if b.name == "batch-eval" {
		root = "experiments.pass"
	}
	wire, rest := trace.Unattributed(spans, root)
	residual := func(name string, keep func(op string) bool) {
		var w, attributed []float64
		for op, d := range wire {
			if keep(op) {
				w = append(w, float64(d))
				attributed = append(attributed, float64(d-rest[op]))
			}
		}
		if len(w) > 0 {
			set(name, w, (median(w)-median(attributed))/median(w))
		}
	}
	residual("unattributed_ratio", func(string) bool { return true })
	class := map[string]string{}
	for _, s := range spans {
		if s.Name == "wire" {
			class[s.Op] = s.Class
		}
	}
	for _, sz := range workload.SizeNames {
		residual("unattributed_ratio."+sz, func(op string) bool { return strings.HasPrefix(op, "cold/") && class[op] == sz })
	}
}

// writeSpans writes the run's spans out for inspection.
func (b *bench) writeSpans(spans []trace.Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.build, fmt.Sprintf("spans-%s-%d.json", b.name, b.seed)), data, 0o644)
}

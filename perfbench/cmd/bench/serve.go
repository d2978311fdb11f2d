package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"github.com/dessertlab/patchitpy/perfbench/workload"
)

// setups is how many times a run sets the system under test up;
// setup_s is the median.
const setups = 5

// opRecord is one measured op, whatever the workload.
type opRecord struct {
	op    string // shared with the replay's spans
	class string
	outcome
	bytes int
}

// response is the part of a protocol response the checks read.
type response struct {
	OK       bool            `json:"ok"`
	Error    string          `json:"error"`
	Findings json.RawMessage `json:"findings"`
	Patched  string          `json:"patched"`
	Session  string          `json:"session"`
}

// canon renders a findings list canonically: absent, null and empty all
// read as [].
func canon(raw json.RawMessage) string {
	var v []any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &v); err != nil {
			return "invalid: " + err.Error()
		}
	}
	if len(v) == 0 {
		return "[]"
	}
	b, _ := json.Marshal(v) // re-encoding decoded JSON cannot fail
	return string(b)
}

// checkOp reports whether a response body is the expected output of op:
// the findings of its embedded sample and, for patch, the sample's
// patched text followed by the op's padding unchanged.
func (b *bench) checkOp(o workload.Op, status int, body []byte) bool {
	if status != http.StatusOK {
		return false
	}
	var r response
	if err := json.Unmarshal(body, &r); err != nil || !r.OK {
		return false
	}
	s := b.corpus.Samples[o.Sample]
	want := s.Detect
	if o.Verb == workload.VerbTaint {
		want = s.Taint
	}
	if canon(r.Findings) != canon(want) {
		return false
	}
	if o.Verb == workload.VerbPatch {
		return r.Patched == s.Patched+o.Code[len(s.Code):]
	}
	return true
}

// shotsOf encodes ops as requests. Ops carrying the same verb and code
// share one body, so a replay of a small corpus keeps a small heap.
func shotsOf(ops []workload.Op) []shot {
	bodies := map[[2]string][]byte{}
	out := make([]shot, len(ops))
	for i, o := range ops {
		k := [2]string{o.Verb, o.Code}
		body, ok := bodies[k]
		if !ok {
			body = o.Body()
			bodies[k] = body
		}
		out[i] = shot{due: o.Due, path: o.Path(), body: body}
	}
	return out
}

// serve runs a serve workload: set-up, the measured load, checks, and
// for a traced run the replay.
func (b *bench) serve() error {
	client := newClient(b.nproc)
	d := time.Duration(b.seconds * float64(time.Second))
	bin := filepath.Join(b.build, "patchitpy")

	var warm func(*server) error
	var load func(*server) ([]opRecord, func() error, error)
	switch b.name {
	case "hot-replay":
		warm, load = b.hotReplay(client, d)
	case "cold-docs":
		warm, load = b.coldDocs(client, d)
	case "edit-stream":
		warm, load = b.editStream(d)
	default:
		return fmt.Errorf("no serve workload %q", b.name)
	}

	var srv *server
	var setupS []float64
	for k := 0; k < setups; k++ {
		s, up, err := startServer(bin, client)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := warm(s); err != nil {
			s.stop()
			return err
		}
		setupS = append(setupS, (up + time.Since(t0)).Seconds())
		if k < setups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	b.values["setup_s"] = median(setupS)
	b.counts["setup_s"] = len(setupS)

	var before serverCounters
	if b.traced {
		before = readCounters(srv)
	}
	cpu0, err := cpuTime(srv.pid())
	if err != nil {
		return err
	}
	recs, check, err := load(srv)
	if err != nil {
		return err
	}
	cpu1, err := cpuTime(srv.pid())
	if err != nil {
		return err
	}
	rss, err := peakRSS(srv.pid())
	if err != nil {
		return err
	}
	var after serverCounters
	if b.traced {
		after = readCounters(srv)
	}
	// Checks that need the server run after its CPU time was read.
	if check != nil {
		if err := check(); err != nil {
			return err
		}
	}
	srv.stop()

	b.summarize(recs, cpu1-cpu0, rss)
	b.notes = append(b.notes, fmt.Sprintf("server_pid=%d server_cpu_s=%.3f", srv.pid(), (cpu1-cpu0).Seconds()))
	if b.traced {
		return b.layers(recs, before, after)
	}
	return nil
}

// summarize computes the end-to-end metrics of a serve workload.
func (b *bench) summarize(recs []opRecord, cpu time.Duration, rss int64) {
	var ms, lags []float64
	var okN, inSLO, srcBytes int
	var first, last time.Time
	for _, r := range recs {
		b.attempted++
		lags = append(lags, float64(r.lag())/float64(time.Millisecond))
		if first.IsZero() || r.due.Before(first) {
			first = r.due
		}
		if !r.ok {
			b.failed++
			continue
		}
		okN++
		srcBytes += r.bytes
		l := float64(r.latency()) / float64(time.Millisecond)
		ms = append(ms, l)
		if l <= b.cfg.SLOMs {
			inSLO++
		}
		if r.done.After(last) {
			last = r.done
		}
	}
	b.setLatency(ms)
	b.values["within_slo_ratio"] = float64(inSLO) / float64(len(recs))
	b.counts["within_slo_ratio"] = len(recs)
	wall := last.Sub(first).Seconds()
	b.values["achieved_ops_s"] = float64(okN) / wall
	b.values["cpu_ms_per_op"] = float64(cpu) / float64(time.Millisecond) / float64(okN)
	b.values["source_mb_s"] = float64(srcBytes) / 1e6 / wall
	b.values["peak_rss_mb"] = float64(rss) / (1 << 20)
	for _, k := range []string{"achieved_ops_s", "cpu_ms_per_op", "source_mb_s"} {
		b.counts[k] = okN
	}
	b.counts["peak_rss_mb"] = 1
	lagP99 := tail99(lags)
	b.notes = append(b.notes, fmt.Sprintf("generator_lag_p50_ms=%.3f", median(lags)))
	b.values["client.lag_p99_ms"] = lagP99
	b.counts["client.lag_p99_ms"] = len(lags)
	b.notes = append(b.notes, fmt.Sprintf("generator_lag_p99_ms=%.3f", lagP99))
	if lagP99 > b.cfg.MaxLagMs {
		b.invalid = fmt.Sprintf("generator fell behind its schedule: lag p99 %.2f ms > %.2f ms", lagP99, b.cfg.MaxLagMs)
	}
}

// hotReplay is the hot-replay workload. Warm-up sends every request the
// load draws from, checking each answer and keeping its bytes; during
// the load a response must equal those bytes or, failing that, pass the
// same check.
func (b *bench) hotReplay(client *http.Client, d time.Duration) (func(*server) error, func(*server) ([]opRecord, func() error, error)) {
	warmOps := workload.HotWarmup(b.corpus)
	want := map[string][]byte{}
	key := func(o workload.Op) string { return fmt.Sprintf("%s/%d", o.Verb, o.Sample) }
	warm := func(s *server) error {
		out := closedLoop(client, s.base, shotsOf(warmOps), b.nproc)
		for i, o := range warmOps {
			if out[i].err != nil || !b.checkOp(o, out[i].status, out[i].body) {
				return fmt.Errorf("warm-up: wrong answer to %s of sample %d", o.Verb, o.Sample)
			}
			want[key(o)] = out[i].body
		}
		return nil
	}
	load := func(s *server) ([]opRecord, func() error, error) {
		ops := workload.HotOps(b.corpus, b.seed, b.cfg.Rate, d)
		out := openLoop(client, s.base, shotsOf(ops), b.nproc, func(i, status int, body []byte) bool {
			o := ops[i]
			return status == http.StatusOK && (bytes.Equal(body, want[key(o)]) || b.checkOp(o, status, body))
		})
		recs := make([]opRecord, len(ops))
		for i, o := range ops {
			recs[i] = opRecord{op: fmt.Sprintf("hot/%d", o.ID), class: o.Verb, outcome: out[i], bytes: len(o.Code)}
		}
		return recs, nil, nil
	}
	return warm, load
}

// coldDocs is the cold-docs workload: every request unique, every
// response checked against its embedded sample's expected output.
func (b *bench) coldDocs(client *http.Client, d time.Duration) (func(*server) error, func(*server) ([]opRecord, func() error, error)) {
	warm := func(s *server) error {
		ops := workload.ColdWarmup(b.corpus, 24)
		out := closedLoop(client, s.base, shotsOf(ops), b.nproc)
		for i, o := range ops {
			if out[i].err != nil || !b.checkOp(o, out[i].status, out[i].body) {
				return fmt.Errorf("warm-up: wrong answer to %s of a %s document", o.Verb, workload.SizeNames[o.Size])
			}
		}
		return nil
	}
	load := func(s *server) ([]opRecord, func() error, error) {
		ops := workload.ColdOps(b.corpus, b.seed, b.cfg.Rate, d)
		out := openLoop(client, s.base, shotsOf(ops), b.nproc, func(i, status int, body []byte) bool {
			return b.checkOp(ops[i], status, body)
		})
		recs := make([]opRecord, len(ops))
		for i, o := range ops {
			recs[i] = opRecord{op: fmt.Sprintf("cold/%d", o.ID), class: workload.SizeNames[o.Size], outcome: out[i], bytes: len(o.Code)}
		}
		return recs, nil, nil
	}
	return warm, load
}

// editStream is the edit-stream workload: nproc sessions, each sending
// its edits in order at a fixed pace. The findings of every session's
// last edit before a close, and of a seeded sample of other edits, must
// equal a from-scratch detect of the same text, sent after the load.
func (b *bench) editStream(d time.Duration) (func(*server) error, func(*server) ([]opRecord, func() error, error)) {
	interval := time.Duration(b.cfg.EditIntervalMs * float64(time.Millisecond))
	warm := func(s *server) error {
		sess := workload.EditSessions(b.corpus, -1, 1, 20, time.Millisecond, 22*time.Millisecond, 1<<30)
		recs, checks := b.runSessions(s, sess, time.Now(), false)
		if err := b.checkEdits(s, recs, checks); err != nil {
			return err
		}
		for _, r := range recs {
			if !r.ok {
				return fmt.Errorf("warm-up: edit %s failed", r.op)
			}
		}
		return nil
	}
	load := func(s *server) ([]opRecord, func() error, error) {
		sess := workload.EditSessions(b.corpus, b.seed, b.nproc, b.cfg.EditsPerOpen, interval, d, workload.EditCheckEvery)
		recs, checks := b.runSessions(s, sess, time.Now().Add(10*time.Millisecond), true)
		b.notes = append(b.notes, fmt.Sprintf("edit_checks=%d", len(checks)))
		return recs, func() error { return b.checkEdits(s, recs, checks) }, nil
	}
	return warm, load
}

// editCheck is an edit whose findings are checked after the load.
type editCheck struct {
	rec      int // index into the records
	text     string
	findings json.RawMessage
}

// runSessions runs edit sessions concurrently, one goroutine (and so one
// connection) each. paced sessions wait for each op's due time; an op
// that comes due while the previous one is outstanding is sent as soon
// as it returns, its latency still counted from its due time.
func (b *bench) runSessions(s *server, sessions [][]workload.EditOp, start time.Time, paced bool) ([]opRecord, []editCheck) {
	type sessOut struct {
		recs   []opRecord
		checks []editCheck
	}
	outs := make([]sessOut, len(sessions))
	var wg sync.WaitGroup
	for si, ops := range sessions {
		wg.Add(1)
		go func(si int, ops []workload.EditOp) {
			defer wg.Done()
			o := &outs[si]
			sid := ""
			for k, e := range ops {
				due := start.Add(e.Due)
				dispatch := due
				if !paced {
					due = time.Now()
					dispatch = due
				} else if time.Until(due) > 0 {
					sleepUntil(due)
					dispatch = time.Now()
				}
				status, body, err := s.post("/v1/"+e.Verb, e.Body(sid))
				done := time.Now()
				var r response
				ok := err == nil && status == http.StatusOK && json.Unmarshal(body, &r) == nil && r.OK
				switch e.Verb {
				case workload.VerbOpen:
					sid = ""
					if ok {
						sid = r.Session
					}
				case workload.VerbEdit:
					rec := opRecord{op: fmt.Sprintf("edit/%d/%d", si, k), class: "16k", bytes: 16 << 10,
						outcome: outcome{due: due, dispatch: dispatch, done: done, status: status, err: err, ok: ok && sid != ""}}
					if rec.ok && e.Check {
						o.checks = append(o.checks, editCheck{rec: len(o.recs), text: e.After, findings: r.Findings})
					}
					o.recs = append(o.recs, rec)
				}
			}
		}(si, ops)
	}
	wg.Wait()
	var recs []opRecord
	var checks []editCheck
	for _, o := range outs {
		for _, c := range o.checks {
			c.rec += len(recs)
			checks = append(checks, c)
		}
		recs = append(recs, o.recs...)
	}
	return recs, checks
}

// checkEdits compares each checked edit's findings with a from-scratch
// detect of the same text, marking mismatched edits failed.
func (b *bench) checkEdits(s *server, recs []opRecord, checks []editCheck) error {
	for _, c := range checks {
		body, _ := json.Marshal(struct {
			Code string `json:"code"`
		}{c.text}) // a string always encodes
		status, data, err := s.post("/v1/detect", body)
		if err != nil {
			return err
		}
		var r response
		if status != http.StatusOK || json.Unmarshal(data, &r) != nil || !r.OK || canon(r.Findings) != canon(c.findings) {
			recs[c.rec].ok = false
			b.notes = append(b.notes, fmt.Sprintf("edit_check_mismatch=%s", recs[c.rec].op))
		}
	}
	return nil
}

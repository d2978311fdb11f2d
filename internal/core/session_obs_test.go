package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/dessertlab/patchitpy/internal/obs"
)

// serveOne runs one request through a Serve session and decodes the
// response.
func serveOne(t *testing.T, p *PatchitPy, req Request) Response {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := p.Serve(bytes.NewReader(append(b, '\n')), &out); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("response not JSON: %v\n%s", err, out.String())
	}
	return resp
}

func TestServePing(t *testing.T) {
	p := New()
	resp := serveOne(t, p, Request{Cmd: "ping"})
	if !resp.OK {
		t.Fatalf("ping failed: %+v", resp)
	}
	if resp.Version != Version {
		t.Errorf("version = %q, want %q", resp.Version, Version)
	}
	if resp.UptimeMs < 0 {
		t.Errorf("uptime = %d ms, want >= 0", resp.UptimeMs)
	}
	if resp.RuleCount != 85 {
		t.Errorf("rule count = %d, want 85", resp.RuleCount)
	}
}

func TestServeMetricsVerb(t *testing.T) {
	p := New()
	// Without a registry, "metrics" is a protocol error, not a panic.
	resp := serveOne(t, p, Request{Cmd: "metrics"})
	if resp.OK || !strings.Contains(resp.Error, "no observability registry") {
		t.Errorf("metrics without registry: %+v", resp)
	}

	reg := obs.NewRegistry()
	reg.Enable()
	p.SetObs(reg)

	var in bytes.Buffer
	for _, r := range []Request{
		{Cmd: "detect", Code: vulnerableApp},
		{Cmd: "detect", Code: vulnerableApp}, // identical: cache hit
		{Cmd: "patch", Code: vulnerableApp},  // same source: shares the scan
		{Cmd: "metrics"},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		in.Write(b)
		in.WriteByte('\n')
	}
	var out bytes.Buffer
	if err := p.Serve(&in, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("responses = %d, want 4", len(lines))
	}
	var mr Response
	if err := json.Unmarshal([]byte(lines[3]), &mr); err != nil || !mr.OK || mr.Metrics == nil {
		t.Fatalf("metrics response: %+v (%v)", mr, err)
	}

	// The verb reports the same counters the registry snapshot holds
	// (modulo the metrics request itself, counted after its response).
	if got := mr.Metrics.Counters[obs.MetricServeRequests+`{cmd="detect"}`]; got != 2 {
		t.Errorf("serve detect counter = %g, want 2", got)
	}
	if got := mr.Metrics.Counters[obs.MetricScans]; got != 1 {
		t.Errorf("scans = %g, want 1 (second detect and the patch are cache hits)", got)
	}
	if got := mr.Metrics.Counters[obs.MetricCacheHits+`{cache="scan"}`]; got != 2 {
		t.Errorf("scan cache hits = %g, want 2", got)
	}
	h, ok := mr.Metrics.Histograms[obs.MetricServeDuration+`{cmd="detect"}`]
	if !ok || h.Count != 2 {
		t.Errorf("serve latency histogram = %+v, want 2 observations", h)
	}
	if got := mr.Metrics.Gauges[obs.MetricUptime]; got <= 0 {
		t.Errorf("uptime gauge = %g, want > 0", got)
	}

	// Serve requests leave traces in the ring (newest first).
	traces := reg.TraceBuckets().Recent
	if len(traces) == 0 {
		t.Fatal("no traces recorded for serve requests")
	}
	if !strings.HasPrefix(traces[len(traces)-1].Name, "serve.") {
		t.Errorf("oldest trace = %q, want serve.* root", traces[len(traces)-1].Name)
	}
}

// TestServeObsDisabledIdentical asserts attaching-but-not-enabling a
// registry leaves protocol responses untouched and records nothing.
func TestServeObsDisabledIdentical(t *testing.T) {
	plain := New()
	instrumented := New()
	reg := obs.NewRegistry() // never enabled
	instrumented.SetObs(reg)

	req := Request{Cmd: "detect", Code: vulnerableApp}
	a := serveOne(t, plain, req)
	b := serveOne(t, instrumented, req)
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	if string(ab) != string(bb) {
		t.Errorf("disabled registry changed the response:\n%s\n%s", ab, bb)
	}
	if got := reg.Snapshot().Counters[obs.MetricServeRequests+`{cmd="detect"}`]; got != 0 {
		t.Errorf("disabled registry counted %g serve requests", got)
	}
	if got := len(reg.TraceBuckets().Recent); got != 0 {
		t.Errorf("disabled registry recorded %d traces", got)
	}
}

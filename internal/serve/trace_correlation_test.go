package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dessertlab/patchitpy/internal/core"
	"github.com/dessertlab/patchitpy/internal/obs"
)

// syncBuffer is a goroutine-safe log sink: the handler's deferred log
// write races the test's read otherwise.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// findSpan walks a span tree for the first span satisfying pred.
func findSpan(sd obs.SpanData, pred func(obs.SpanData) bool) (obs.SpanData, bool) {
	if pred(sd) {
		return sd, true
	}
	for _, c := range sd.Children {
		if got, ok := findSpan(c, pred); ok {
			return got, true
		}
	}
	return obs.SpanData{}, false
}

// TestTraceCorrelationEndToEnd is the correlation acceptance test: one
// request carrying a W3C traceparent must be findable, under that exact
// trace ID, in every diagnostic surface — the response header, the
// /debug/traces retention (with engine-level rule and cache
// attributes on its spans), the structured log stream, and an exemplar
// on the serve latency histogram.
func TestTraceCorrelationEndToEnd(t *testing.T) {
	const tid = "4bf92f3577b34da6a3ce929d0e0e4736"

	reg := obs.NewRegistry()
	reg.Enable()
	engine := core.New()
	engine.SetAnalyzers(core.DefaultAnalyzers(engine))
	engine.SetObs(reg)

	logs := &syncBuffer{}
	logger, err := obs.NewLogger(logs, "json", obs.LoggerOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	engine.SetLogger(logger)

	s, err := New(Config{Engine: engine, Obs: reg, Logger: logger})
	if err != nil {
		t.Fatal(err)
	}
	defer s.queue.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	dbg, err := obs.ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer dbg.Close()

	body, _ := json.Marshal(core.Request{Code: vulnCode})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
	httpResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	respBytes, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// (a) The response header echoes the ingested trace ID.
	if got := httpResp.Header.Get("X-Patchitpy-Trace"); got != tid {
		t.Errorf("X-Patchitpy-Trace = %q, want %q", got, tid)
	}
	// The body leaves the trace ID to the header: a cached body is sent
	// to later requests with trace IDs of their own.
	var resp core.Response
	if err := json.Unmarshal(respBytes, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !resp.Vulnerable {
		t.Fatalf("detect response: %+v", resp)
	}
	if resp.Trace != "" {
		t.Errorf("response body trace = %q, want none", resp.Trace)
	}

	// (b) /debug/traces retains the trace under that ID, and its span
	// tree carries the engine-level attributes: the transport root with
	// the queue-wait and encode phases, the engine span with the cache
	// verdict, and a per-rule span naming the rule that fired.
	dresp, err := http.Get("http://" + dbg.Addr() + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var tb obs.TraceBuckets
	err = json.NewDecoder(dresp.Body).Decode(&tb)
	dresp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/traces decode: %v", err)
	}
	var root obs.SpanData
	found := false
	for _, sd := range append(append(tb.Recent, tb.Slow...), tb.Errors...) {
		if sd.TraceID == tid {
			root, found = sd, true
			break
		}
	}
	if !found {
		t.Fatalf("/debug/traces has no trace %s: %+v", tid, tb)
	}
	if root.Name != "http.detect" {
		t.Errorf("root span = %q, want http.detect", root.Name)
	}
	if root.Attrs["cache"] != "miss" || root.Attrs["status"] != float64(200) {
		t.Errorf("root attrs = %v, want cache=miss status=200", root.Attrs)
	}
	for _, phase := range []string{"queue-wait", "encode"} {
		if _, ok := findSpan(root, func(sd obs.SpanData) bool { return sd.Name == phase }); !ok {
			t.Errorf("trace has no %q span: %+v", phase, root)
		}
	}
	if sd, ok := findSpan(root, func(sd obs.SpanData) bool { return sd.Name == "serve.detect" }); !ok {
		t.Errorf("trace has no serve.detect span")
	} else if sd.Attrs["cache.scan"] != "miss" {
		t.Errorf("serve.detect attrs = %v, want cache.scan=miss", sd.Attrs)
	}
	if sd, ok := findSpan(root, func(sd obs.SpanData) bool { return sd.Attrs["rule"] != nil }); !ok {
		t.Errorf("trace has no rule span (vulnCode should fire one)")
	} else if !strings.HasPrefix(sd.Name, "rule.") {
		t.Errorf("rule span name = %q, want rule.<ID>", sd.Name)
	}

	// (c) The structured log stream has a request record carrying the
	// same trace ID. The record is written in a deferred handler after
	// the response is flushed, so poll briefly.
	var logged bool
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !logged {
		sc := bufio.NewScanner(strings.NewReader(logs.String()))
		for sc.Scan() {
			var rec map[string]any
			if json.Unmarshal(sc.Bytes(), &rec) != nil {
				continue
			}
			if rec["msg"] == "request" && rec["trace"] == tid && rec["verb"] == "detect" {
				logged = true
				if rec["status"] != float64(200) || rec["transport"] != "http" {
					t.Errorf("request log record = %v", rec)
				}
			}
		}
		if !logged {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !logged {
		t.Errorf("no request log record with trace %s:\n%s", tid, logs.String())
	}

	// (d) The serve latency histogram exposes the trace ID as an
	// OpenMetrics exemplar.
	mresp, err := http.Get("http://" + dbg.Addr() + "/metrics?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	om, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exemplar := `# {trace_id="` + tid + `"}`
	if !strings.Contains(string(om), exemplar) {
		t.Errorf("OpenMetrics output has no exemplar %s:\n%s", exemplar, om)
	}
	found = false
	for _, line := range strings.Split(string(om), "\n") {
		if strings.HasPrefix(line, obs.MetricHTTPDuration+"_bucket") && strings.Contains(line, exemplar) {
			found = true
		}
	}
	if !found {
		t.Errorf("serve latency histogram %s has no exemplar for %s", obs.MetricHTTPDuration, tid)
	}
	if errs := obs.LintExposition(om); len(errs) != 0 {
		t.Errorf("OpenMetrics output fails lint: %v", errs)
	}
}

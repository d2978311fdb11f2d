package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/dessertlab/patchitpy/internal/core"
	"github.com/dessertlab/patchitpy/internal/editor"
	"github.com/dessertlab/patchitpy/internal/obs"
)

// vulnCode trips the yaml.load rule; cleanCode trips nothing.
const (
	vulnCode  = "import yaml\ncfg = yaml.load(stream)\n"
	cleanCode = "def add(a, b):\n    return a + b\n"
)

// newTestServer builds a Server over a fresh engine (analyzers and an
// enabled obs registry attached) plus an httptest front.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	reg.Enable()
	if cfg.Engine == nil {
		engine := core.New()
		engine.SetAnalyzers(core.DefaultAnalyzers(engine))
		engine.SetObs(reg)
		cfg.Engine = engine
	}
	if cfg.Obs == nil {
		cfg.Obs = reg
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.queue.Close()
	})
	return s, ts, reg
}

// post sends body to path and returns the status and decoded response.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, core.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out core.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode response: %v", path, err)
	}
	return resp.StatusCode, out
}

func get(t *testing.T, ts *httptest.Server, path string) (int, core.Response) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out core.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decode response: %v", path, err)
	}
	return resp.StatusCode, out
}

func TestDetectEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	body, _ := json.Marshal(core.Request{Code: vulnCode})
	status, resp := post(t, ts, "/v1/detect", string(body))
	if status != http.StatusOK || !resp.OK || !resp.Vulnerable {
		t.Fatalf("detect: status=%d resp=%+v", status, resp)
	}
	if len(resp.Findings) == 0 || resp.Findings[0].RuleID == "" {
		t.Fatalf("detect: no findings in %+v", resp)
	}

	body, _ = json.Marshal(core.Request{Code: cleanCode})
	status, resp = post(t, ts, "/v1/detect", string(body))
	if status != http.StatusOK || !resp.OK || resp.Vulnerable {
		t.Fatalf("clean detect: status=%d resp=%+v", status, resp)
	}
}

func TestPatchAndSuggestEndpoints(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	body, _ := json.Marshal(core.Request{Code: vulnCode})
	if status, resp := post(t, ts, "/v1/detect", string(body)); status != http.StatusOK || !resp.OK {
		t.Fatalf("detect: status=%d resp=%+v", status, resp)
	}
	status, resp := post(t, ts, "/v1/patch", string(body))
	if status != http.StatusOK || !resp.OK || resp.Patched == "" {
		t.Fatalf("patch: status=%d resp=%+v", status, resp)
	}
	// A patch after a detect of the same source reuses the detect's scan.
	snap := reg.Snapshot()
	if got := snap.Counters[obs.MetricScans]; got != 1 {
		t.Errorf("scans after detect+patch = %g, want 1", got)
	}
	if got := snap.Counters[obs.MetricCacheHits+`{cache="scan"}`]; got != 1 {
		t.Errorf("scan cache hits after detect+patch = %g, want 1", got)
	}
	if !strings.Contains(resp.Patched, "safe_load") {
		t.Errorf("patch did not rewrite yaml.load: %q", resp.Patched)
	}
	status, resp = post(t, ts, "/v1/suggest", string(body))
	if status != http.StatusOK || !resp.OK || len(resp.Previews) == 0 {
		t.Fatalf("suggest: status=%d resp=%+v", status, resp)
	}
}

func TestToolsRequest(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	body, _ := json.Marshal(core.Request{Code: vulnCode, Tools: []string{"Bandit", "PatchitPy"}})
	status, resp := post(t, ts, "/v1/detect", string(body))
	if status != http.StatusOK || !resp.OK || len(resp.Tools) != 2 {
		t.Fatalf("tools detect: status=%d resp=%+v", status, resp)
	}
}

func TestGetEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, verb := range []string{"ping", "stats", "metrics", "rules", "vet"} {
		status, resp := get(t, ts, "/v1/"+verb)
		if status != http.StatusOK || !resp.OK {
			t.Errorf("GET /v1/%s: status=%d resp.OK=%v error=%q", verb, status, resp.OK, resp.Error)
		}
	}
	if status, resp := get(t, ts, "/v1/ping"); status != http.StatusOK || resp.Version != core.Version {
		t.Errorf("ping: status=%d version=%q", status, resp.Version)
	}
}

func TestSessionEndpoints(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})

	// Open a buffer, edit it incrementally, close it.
	body, _ := json.Marshal(core.Request{Code: vulnCode})
	status, resp := post(t, ts, "/v1/open", string(body))
	if status != http.StatusOK || !resp.OK || resp.Session == "" {
		t.Fatalf("open: status=%d resp=%+v", status, resp)
	}
	if !resp.Vulnerable || len(resp.Findings) == 0 {
		t.Fatalf("open should report the yaml.load finding: %+v", resp)
	}
	sid := resp.Session

	edit := core.Request{Session: sid, Edits: []editor.TextEdit{{
		Range:   editor.Range{Start: editor.Position{Line: 2}, End: editor.Position{Line: 2}},
		NewText: "x = eval(user_input)\n",
	}}}
	body, _ = json.Marshal(edit)
	status, resp = post(t, ts, "/v1/edit", string(body))
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("edit: status=%d resp=%+v", status, resp)
	}
	if resp.Inc == nil || resp.Inc.Full {
		t.Fatalf("edit should re-scan incrementally: inc=%+v", resp.Inc)
	}
	if len(resp.Findings) < 2 {
		t.Fatalf("edit should add the eval finding: %+v", resp.Findings)
	}
	firstGen := resp.Gen

	// An identical edit request must execute again, not come from the
	// response cache: the verb is stateful (same bytes, new meaning).
	status, resp = post(t, ts, "/v1/edit", string(body))
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("second edit: status=%d resp=%+v", status, resp)
	}
	if resp.Gen == firstGen {
		t.Fatal("second identical edit was served from cache: generation did not advance")
	}
	if st := s.respCache.Stats(); st.Hits != 0 {
		t.Errorf("session verb produced response-cache hits: %+v", st)
	}

	// Session verbs require POST.
	if got, _ := get(t, ts, "/v1/open"); got != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/open = %d, want 405", got)
	}

	body, _ = json.Marshal(core.Request{Session: sid})
	status, resp = post(t, ts, "/v1/close", string(body))
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("close: status=%d resp=%+v", status, resp)
	}
	status, resp = post(t, ts, "/v1/close", string(body))
	if status != http.StatusBadRequest || resp.OK {
		t.Fatalf("double close should be a protocol error: status=%d resp=%+v", status, resp)
	}
}

func TestRPCEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	status, resp := post(t, ts, "/v1/rpc", `{"cmd":"ping"}`)
	if status != http.StatusOK || !resp.OK {
		t.Fatalf("rpc ping: status=%d resp=%+v", status, resp)
	}
	if status, resp := post(t, ts, "/v1/rpc", `{"code":"x"}`); status != http.StatusBadRequest || resp.OK {
		t.Fatalf("rpc without cmd: status=%d resp=%+v", status, resp)
	}
}

func TestErrorPaths(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxBodyBytes: 1024})
	if status, resp := post(t, ts, "/v1/frobnicate", `{}`); status != http.StatusBadRequest ||
		!strings.Contains(resp.Error, "unknown command") {
		t.Errorf("unknown verb: status=%d resp=%+v", status, resp)
	}
	if status, resp := post(t, ts, "/v1/detect", `{"cmd":"patch"}`); status != http.StatusBadRequest ||
		!strings.Contains(resp.Error, "does not match") {
		t.Errorf("cmd mismatch: status=%d resp=%+v", status, resp)
	}
	if status, resp := post(t, ts, "/v1/detect", `{"code":`); status != http.StatusBadRequest ||
		!strings.Contains(resp.Error, "bad request") {
		t.Errorf("malformed JSON: status=%d resp=%+v", status, resp)
	}
	big, _ := json.Marshal(core.Request{Code: strings.Repeat("x", 2048)})
	if status, _ := post(t, ts, "/v1/detect", string(big)); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status=%d, want 413", status)
	}
	// GET on a body-taking verb is refused.
	if status, _ := get(t, ts, "/v1/detect"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET detect: status=%d, want 405", status)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/ping", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE ping: status=%d, want 405", resp.StatusCode)
	}
	if status, _ := post(t, ts, "/v1/", `{}`); status != http.StatusNotFound {
		t.Errorf("empty verb: status=%d, want 404", status)
	}
	_ = s
}

// TestResponseCacheCoalesces proves a repeated identical request is a
// response-cache hit answered without consuming a queue slot.
func TestResponseCacheCoalesces(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	body, _ := json.Marshal(core.Request{Code: vulnCode})
	_, first := post(t, ts, "/v1/detect", string(body))
	_, second := post(t, ts, "/v1/detect", string(body))
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Fatalf("cached response differs:\n%s\n%s", a, b)
	}
	if st := s.respCache.Stats(); st.Hits == 0 {
		t.Errorf("response cache stats after repeat: %+v, want a hit", st)
	}
	// Protocol failures must not be cached.
	bad, _ := json.Marshal(core.Request{Code: vulnCode, Tools: []string{"nosuch"}})
	post(t, ts, "/v1/detect", string(bad))
	hitsBefore := s.respCache.Stats().Hits
	if status, resp := post(t, ts, "/v1/detect", string(bad)); status != http.StatusBadRequest || resp.OK {
		t.Errorf("repeated failing request: status=%d resp=%+v", status, resp)
	}
	if st := s.respCache.Stats(); st.Hits != hitsBefore {
		t.Errorf("failing response was served from cache (hits %d -> %d)", hitsBefore, st.Hits)
	}
}

// TestResponseCacheKeysOnTaint proves the response cache keys on every
// request field: a taint-filtered detect after a plain detect of the same
// code gets the filtered answer, not the cached plain one.
func TestResponseCacheKeysOnTaint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	const code = "import os\nos.system(\"ls -l\")\n"
	plain, _ := json.Marshal(core.Request{Code: code})
	filtered, _ := json.Marshal(core.Request{Code: code, Taint: true})
	if _, resp := post(t, ts, "/v1/detect", string(plain)); !resp.Vulnerable || resp.TaintSuppressed != 0 {
		t.Fatalf("plain detect: %+v", resp)
	}
	_, resp := post(t, ts, "/v1/detect", string(filtered))
	if resp.Vulnerable || resp.TaintSuppressed != 1 || len(resp.Findings) != 1 || !resp.Findings[0].Suppressed {
		t.Errorf("taint detect after a plain one: %+v, want its one finding suppressed", resp)
	}
}

// TestCachedBodyCarriesNoTrace sends one detect twice under different
// traceparents. The second is a cache hit; each response's header names
// its own trace, and neither body carries a trace ID, so a cached body
// cannot hand one request's ID to another.
func TestCachedBodyCarriesNoTrace(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	body, _ := json.Marshal(core.Request{Code: vulnCode})
	tids := []string{"4bf92f3577b34da6a3ce929d0e0e4736", "0af7651916cd43dd8448eb211c80319c"}
	for _, tid := range tids {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/detect", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", "00-"+tid+"-00f067aa0ba902b7-01")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.Header.Get("X-Patchitpy-Trace"); got != tid {
			t.Errorf("X-Patchitpy-Trace = %q, want %q", got, tid)
		}
		for _, other := range tids {
			if bytes.Contains(raw, []byte(other)) {
				t.Errorf("request traced %s got a body holding trace %s: %s", tid, other, raw)
			}
		}
	}
	if st := s.respCache.Stats(); st.Hits != 1 {
		t.Errorf("response cache hits = %d, want 1", st.Hits)
	}
}

// TestDeepNestingAnswered sends code nesting brackets 100k deep, and a
// line of 2 million unary minus signs, after a flow-gated sink so both a
// taint-filtered detect and "tools" parse them; each request gets an
// answer and the server keeps serving.
func TestDeepNestingAnswered(t *testing.T) {
	// Tokenizing 2 MB takes seconds under -race; the test is about the
	// answer, not the default deadline.
	_, ts, _ := newTestServer(t, Config{Timeout: 5 * time.Minute})
	next, _ := json.Marshal(core.Request{Code: vulnCode})
	for _, deep := range []string{
		"x = " + strings.Repeat("(", 100000) + "1" + strings.Repeat(")", 100000) + "\n",
		"x = " + strings.Repeat("-", 2_000_000) + "1\n",
	} {
		code := "import os\nos.system(cmd)\n" + deep
		for _, req := range []core.Request{
			{Code: code, Taint: true},
			{Code: code, Tools: []string{"Bandit", "CodeQL"}},
		} {
			body, _ := json.Marshal(req)
			if status, resp := post(t, ts, "/v1/detect", string(body)); status != http.StatusOK || !resp.OK {
				t.Errorf("%.8q… (taint=%t tools=%v): status=%d ok=%t error=%q", deep, req.Taint, req.Tools, status, resp.OK, resp.Error)
			}
			if status, resp := post(t, ts, "/v1/detect", string(next)); status != http.StatusOK || !resp.Vulnerable {
				t.Fatalf("detect after %.8q…: status=%d resp=%+v", deep, status, resp)
			}
		}
	}
}

// TestDeadlineWhileQueued holds the only worker busy so a short-deadline
// request expires in the queue and is answered 503 without executing.
func TestDeadlineWhileQueued(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{Workers: 1, QueueDepth: 4, Timeout: 50 * time.Millisecond})
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testHook = func(string) {
		entered <- struct{}{}
		<-release
	}
	defer close(release)
	go func() { // occupies the worker
		resp, err := http.Get(ts.URL + "/v1/ping")
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered
	status, resp := get(t, ts, "/v1/ping")
	if status != http.StatusServiceUnavailable || resp.OK {
		t.Fatalf("queued past deadline: status=%d resp=%+v", status, resp)
	}
	if n := reg.Counter(obs.MetricHTTPTimeouts).Value(); n == 0 {
		t.Error("timeout counter not incremented")
	}
}

// TestShutdownDrains starts a real listener, then proves Shutdown stops
// accepting while a request in flight still completes.
func TestShutdownDrains(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Enable()
	engine := core.New()
	engine.SetObs(reg)
	s, err := New(Config{Engine: engine, Obs: reg, Workers: 2, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHook = func(string) {
		entered <- struct{}{}
		<-release
	}
	type result struct {
		status int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr() + "/v1/ping")
		if err != nil {
			inflight <- result{err: err}
			return
		}
		resp.Body.Close()
		inflight <- result{status: resp.StatusCode}
	}()
	<-entered

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown close the listener
	close(release)

	r := <-inflight
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: %+v", r)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after Shutdown, want nil", err)
	}
	if _, err := http.Get("http://" + s.Addr() + "/v1/ping"); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
}

func TestNewRequiresEngine(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without engine succeeded")
	}
}

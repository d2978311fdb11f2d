package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDebugServer(t *testing.T) {
	reg := fixtureRegistry()
	reg.Enable()
	_, sp := Start(With(t.Context(), reg), "scan")
	sp.End()

	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "patchitpy_scans_total 3") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	var vars struct {
		Cmdline   []string  `json:"cmdline"`
		PatchitPy *Snapshot `json:"patchitpy"`
	}
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if len(vars.Cmdline) == 0 || vars.PatchitPy == nil {
		t.Errorf("/debug/vars incomplete: %+v", vars)
	}
	if vars.PatchitPy.Counters["patchitpy_scans_total"] != 3 {
		t.Errorf("/debug/vars snapshot counter = %g, want 3", vars.PatchitPy.Counters["patchitpy_scans_total"])
	}
	var tb TraceBuckets
	if err := json.Unmarshal([]byte(get("/debug/traces")), &tb); err != nil {
		t.Fatalf("/debug/traces not JSON: %v", err)
	}
	if len(tb.Recent) != 1 || tb.Recent[0].Name != "scan" {
		t.Errorf("/debug/traces recent = %+v, want one scan trace", tb.Recent)
	}
	if tb.Recent[0].TraceID == "" || tb.Recent[0].SpanID == "" {
		t.Errorf("trace missing identity: %+v", tb.Recent[0])
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get("/debug/traces?format=chrome")), &chrome); err != nil {
		t.Fatalf("/debug/traces?format=chrome not JSON: %v", err)
	}
	if len(chrome.TraceEvents) != 1 || chrome.TraceEvents[0]["name"] != "scan" || chrome.TraceEvents[0]["ph"] != "X" {
		t.Errorf("chrome export = %+v, want one complete scan event", chrome.TraceEvents)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "pprof") {
		t.Errorf("/debug/pprof/ index unexpected:\n%s", body)
	}
}

// TestDebugTracesConcurrent hammers the /debug/traces handler (both
// formats) and /metrics while spans are being recorded concurrently —
// the exporter must never race with live tracing (run under -race in
// CI).
func TestDebugTracesConcurrent(t *testing.T) {
	reg := NewRegistry()
	reg.Enable()
	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, root := Start(With(context.Background(), reg), "req")
				root.SetAttr("g", 1)
				_, child := Start(ctx, "work")
				child.SetAttr("rule", "PIP-X")
				child.End()
				if root != nil {
					reg.Histogram(MetricScanDuration, nil).ObserveExemplar(time.Millisecond, root.TraceID())
				}
				root.End()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		for _, path := range []string{"/debug/traces", "/debug/traces?format=chrome", "/metrics?format=openmetrics"} {
			resp, err := http.Get("http://" + srv.Addr() + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			if _, err := io.ReadAll(resp.Body); err != nil {
				t.Fatalf("read %s: %v", path, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d", path, resp.StatusCode)
			}
		}
	}
	close(stop)
	wg.Wait()
}

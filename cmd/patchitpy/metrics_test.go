package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dessertlab/patchitpy/internal/obs"
)

// captureStderr redirects the package stderr writer for one test.
func captureStderr(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	old := stderr
	stderr = &buf
	t.Cleanup(func() { stderr = old })
	return &buf
}

// TestMetricsSnapshotSchema runs a real detect over the test project with
// -metrics-out and validates the snapshot file: top-level shape, the
// canonical metric names, and cross-field consistency. This is the same
// contract the CI metrics-smoke step checks.
func TestMetricsSnapshotSchema(t *testing.T) {
	errBuf := captureStderr(t)
	path := filepath.Join(t.TempDir(), "metrics.json")

	var out bytes.Buffer
	err := runW(&out, []string{"detect", "-metrics-out", path, "testdata/project/..."})
	if err != nil && !errors.Is(err, errFindings) {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if snap.Counters == nil || snap.Gauges == nil || snap.Histograms == nil {
		t.Fatalf("snapshot missing top-level sections: %s", data)
	}

	scans := snap.Counters[obs.MetricScans]
	if scans <= 0 {
		t.Errorf("%s = %g, want > 0", obs.MetricScans, scans)
	}
	if got := snap.Counters[obs.MetricScanFindings]; got <= 0 {
		t.Errorf("%s = %g, want > 0 (the test project has findings)", obs.MetricScanFindings, got)
	}
	if rate := snap.Gauges[obs.MetricPrefilterSkipRate]; rate < 0 || rate > 1 {
		t.Errorf("prefilter skip rate = %g, want within [0,1]", rate)
	}
	if hr := snap.CacheHitRate(); hr < 0 || hr > 1 {
		t.Errorf("cache hit rate = %g, want within [0,1]", hr)
	}
	h, ok := snap.Histograms[obs.MetricScanDuration]
	if !ok {
		t.Fatalf("%s histogram missing", obs.MetricScanDuration)
	}
	if h.Count != uint64(scans) {
		t.Errorf("scan histogram count = %d, want %g (one per scan)", h.Count, scans)
	}
	if len(h.Buckets) == 0 || h.Buckets[len(h.Buckets)-1].LE != "+Inf" {
		t.Errorf("scan histogram buckets malformed: %+v", h.Buckets)
	}
	if _, ok := snap.Histograms[obs.MetricAnalyzerDuration+`{tool="PatchitPy"}`]; !ok {
		t.Error("per-analyzer latency histogram missing")
	}

	// The summary line went to stderr, not stdout (golden output stays
	// byte-identical).
	if !strings.Contains(errBuf.String(), "scanned 3 files") {
		t.Errorf("stderr missing summary line: %q", errBuf.String())
	}
	if strings.Contains(out.String(), "scanned 3 files") {
		t.Error("summary line leaked into stdout")
	}
}

func TestDetectNoSummary(t *testing.T) {
	errBuf := captureStderr(t)
	var out bytes.Buffer
	err := runW(&out, []string{"detect", "-no-summary", "testdata/project/clean.py"})
	if err != nil {
		t.Fatal(err)
	}
	if errBuf.Len() != 0 {
		t.Errorf("-no-summary still wrote to stderr: %q", errBuf.String())
	}
}

func TestDetectSummaryCacheHits(t *testing.T) {
	errBuf := captureStderr(t)
	// Two copies of the same file: the second scan is a cache hit, and the
	// summary's hit-rate reflects it. -j 1 keeps the scans sequential; two
	// concurrent identical scans share one computation, and the waiting
	// one counts as a miss.
	dir := t.TempDir()
	code, err := os.ReadFile("testdata/project/a.py")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"one.py", "two.py"} {
		if err := os.WriteFile(filepath.Join(dir, name), code, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	err = runW(io.Discard, []string{"detect", "-j", "1", dir + "/..."})
	if !errors.Is(err, errFindings) {
		t.Fatalf("expected findings, got %v", err)
	}
	line := errBuf.String()
	if !strings.Contains(line, "scanned 2 files") || !strings.Contains(line, "hit-rate 50.0%") {
		t.Errorf("summary = %q, want 2 files at 50%% hit-rate", line)
	}
}

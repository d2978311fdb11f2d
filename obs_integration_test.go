package patchitpy

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/dessertlab/patchitpy/internal/detect"
	"github.com/dessertlab/patchitpy/internal/obs"
)

// TestObsCorpusScanConsistent scans the full corpus with an enabled
// registry attached and cross-checks the recorded metrics against each
// other and against the scan's actual output: the counters a dashboard
// would plot must be internally consistent, not merely present.
func TestObsCorpusScanConsistent(t *testing.T) {
	// Dedupe by code: the scan cache collapses identical sources into one
	// real scan, which would skew the one-scan-per-source accounting below.
	var srcs []string
	seen := map[string]bool{}
	for _, s := range corpusSources(t) {
		if !seen[s] {
			seen[s] = true
			srcs = append(srcs, s)
		}
	}
	reg := obs.NewRegistry()
	reg.Enable()
	d := detect.New(nil)
	d.SetObs(reg)

	ctx := obs.With(context.Background(), reg)
	results, err := scanCorpus(ctx, d, srcs, detect.Options{})
	if err != nil {
		t.Fatal(err)
	}
	findings := 0
	for _, fs := range results {
		findings += len(fs)
	}

	snap := reg.Snapshot()

	if got := snap.Counters[obs.MetricScans]; got != float64(len(srcs)) {
		t.Errorf("scans counter = %g, want %d (one per source, cold cache)", got, len(srcs))
	}
	if got := snap.Counters[obs.MetricScanFindings]; got != float64(findings) {
		t.Errorf("findings counter = %g, want the scan's actual %d", got, findings)
	}

	// Rules evaluated must be able to account for every finding: a rule
	// evaluation yields zero or more findings, so evaluated >= findings.
	var ruleRuns float64
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, obs.MetricRuleRuns) {
			ruleRuns += v
		}
	}
	if ruleRuns < float64(findings) {
		t.Errorf("rule runs %g < findings %d — impossible accounting", ruleRuns, findings)
	}

	// Prefilter accounting: considered = skipped + evaluated.
	considered := snap.Counters[obs.MetricPrefilterConsidered]
	skipped := snap.Counters[obs.MetricPrefilterSkipped]
	if considered != skipped+ruleRuns {
		t.Errorf("prefilter considered %g != skipped %g + evaluated %g", considered, skipped, ruleRuns)
	}
	if rate := snap.Gauges[obs.MetricPrefilterSkipRate]; rate < 0 || rate > 1 {
		t.Errorf("prefilter skip rate = %g, want within [0,1]", rate)
	}

	// Every hit-rate style gauge is a proportion.
	for k, v := range snap.Gauges {
		if strings.HasPrefix(k, obs.MetricCacheHitRate) && (v < 0 || v > 1) {
			t.Errorf("%s = %g, want within [0,1]", k, v)
		}
	}
	if hr := snap.CacheHitRate(); hr < 0 || hr > 1 {
		t.Errorf("aggregate cache hit rate = %g, want within [0,1]", hr)
	}

	// The scan-latency histogram saw exactly the uncached scans.
	h, ok := snap.Histograms[obs.MetricScanDuration]
	if !ok {
		t.Fatal("scan duration histogram missing")
	}
	if h.Count != uint64(len(srcs)) {
		t.Errorf("scan histogram count = %d, want %d", h.Count, len(srcs))
	}
	if h.Count > 0 && h.Sum <= 0 {
		t.Errorf("scan histogram sum = %g with %d observations", h.Sum, h.Count)
	}

	// The workpool saw the batch.
	if got := snap.Counters[obs.MetricPoolJobs]; got != float64(len(srcs)) {
		t.Errorf("pool jobs = %g, want %d", got, len(srcs))
	}

	// A second pass over the same sources is answered by the scan cache:
	// hits rise, the uncached-scan counter does not.
	if _, err := scanCorpus(ctx, d, srcs, detect.Options{}); err != nil {
		t.Fatal(err)
	}
	snap2 := reg.Snapshot()
	if got := snap2.Counters[obs.MetricScans]; got != float64(len(srcs)) {
		t.Errorf("scans counter after cached re-scan = %g, want unchanged %d", got, len(srcs))
	}
	hits := snap2.Counters[obs.MetricCacheHits+`{cache="scan"}`]
	if hits < float64(len(srcs)) {
		t.Errorf("scan cache hits after re-scan = %g, want >= %d", hits, len(srcs))
	}

	// The summary line reflects this snapshot's numbers.
	line := snap2.SummaryLine(len(srcs), findings)
	if !strings.Contains(line, fmt.Sprintf("scanned %d files", len(srcs))) {
		t.Errorf("summary line %q does not carry the file count", line)
	}
}

// TestObsDetachedScanIdentical asserts the no-op guarantee: findings with
// a registry attached are byte-identical to findings without one, and a
// disabled registry records nothing.
func TestObsDetachedScanIdentical(t *testing.T) {
	srcs := corpusSources(t)[:50]

	plain := detect.New(nil)
	instrumented := detect.New(nil)
	reg := obs.NewRegistry() // attached but never enabled
	instrumented.SetObs(reg)

	for i, s := range srcs {
		a := plain.ScanWith(s, detect.Options{NoCache: true})
		b := instrumented.ScanWith(s, detect.Options{NoCache: true})
		if len(a) != len(b) {
			t.Fatalf("sample %d: instrumented scan changed results: %d vs %d findings", i, len(a), len(b))
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sample %d: instrumented scan changed findings", i)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters[obs.MetricScans]; got != 0 {
		t.Errorf("disabled registry recorded %g scans", got)
	}
	if h := snap.Histograms[obs.MetricScanDuration]; h.Count != 0 {
		t.Errorf("disabled registry recorded %d scan durations", h.Count)
	}
}

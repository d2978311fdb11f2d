// Package core wires PatchitPy's two-phase workflow (paper Fig. 1)
// together: phase one scans Python source with the 85-rule catalog, phase
// two applies the mined safe alternatives and inserts required imports.
// The root patchitpy package re-exports this API for library users.
//
// Detection is memoized in the detector's content-addressed scan cache,
// keyed by (catalog fingerprint, options fingerprint, source text): a
// repeated Analyze, AnalyzeTaint or Fix of the same source is a hash
// lookup instead of a scan, Fix shares the plain Analyze entry, and
// concurrent identical requests are de-duplicated to a single scan. Only
// the cheap report assembly and patch.Apply rerun on a hit.
package core

import (
	"context"
	"log/slog"
	"time"

	"github.com/dessertlab/patchitpy/internal/detect"
	"github.com/dessertlab/patchitpy/internal/diag"
	"github.com/dessertlab/patchitpy/internal/docsession"
	"github.com/dessertlab/patchitpy/internal/editor"
	"github.com/dessertlab/patchitpy/internal/obs"
	"github.com/dessertlab/patchitpy/internal/patch"
	"github.com/dessertlab/patchitpy/internal/resultcache"
	"github.com/dessertlab/patchitpy/internal/rules"
)

// Version is the engine version reported by the serve protocol's "ping"
// verb and re-exported by the root package.
const Version = "0.8.0"

// processStart anchors the uptime reported by "ping" and the
// obs uptime gauge.
var processStart = time.Now()

// PatchitPy is the analysis-and-remediation engine. It is safe for
// concurrent use: all state is immutable after construction except the
// detector's scan cache, which is concurrency-safe.
type PatchitPy struct {
	detector *detect.Detector

	// sessions backs the serve protocol's stateful buffer verbs
	// (open/edit/close): incremental re-scanning over long-lived
	// documents instead of whole-buffer re-submission.
	sessions *docsession.Manager

	// analyzers, when set, is the registry the serve protocol's "tools"
	// request field queries (see SetAnalyzers).
	analyzers *diag.Registry

	// obsReg and the serve* handles are the observability wiring attached
	// by SetObs; nil obsReg means detached.
	obsReg    *obs.Registry
	serveReqs *obs.Vec
	serveDur  *obs.HistogramVec

	// logger, when set, receives structured serve logs (see SetLogger);
	// nil means silent.
	logger *slog.Logger
}

// SetObs attaches an observability registry to the engine: the detector's
// scan and scan-cache metrics (SetObs on the detector), the process
// uptime gauge, and per-request
// counters and latency histograms for the serve session protocol. Pass
// nil to detach. Setup API — do not call with requests in flight.
func (p *PatchitPy) SetObs(reg *obs.Registry) {
	p.obsReg = reg
	if reg == nil {
		p.detector.SetObs(nil)
		p.sessions.SetObs(nil)
		p.serveReqs, p.serveDur = nil, nil
		return
	}
	p.detector.SetObs(reg)
	p.sessions.SetObs(reg)
	reg.GaugeFunc(obs.MetricUptime, func() float64 { return time.Since(processStart).Seconds() })
	p.serveReqs = reg.CounterVec(obs.MetricServeRequests, "cmd")
	p.serveDur = reg.HistogramVec(obs.MetricServeDuration, "cmd", nil)
}

// SetLogger attaches a structured logger: the stdio serve loop logs one
// record per request (cmd, ok, duration, trace ID) and the session
// store logs evictions and error closes. Pass nil to silence. Setup
// API — do not call with requests in flight.
func (p *PatchitPy) SetLogger(l *slog.Logger) {
	p.logger = l
	p.sessions.SetLogger(l)
}

// New returns an engine using the built-in 85-rule catalog.
func New() *PatchitPy {
	return NewWithCatalog(nil)
}

// NewWithCatalog returns an engine over a custom catalog (nil = built-in).
func NewWithCatalog(catalog *rules.Catalog) *PatchitPy {
	p := &PatchitPy{detector: detect.New(catalog)}
	p.sessions = docsession.NewManager(p.detector, docsession.DefaultCapacity)
	return p
}

// SetCacheBytes resizes the detector's scan cache, the engine's only
// result cache, to roughly n bytes; n <= 0 disables it. Existing entries
// and counters are dropped; call during setup, not with requests in
// flight.
func (p *PatchitPy) SetCacheBytes(n int64) { p.detector.SetCacheBytes(n) }

// CacheStats pairs the scan cache's hit/miss/eviction counters with the
// detector's prefilter statistics.
type CacheStats struct {
	// Scan counts the detector's scan cache, which serves Analyze,
	// AnalyzeTaint and Fix, and through them the detect, suggest and
	// patch verbs.
	Scan resultcache.Stats
	// Prefilter is the detector's cumulative rule-skip accounting.
	Prefilter detect.ScanStats
}

// CacheStats returns a snapshot of the engine's cache and prefilter
// counters.
func (p *PatchitPy) CacheStats() CacheStats {
	return CacheStats{
		Scan:      p.detector.CacheStats(),
		Prefilter: p.detector.Stats(),
	}
}

// Catalog exposes the rule catalog in use.
func (p *PatchitPy) Catalog() *rules.Catalog { return p.detector.Catalog() }

// Report is the outcome of the detection phase.
type Report struct {
	// Findings are the rule matches, in source order. Under AnalyzeTaint,
	// findings the precision filter proved constant stay in the slice with
	// their Suppressed bit set.
	Findings []detect.Finding
	// Suppressed counts the findings the taint precision filter demoted;
	// always 0 for plain Analyze.
	Suppressed int
	// Vulnerable is the per-sample binary judgement used by the paper,
	// computed over unsuppressed findings.
	Vulnerable bool
	// CWEs is the sorted set of distinct CWEs among unsuppressed findings.
	CWEs []string
}

// Analyze runs the detection phase on src. Repeated calls with identical
// src are served from the scan cache.
func (p *PatchitPy) Analyze(src string) Report {
	return p.AnalyzeContext(context.Background(), src)
}

// AnalyzeContext is Analyze with a caller context, which carries the
// tracing span tree and any context-scoped obs registry through the scan.
func (p *PatchitPy) AnalyzeContext(ctx context.Context, src string) Report {
	return p.analyze(ctx, p.detector.Prepare(src), detect.Options{})
}

// AnalyzeTaint is AnalyzeTaintContext with a background context.
func (p *PatchitPy) AnalyzeTaint(src string) Report {
	return p.AnalyzeTaintContext(context.Background(), src)
}

// AnalyzeTaintContext is AnalyzeContext with the taint precision filter
// enabled: flow-gated findings whose sink argument the taint engine proves
// constant come back with Suppressed set, and Vulnerable (plus CWEs and
// the Suppressed count) is computed over the unsuppressed findings only.
// The options fingerprint keys filtered scans apart from plain ones, so
// the two never collide in the scan cache.
func (p *PatchitPy) AnalyzeTaintContext(ctx context.Context, src string) Report {
	return p.analyze(ctx, p.detector.Prepare(src), detect.Options{TaintFilter: true})
}

// analyze runs detection over an already-prepared source through the
// detector's scan cache and assembles the report. The findings slice is
// fresh per call, so callers may mutate the report freely.
func (p *PatchitPy) analyze(ctx context.Context, prep *detect.Prepared, opt detect.Options) Report {
	findings := p.detector.ScanPreparedContext(ctx, prep, opt)
	live := findings
	if opt.TaintFilter {
		live = make([]detect.Finding, 0, len(findings))
		for _, f := range findings {
			if !f.Suppressed {
				live = append(live, f)
			}
		}
	}
	return Report{
		Findings:   findings,
		Suppressed: len(findings) - len(live),
		Vulnerable: len(live) > 0,
		CWEs:       detect.DistinctCWEs(live),
	}
}

// FixOutcome is the outcome of the remediation phase.
type FixOutcome struct {
	// Report is the detection report the fixes were derived from.
	Report Report
	// Result carries the patched source, applied fixes and any findings
	// left unpatched (detection-only rules).
	Result patch.Result
	// Edits are the equivalent editor TextEdits for the applied fixes,
	// expressed against the *original* source (the extension's
	// editBuilder.replace() payload). Import insertions are not included;
	// they are separate top-of-file insertions.
	Edits []editor.TextEdit
}

// Fix runs both phases: detection followed by patching. Detection of a
// repeated src is served from the scan cache, shared with Analyze.
func (p *PatchitPy) Fix(src string) FixOutcome {
	return p.FixContext(context.Background(), src)
}

// FixContext is Fix with a caller context (see AnalyzeContext). One
// Prepared is shared between the phases: the patch phase's edit positions
// use the line index of the Prepared the detection scan ran on (the text
// is unchanged between detection and edit computation).
func (p *PatchitPy) FixContext(ctx context.Context, src string) FixOutcome {
	prep := p.detector.Prepare(src)
	report := p.analyze(ctx, prep, detect.Options{})
	_, patchSpan := obs.Start(ctx, "patch")
	result := patch.Apply(src, report.Findings)
	patchSpan.End()
	lines := prep.Lines()
	edits := make([]editor.TextEdit, 0, len(result.Applied))
	for _, a := range result.Applied {
		startLine, startCol := lines.Position(a.Finding.Start)
		endLine, endCol := lines.Position(a.Finding.End)
		edits = append(edits, editor.TextEdit{
			Range: editor.Range{
				Start: editor.Position{Line: startLine, Character: startCol},
				End:   editor.Position{Line: endLine, Character: endCol},
			},
			NewText: a.Replacement,
		})
	}
	return FixOutcome{Report: report, Result: result, Edits: edits}
}

package core

import (
	"context"

	"github.com/dessertlab/patchitpy/internal/baseline/banditlite"
	"github.com/dessertlab/patchitpy/internal/baseline/querydb"
	"github.com/dessertlab/patchitpy/internal/baseline/semgreplite"
	"github.com/dessertlab/patchitpy/internal/detect"
	"github.com/dessertlab/patchitpy/internal/diag"
)

// engineAnalyzer adapts the two-phase engine (detect + patch) to the
// unified diagnostics model. Unlike the detector-level adapter, its
// Result carries the patched source, so it implements diag.Patcher and
// drives the Table III rows.
type engineAnalyzer struct {
	p *PatchitPy
}

// Analyzer returns the engine as a diag.Analyzer named "PatchitPy".
// Analyze runs both phases like a direct Fix call, so a repeated source's
// detection is a scan-cache lookup.
func (p *PatchitPy) Analyzer() diag.Analyzer { return engineAnalyzer{p: p} }

// Name implements diag.Analyzer.
func (engineAnalyzer) Name() string { return detect.ToolName }

// CanPatch implements diag.Patcher.
func (engineAnalyzer) CanPatch() bool { return true }

// Analyze implements diag.Analyzer.
func (a engineAnalyzer) Analyze(ctx context.Context, src string) (diag.Result, error) {
	if err := ctx.Err(); err != nil {
		return diag.Result{}, err
	}
	outcome := a.p.Fix(src)
	return diag.Result{
		Tool:       detect.ToolName,
		Findings:   detect.DiagFindings(outcome.Report.Findings),
		Vulnerable: outcome.Report.Vulnerable,
		Patched:    outcome.Result.Source,
	}, nil
}

// DefaultAnalyzers returns a registry holding the engine plus the three
// static-analysis baselines, in the paper's Table II row order:
// PatchitPy, CodeQL, Semgrep, Bandit. The LLM assistants are excluded —
// they need generated-sample context that interactive callers don't have.
func DefaultAnalyzers(p *PatchitPy) *diag.Registry {
	reg := diag.NewRegistry()
	reg.MustRegister(p.Analyzer())
	reg.MustRegister(querydb.New().Analyzer())
	reg.MustRegister(semgreplite.New().Analyzer())
	reg.MustRegister(banditlite.New().Analyzer())
	return reg
}

// SetAnalyzers attaches a registry of analyzers the serve protocol's
// "tools" request field can query. The registry should include this
// engine's own Analyzer under "PatchitPy"; DefaultAnalyzers builds that
// shape. A nil registry disables per-tool queries.
func (p *PatchitPy) SetAnalyzers(reg *diag.Registry) { p.analyzers = reg }

// Analyzers returns the registry attached with SetAnalyzers (nil when
// none is attached).
func (p *PatchitPy) Analyzers() *diag.Registry { return p.analyzers }

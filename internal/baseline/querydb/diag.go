package querydb

import (
	"context"

	"github.com/dessertlab/patchitpy/internal/diag"
)

// ToolName is the analyzer name in the unified diagnostics model.
const ToolName = "CodeQL"

// DiagFinding translates one query hit into the canonical model. Query
// ID, CWE and line carry over verbatim; querydb assigns no severity or
// OWASP category, so those stay empty.
func DiagFinding(r Result) diag.Finding {
	return diag.Finding{
		Tool:    ToolName,
		RuleID:  r.Query,
		CWE:     r.CWE,
		Line:    r.Line,
		Message: r.Query,
	}
}

// analyzer adapts an Engine to diag.Analyzer: one extraction + query run
// per Analyze, with the binary judgement derived from that one Result
// instead of a second Vulnerable scan.
type analyzer struct {
	e *Engine
}

// Analyzer returns the engine as a diag.Analyzer named "CodeQL".
func (e *Engine) Analyzer() diag.Analyzer { return analyzer{e: e} }

// Name implements diag.Analyzer.
func (analyzer) Name() string { return ToolName }

// Analyze implements diag.Analyzer.
func (a analyzer) Analyze(ctx context.Context, src string) (diag.Result, error) {
	if err := ctx.Err(); err != nil {
		return diag.Result{}, err
	}
	rs := a.e.Scan(src)
	out := make([]diag.Finding, 0, len(rs))
	for _, r := range rs {
		out = append(out, DiagFinding(r))
	}
	diag.Sort(out)
	return diag.Result{Tool: ToolName, Findings: out, Vulnerable: len(rs) > 0}, nil
}

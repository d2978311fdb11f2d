package rulecheck

import "github.com/dessertlab/patchitpy/internal/diag"

// Bridge into the unified diagnostics model: vetting issues become
// canonical diag.Findings so the existing text/JSONL/SARIF emitters
// render vet output with zero new emitter code. The mapping treats the
// sorted catalog as the "source file": Line is the rule's 1-based
// position in it (0 for catalog-level issues), RuleID is the check slug,
// and the offending rule's ID leads the message.

// ToolName is the analyzer name vetting findings carry.
const ToolName = "rulecheck"

// Findings converts the report's issues to canonical diag findings, in
// canonical order.
func (r *Report) Findings() []diag.Finding {
	out := make([]diag.Finding, 0, len(r.Issues))
	for _, is := range r.Issues {
		out = append(out, diag.Finding{
			Tool:     ToolName,
			RuleID:   is.Check,
			Severity: is.Severity.String(),
			Line:     is.RuleIndex,
			Message:  is.Message,
		})
	}
	diag.Sort(out)
	return out
}

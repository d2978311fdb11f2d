// Package diag defines PatchitPy's unified diagnostics model: one
// canonical Finding shape that every analyzer — the native detection
// engine and each baseline reproduction — translates its internal results
// into, losslessly, via a thin adapter.
//
// The paper's evaluation is fundamentally a comparison across analyzers
// (PatchitPy vs CodeQL/Semgrep/Bandit vs three LLM assistants), and the
// related tooling literature (DeVAIC, the Schreiber & Tippe GitHub study)
// normalizes tool outputs into a common CWE/OWASP-keyed report before
// comparing. This package is that spine: the experiments harness iterates
// a Registry of Analyzers instead of hardcoding each tool, the CLI renders
// any analyzer's findings through shared emitters (text, JSONL, SARIF),
// and the serve protocol answers per-analyzer queries — all without N×
// per-tool duplication.
//
// diag deliberately imports nothing beyond the standard library so every
// engine package can depend on it without cycles.
package diag

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Finding is one diagnostic normalized across analyzers. Adapters fill
// only the fields their tool natively produces; absent metadata stays
// zero rather than being invented, so the translation is lossless in both
// directions.
type Finding struct {
	// Tool is the producing analyzer's name ("PatchitPy", "Bandit", ...).
	Tool string `json:"tool"`
	// RuleID is the tool-native rule identifier ("PIP-INJ-003", "B602",
	// "py/sql-injection", a Semgrep registry path, ...).
	RuleID string `json:"ruleId"`
	// CWE is the mapped weakness ("CWE-089"), empty when the tool does not
	// assign one (Bandit, Semgrep registry rules).
	CWE string `json:"cwe,omitempty"`
	// OWASP is the OWASP Top 10:2021 category label, when mapped.
	OWASP string `json:"owasp,omitempty"`
	// Severity is the tool's native severity label (LOW/MEDIUM/HIGH,
	// INFO/WARNING/ERROR, ...), preserved verbatim.
	Severity string `json:"severity,omitempty"`
	// Line is the 1-based source line of the finding (0 = unknown).
	Line int `json:"line"`
	// Start and End are byte offsets of the matched span for analyzers
	// that track spans (the native engine); both 0 when unknown.
	Start int `json:"start,omitempty"`
	End   int `json:"end,omitempty"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Snippet is the matched source text, when the tool captures it.
	Snippet string `json:"snippet,omitempty"`
	// FixPreview is the optional remediation preview: the native engine's
	// fix note, or a baseline's suggestion comment. Empty means the tool
	// offers nothing beyond detection for this finding.
	FixPreview string `json:"fixPreview,omitempty"`
	// Suppressed marks a finding demoted by a precision pass (the taint
	// filter): it is reported as a diagnostic rather than dropped, and
	// excluded from the binary Vulnerable judgement.
	Suppressed bool `json:"suppressed,omitempty"`
	// SuppressReason is the machine-readable suppression attribute, e.g.
	// "taint:clean". Empty when Suppressed is false.
	SuppressReason string `json:"suppressReason,omitempty"`
	// Flow is the source-to-sink step trace for flow-aware analyzers
	// (taintflow); rendered into SARIF codeFlows. Nil for pattern tools.
	Flow []FlowStep `json:"flow,omitempty"`
}

// FlowStep is one hop of a dataflow trace: a source line and what
// happened to the tracked value there.
type FlowStep struct {
	Line int    `json:"line"`
	Note string `json:"note"`
}

// Less is the canonical finding order: (line, rule ID, tool), with byte
// offset and message as final tie-breakers so the order is total and
// deterministic for any input.
func Less(a, b Finding) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	if a.RuleID != b.RuleID {
		return a.RuleID < b.RuleID
	}
	if a.Tool != b.Tool {
		return a.Tool < b.Tool
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.Message < b.Message
}

// Sort orders findings canonically, in place.
func Sort(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool { return Less(fs[i], fs[j]) })
}

// IsSorted reports whether fs is already in canonical order.
func IsSorted(fs []Finding) bool {
	return sort.SliceIsSorted(fs, func(i, j int) bool { return Less(fs[i], fs[j]) })
}

// Unsuppressed returns how many findings survive precision filtering —
// the count the binary Vulnerable judgement is taken over when a filter
// ran. With no filter active it equals len(fs).
func Unsuppressed(fs []Finding) int {
	n := 0
	for _, f := range fs {
		if !f.Suppressed {
			n++
		}
	}
	return n
}

// Result is one analyzer's verdict for one source.
type Result struct {
	// Tool is the producing analyzer's name.
	Tool string `json:"tool"`
	// Findings are the diagnostics in canonical order. Judgement-only
	// analyzers (the LLM simulators) may report Vulnerable with no
	// itemized findings.
	Findings []Finding `json:"findings,omitempty"`
	// Vulnerable is the binary per-sample judgement the paper's Table II
	// scores. For finding-producing tools it equals len(Findings) > 0.
	Vulnerable bool `json:"vulnerable"`
	// Patched is the rewritten source for analyzers that patch (the
	// native engine, the LLM simulators); empty for detection-only tools.
	Patched string `json:"patched,omitempty"`
}

// Analyzer is one diagnostics engine behind the unified model. Analyze
// must be safe for concurrent use and deterministic for a given source
// (and, for context-seeded analyzers, a given context).
type Analyzer interface {
	// Name is the stable display name, used as the registry key and as
	// the Table II/III row label.
	Name() string
	// Analyze scans src and returns the normalized result.
	Analyze(ctx context.Context, src string) (Result, error)
}

// Patcher is optionally implemented by analyzers whose Result carries a
// rewritten source (Result.Patched), i.e. the Table III rows.
type Patcher interface {
	Analyzer
	// CanPatch reports whether the analyzer produces patches.
	CanPatch() bool
}

// CanPatch reports whether a patches, via the optional Patcher interface.
func CanPatch(a Analyzer) bool {
	p, ok := a.(Patcher)
	return ok && p.CanPatch()
}

// Registry is an ordered, name-keyed set of analyzers. Registration order
// is presentation order (Table rows, SARIF runs, CLI output).
type Registry struct {
	names  []string
	byName map[string]Analyzer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]Analyzer{}}
}

// Register adds a to the registry. Names must be unique.
func (r *Registry) Register(a Analyzer) error {
	name := a.Name()
	if name == "" {
		return fmt.Errorf("diag: analyzer with empty name")
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("diag: analyzer %q already registered", name)
	}
	r.names = append(r.names, name)
	r.byName[name] = a
	return nil
}

// MustRegister is Register, panicking on error; for static setup code.
func (r *Registry) MustRegister(a Analyzer) {
	if err := r.Register(a); err != nil {
		panic(err)
	}
}

// Len returns the number of registered analyzers.
func (r *Registry) Len() int { return len(r.names) }

// Names returns the analyzer names in registration order (copy).
func (r *Registry) Names() []string {
	return append([]string(nil), r.names...)
}

// Analyzers returns the analyzers in registration order.
func (r *Registry) Analyzers() []Analyzer {
	out := make([]Analyzer, len(r.names))
	for i, name := range r.names {
		out[i] = r.byName[name]
	}
	return out
}

// Patchers returns, in registration order, the names of analyzers that
// can patch — the Table III row set.
func (r *Registry) Patchers() []string {
	var out []string
	for _, name := range r.names {
		if CanPatch(r.byName[name]) {
			out = append(out, name)
		}
	}
	return out
}

// Get returns the analyzer registered under exactly name.
func (r *Registry) Get(name string) (Analyzer, bool) {
	a, ok := r.byName[name]
	return a, ok
}

// Find returns the analyzer whose name matches case-insensitively —
// the lookup the CLI's -tools flag and the serve protocol use.
func (r *Registry) Find(name string) (Analyzer, bool) {
	if a, ok := r.byName[name]; ok {
		return a, true
	}
	for _, n := range r.names {
		if strings.EqualFold(n, name) {
			return r.byName[n], true
		}
	}
	return nil, false
}

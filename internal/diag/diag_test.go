package diag

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestSortCanonicalOrder(t *testing.T) {
	fs := []Finding{
		{Tool: "Semgrep", RuleID: "b", Line: 4},
		{Tool: "Bandit", RuleID: "b", Line: 4},
		{Tool: "PatchitPy", RuleID: "a", Line: 4},
		{Tool: "PatchitPy", RuleID: "z", Line: 1},
		{Tool: "PatchitPy", RuleID: "a", Line: 4, Start: 10},
	}
	Sort(fs)
	want := []Finding{
		{Tool: "PatchitPy", RuleID: "z", Line: 1},
		{Tool: "PatchitPy", RuleID: "a", Line: 4},
		{Tool: "PatchitPy", RuleID: "a", Line: 4, Start: 10},
		{Tool: "Bandit", RuleID: "b", Line: 4},
		{Tool: "Semgrep", RuleID: "b", Line: 4},
	}
	if !reflect.DeepEqual(fs, want) {
		t.Errorf("Sort order:\n got %+v\nwant %+v", fs, want)
	}
}

// stub is a minimal Analyzer for registry tests.
type stub struct {
	name    string
	patches bool
}

func (s stub) Name() string { return s.name }
func (s stub) Analyze(ctx context.Context, src string) (Result, error) {
	return Result{Tool: s.name}, nil
}
func (s stub) CanPatch() bool { return s.patches }

func TestRegistryOrderAndLookup(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(stub{name: "PatchitPy", patches: true})
	r.MustRegister(stub{name: "CodeQL"})
	r.MustRegister(stub{name: "Bandit"})

	if got, want := r.Names(), []string{"PatchitPy", "CodeQL", "Bandit"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Names = %v, want %v", got, want)
	}
	if r.Len() != 3 {
		t.Errorf("Len = %d", r.Len())
	}
	if got, want := r.Patchers(), []string{"PatchitPy"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Patchers = %v, want %v", got, want)
	}
	if _, ok := r.Get("codeql"); ok {
		t.Error("Get must be exact-match")
	}
	if a, ok := r.Find("codeql"); !ok || a.Name() != "CodeQL" {
		t.Errorf("Find(codeql) = %v, %v", a, ok)
	}
	if _, ok := r.Find("nope"); ok {
		t.Error("Find(nope) should miss")
	}
	if err := r.Register(stub{name: "Bandit"}); err == nil {
		t.Error("duplicate registration should error")
	}
	if err := r.Register(stub{name: ""}); err == nil {
		t.Error("empty name should error")
	}
	order := r.Analyzers()
	if len(order) != 3 || order[1].Name() != "CodeQL" {
		t.Errorf("Analyzers order wrong: %v", order)
	}
}

func TestCanPatch(t *testing.T) {
	if !CanPatch(stub{name: "a", patches: true}) {
		t.Error("patcher not recognized")
	}
	if CanPatch(stub{name: "a"}) {
		t.Error("CanPatch()=false analyzer reported as patcher")
	}
}

func TestWriteText(t *testing.T) {
	files := []FileFindings{
		{File: "clean.py"},
		{File: "app.py", Findings: []Finding{
			{Tool: "PatchitPy", RuleID: "PIP-INJ-001", CWE: "CWE-089", Severity: "CRITICAL",
				Line: 3, Message: "SQL built by concatenation", FixPreview: "parameterize"},
			{Tool: "Bandit", RuleID: "B201", Severity: "HIGH", Line: 9, Message: "flask debug"},
		}},
	}
	var buf bytes.Buffer
	if err := WriteText(&buf, files); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"clean.py: no findings",
		"app.py:3: [PatchitPy] PIP-INJ-001 CWE-089 CRITICAL — SQL built by concatenation [fix available]",
		"app.py:9: [Bandit] B201 HIGH — flask debug",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONL(t *testing.T) {
	files := []FileFindings{
		{File: "clean.py"},
		{File: "app.py", Findings: []Finding{
			{Tool: "PatchitPy", RuleID: "R1", CWE: "CWE-089", Line: 3, Message: "m1"},
			{Tool: "Bandit", RuleID: "B1", Line: 9, Message: "m2"},
		}},
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, files); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2 (clean files emit nothing):\n%s", len(lines), buf.String())
	}
	var rec struct {
		File   string `json:"file"`
		Tool   string `json:"tool"`
		RuleID string `json:"ruleId"`
		Line   int    `json:"line"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if rec.File != "app.py" || rec.Tool != "PatchitPy" || rec.RuleID != "R1" || rec.Line != 3 {
		t.Errorf("record = %+v", rec)
	}
}

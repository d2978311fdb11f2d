package querydb

import (
	"context"
	"testing"
)

// The adapter must round-trip native query hits losslessly: query ID, CWE
// and line all survive the translation.
func TestDiagFindingRoundTrip(t *testing.T) {
	r := Result{Query: "py/sql-injection", CWE: "CWE-89", Line: 12}
	d := DiagFinding(r)
	if d.Tool != ToolName {
		t.Errorf("Tool = %q", d.Tool)
	}
	if d.RuleID != r.Query || d.CWE != r.CWE || d.Line != r.Line {
		t.Errorf("lossy translation: %+v -> %+v", r, d)
	}
}

func TestAnalyzerMatchesScan(t *testing.T) {
	src := "import sqlite3\ndef f(uid):\n    cur.execute(\"SELECT * FROM t WHERE id = \" + uid)\n"
	e := New()
	want := e.Scan(src)
	if len(want) == 0 {
		t.Fatal("fixture did not trigger any query")
	}
	a := e.Analyzer()
	if a.Name() != "CodeQL" {
		t.Errorf("Name = %q", a.Name())
	}
	res, err := a.Analyze(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Vulnerable || len(res.Findings) != len(want) {
		t.Fatalf("Analyze = %+v, want %d findings", res, len(want))
	}
	seen := make(map[string]bool)
	for _, f := range res.Findings {
		seen[f.RuleID] = true
		if f.CWE == "" {
			t.Errorf("finding %+v lost its CWE", f)
		}
	}
	for _, r := range want {
		if !seen[r.Query] {
			t.Errorf("query %q missing from adapter output", r.Query)
		}
	}
}

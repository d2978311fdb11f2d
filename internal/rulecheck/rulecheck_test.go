package rulecheck

import (
	"reflect"
	"testing"
	"time"

	"github.com/dessertlab/patchitpy/internal/diag"
	"github.com/dessertlab/patchitpy/internal/rules"
)

// TestShippedCatalogClean is the gate the vet subcommand enforces in CI:
// the catalog we ship must carry zero error-severity issues.
func TestShippedCatalogClean(t *testing.T) {
	rep := Check(rules.NewCatalog())
	if rep.RuleCount != 85 {
		t.Fatalf("vetted %d rules, want 85", rep.RuleCount)
	}
	for _, is := range rep.Issues {
		if is.Severity == SeverityError {
			t.Errorf("shipped catalog has error-severity issue: %s %s", is.Check, is.Message)
		}
	}
}

// TestShippedCatalogKnownAdvisories pins the advisory findings we know
// about and accept, so a regression that silences the checks (or a
// catalog change that adds new advisories) is visible in review.
func TestShippedCatalogKnownAdvisories(t *testing.T) {
	rep := Check(rules.NewCatalog())
	got := map[string][]string{}
	for _, is := range rep.Issues {
		got[is.Check] = append(got[is.Check], is.RuleID)
	}
	want := map[string][]string{
		// Deliberate severity tiering over the same verify=False pattern.
		"duplicate-pattern": {"PIP-CRY-016"},
		// exec(resp.content) matches both the integrity and eval-injection rules.
		"overlap": {"PIP-INT-008"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("advisory issues changed:\n got: %v\nwant: %v", got, want)
	}
}

// TestDeterministic asserts two runs over the same catalog produce
// byte-identical reports — the property the SARIF golden rests on.
func TestDeterministic(t *testing.T) {
	c := rules.NewCatalog()
	a, b := Check(c), Check(c)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two vet runs over the same catalog differ:\n%v\nvs\n%v", a.Issues, b.Issues)
	}
}

// TestVetBudget keeps the full vet run inside the interactive budget the
// CLI promises (<2s), probe included.
func TestVetBudget(t *testing.T) {
	start := time.Now()
	Check(rules.NewCatalog())
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("vet run took %v, want < 2s", elapsed)
	}
}

func TestReportCounts(t *testing.T) {
	rep := &Report{Issues: []Issue{
		{Severity: SeverityError}, {Severity: SeverityError},
		{Severity: SeverityWarning},
		{Severity: SeverityInfo}, {Severity: SeverityInfo}, {Severity: SeverityInfo},
	}}
	if rep.Errors() != 2 || rep.Warnings() != 1 || rep.Infos() != 3 {
		t.Errorf("counts = %d/%d/%d, want 2/1/3", rep.Errors(), rep.Warnings(), rep.Infos())
	}
	if !rep.HasErrors() {
		t.Error("HasErrors = false with 2 errors")
	}
}

func TestSeverityString(t *testing.T) {
	for sev, want := range map[Severity]string{
		SeverityError: "ERROR", SeverityWarning: "WARNING", SeverityInfo: "INFO", Severity(9): "Severity(9)",
	} {
		if got := sev.String(); got != want {
			t.Errorf("Severity(%d).String() = %q, want %q", int(sev), got, want)
		}
	}
}

func TestFindingsMapping(t *testing.T) {
	rep := Check(rules.NewCatalog())
	fs := rep.Findings()
	if len(fs) != len(rep.Issues) {
		t.Fatalf("Findings() len = %d, want %d", len(fs), len(rep.Issues))
	}
	if !diag.IsSorted(fs) {
		t.Error("Findings() not in canonical diag order")
	}
	for _, f := range fs {
		if f.Tool != ToolName {
			t.Fatalf("finding tool = %q, want %q", f.Tool, ToolName)
		}
		if f.RuleID == "" || f.Message == "" {
			t.Fatalf("finding missing check slug or message: %+v", f)
		}
	}
}

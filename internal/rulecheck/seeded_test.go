package rulecheck

import (
	"regexp"
	"strings"
	"testing"

	"github.com/dessertlab/patchitpy/internal/detect"
	"github.com/dessertlab/patchitpy/internal/rules"
)

// Seeded-defect tests: each required check class is demonstrated by
// planting a deliberately broken rule in a custom catalog and asserting
// the corresponding check fires. This is the evidence the checks are
// live — the shipped catalog passing proves nothing if a check can never
// trigger.

// seedRule builds a syntactically healthy rule the metadata checks
// accept; tests then break one aspect at a time.
func seedRule(id, pattern string) *rules.Rule {
	return &rules.Rule{
		ID:          id,
		CWE:         "CWE-089",
		Category:    rules.Injection,
		Title:       "seeded test rule",
		Description: "deliberately planted by a vetting test",
		Severity:    rules.SeverityHigh,
		Pattern:     regexp.MustCompile(pattern),
	}
}

func issuesFor(t *testing.T, check string, rs ...*rules.Rule) []Issue {
	t.Helper()
	rep := Check(rules.NewCustom(rs))
	var out []Issue
	for _, is := range rep.Issues {
		if is.Check == check {
			out = append(out, is)
		}
	}
	return out
}

func TestSeededRedos(t *testing.T) {
	// The canonical catastrophic-backtracking shape.
	got := issuesFor(t, "redos-nested", seedRule("PIP-TST-001", `(?:a+)+b`))
	if len(got) == 0 {
		t.Fatal("redos-nested did not fire on (?:a+)+b")
	}
	if got[0].Severity != SeverityError {
		t.Errorf("redos-nested severity = %v, want ERROR", got[0].Severity)
	}

	// The guarded shape the catalog legitimately uses (PIP-CFG-005):
	// inner star fenced by required parens on both sides must NOT fire.
	if got := issuesFor(t, "redos-nested", seedRule("PIP-TST-002", `f\(((?:[^()\n]|\([^()\n]*\))*)\)`)); len(got) != 0 {
		t.Errorf("redos-nested false positive on guarded nesting: %v", got)
	}
}

func TestSeededPrefilterEmpty(t *testing.T) {
	// Char classes and a single-byte literal leave nothing to extract.
	r := seedRule("PIP-TST-001", `[a-z]+\d*=`)
	got := issuesFor(t, "prefilter-empty", r)
	if len(got) != 1 {
		t.Fatalf("prefilter-empty fired %d times on a literal-free pattern, want 1", len(got))
	}
	if got[0].Severity != SeverityWarning {
		t.Errorf("prefilter-empty severity = %v, want WARNING", got[0].Severity)
	}

	// A case-folded literal is prefilterable, and the automaton admits
	// the rule on its own witness.
	folded := seedRule("PIP-TST-002", `(?i)supersecret`)
	if !detect.PrefilterLiterals(folded).Prefilterable() {
		t.Error("(?i)supersecret is not prefilterable")
	}
	for _, check := range []string{"prefilter-empty", "prefilter-unsound", "witness-failure"} {
		if got := issuesFor(t, check, folded); len(got) != 0 {
			t.Errorf("%s fired on (?i)supersecret: %v", check, got)
		}
	}
}

func TestSeededBadCWE(t *testing.T) {
	mal := seedRule("PIP-TST-001", `eval\(`)
	mal.CWE = "CWE-89" // not zero-padded
	if got := issuesFor(t, "cwe-format", mal); len(got) != 1 {
		t.Fatalf("cwe-format fired %d times on %q, want 1", len(got), mal.CWE)
	}

	unknown := seedRule("PIP-TST-002", `eval\(`)
	unknown.CWE = "CWE-999"
	if got := issuesFor(t, "cwe-unknown", unknown); len(got) != 1 {
		t.Fatal("cwe-unknown did not fire on a CWE outside the vetted table")
	}

	misfiled := seedRule("PIP-TST-003", `eval\(`)
	misfiled.CWE = "CWE-611"
	misfiled.Category = rules.IntegrityFailures // the pre-fix shipped defect
	if got := issuesFor(t, "cwe-owasp-mismatch", misfiled); len(got) != 1 {
		t.Fatal("cwe-owasp-mismatch did not fire on XXE filed under A08")
	}
}

func TestSeededDuplicates(t *testing.T) {
	a := seedRule("PIP-TST-001", `os\.system\(`)
	b := seedRule("PIP-TST-002", `os\.system\(`)
	if got := issuesFor(t, "duplicate-rule", a, b); len(got) != 1 {
		t.Fatal("duplicate-rule did not fire on identical pattern+gates")
	}

	// Same pattern but distinct gates is tiering, not duplication.
	c := seedRule("PIP-TST-003", `os\.system\(`)
	c.Requires = regexp.MustCompile(`import os`)
	if got := issuesFor(t, "duplicate-rule", a, c); len(got) != 0 {
		t.Errorf("duplicate-rule false positive on gate-distinguished rules: %v", got)
	}
	if got := issuesFor(t, "duplicate-pattern", a, c); len(got) != 1 {
		t.Error("duplicate-pattern did not fire on gate-distinguished same-pattern rules")
	}

	dupA := seedRule("PIP-TST-004", `exec\(`)
	dupB := seedRule("PIP-TST-004", `evil\(`)
	if got := issuesFor(t, "duplicate-id", dupA, dupB); len(got) != 1 {
		t.Fatal("duplicate-id did not fire on a reused rule ID")
	}
}

func TestSeededShadowedAlternation(t *testing.T) {
	if got := issuesFor(t, "alt-shadowed", seedRule("PIP-TST-001", `md5|md5_hex`)); len(got) != 1 {
		t.Fatal("alt-shadowed did not fire on a tail alternation with a prefix branch")
	}
	// A trailing \b can fail after the short branch and rescue the long
	// one, so the same alternation with a suffix must not be reported.
	if got := issuesFor(t, "alt-shadowed", seedRule("PIP-TST-002", `(?:md5|md5_hex)\b`)); len(got) != 0 {
		t.Errorf("alt-shadowed false positive on suffixed alternation: %v", got)
	}
}

func TestSeededNonConvergentTemplate(t *testing.T) {
	r := seedRule("PIP-TST-001", `unsafe_load\(`)
	r.Fix = &rules.Fix{Replace: `unsafe_load(`, Note: "does not actually fix anything"}
	got := issuesFor(t, "template-nonconvergent", r)
	if len(got) != 1 {
		t.Fatal("template-nonconvergent did not fire on a fix that preserves the match")
	}
	if got[0].Severity != SeverityError {
		t.Errorf("template-nonconvergent severity = %v, want ERROR", got[0].Severity)
	}
}

func TestSeededTemplateIntroduces(t *testing.T) {
	a := seedRule("PIP-TST-001", `loads_v1\(`)
	a.Fix = &rules.Fix{Replace: `loads_v2(`, Note: "swaps one vulnerable call for another"}
	b := seedRule("PIP-TST-002", `loads_v2\(`)
	if got := issuesFor(t, "template-introduces", a, b); len(got) != 1 {
		t.Fatal("template-introduces did not fire on a fix that triggers another rule")
	}
}

func TestSeededTemplateBadGroup(t *testing.T) {
	r := seedRule("PIP-TST-001", `hash\((\w+)\)`)
	r.Fix = &rules.Fix{Replace: `secure_hash(${2})`, Note: "references a group the pattern lacks"}
	if got := issuesFor(t, "template-bad-group", r); len(got) != 1 {
		t.Fatal("template-bad-group did not fire on $2 with one capture group")
	}
}

func TestSeededSeverityAndCategoryRange(t *testing.T) {
	r := seedRule("PIP-TST-001", `eval\(`)
	r.Severity = rules.Severity(9)
	if got := issuesFor(t, "severity-range", r); len(got) != 1 {
		t.Fatal("severity-range did not fire")
	}

	c := seedRule("PIP-TST-002", `eval\(`)
	c.Category = rules.CategoryUnknown
	if got := issuesFor(t, "category-unknown", c); len(got) != 1 {
		t.Fatal("category-unknown did not fire")
	}
}

func TestSeededIssueMessageCarriesRuleID(t *testing.T) {
	r := seedRule("PIP-TST-007", `(?:x+)+y`)
	got := issuesFor(t, "redos-nested", r)
	if len(got) == 0 || !strings.HasPrefix(got[0].Message, "PIP-TST-007: ") {
		t.Fatalf("issue message does not lead with the rule ID: %+v", got)
	}
	if len(got) > 0 && got[0].RuleIndex != 1 {
		t.Errorf("RuleIndex = %d, want 1", got[0].RuleIndex)
	}
}

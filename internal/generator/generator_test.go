package generator

import (
	"math/rand"
	"regexp"
	"testing"

	"github.com/dessertlab/patchitpy/internal/detect"
	"github.com/dessertlab/patchitpy/internal/patch"
	"github.com/dessertlab/patchitpy/internal/prompts"
	"github.com/dessertlab/patchitpy/internal/pyast"
)

func render(t *testing.T, code string) string {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return substitute(code, "T-001", "test-model", rng)
}

func TestScenarioIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, sc := range ScenarioList() {
		if seen[sc.ID] {
			t.Errorf("duplicate scenario ID %q", sc.ID)
		}
		seen[sc.ID] = true
		if sc.Title == "" {
			t.Errorf("%s: missing title", sc.ID)
		}
	}
}

func TestEveryPromptScenarioExists(t *testing.T) {
	scenarios := Scenarios()
	for _, p := range prompts.All() {
		if scenarios[p.ScenarioID] == nil {
			t.Errorf("prompt %s references missing scenario %q", p.ID, p.ScenarioID)
		}
	}
}

func TestEveryScenarioHasPromptAndVariants(t *testing.T) {
	used := make(map[string]int)
	for _, p := range prompts.All() {
		used[p.ScenarioID]++
	}
	for _, sc := range ScenarioList() {
		if used[sc.ID] == 0 {
			t.Errorf("scenario %s has no prompts", sc.ID)
		}
		if len(sc.vulnerableTemplates()) == 0 {
			t.Errorf("scenario %s has no vulnerable variants", sc.ID)
		}
		if len(sc.Safe)+len(sc.SafeNoisy) == 0 {
			t.Errorf("scenario %s has no safe variants", sc.ID)
		}
		if len(sc.Markers) == 0 {
			t.Errorf("scenario %s has no oracle markers", sc.ID)
		}
	}
}

func TestMarkersCompile(t *testing.T) {
	for _, sc := range ScenarioList() {
		for _, m := range sc.Markers {
			if _, err := regexp.Compile(m); err != nil {
				t.Errorf("%s: marker %q: %v", sc.ID, m, err)
			}
		}
	}
}

// TestTemplatesParse ensures every rendered template is valid Python per
// our parser (no recovered errors) — the corpus must be realistic code.
func TestTemplatesParse(t *testing.T) {
	for _, sc := range ScenarioList() {
		for _, group := range [][]Template{sc.Fixable, sc.DetectOnly, sc.Evasive, sc.Safe, sc.SafeNoisy} {
			for _, tpl := range group {
				code := render(t, tpl.Code)
				mod, err := pyast.Parse(code)
				if err != nil {
					t.Errorf("%s: parse error: %v\n%s", sc.ID, err, code)
					continue
				}
				if len(mod.Errors) > 0 {
					t.Errorf("%s: recovered errors %v in:\n%s", sc.ID, mod.Errors, code)
				}
			}
		}
	}
}

// TestMarkerTruth: every vulnerable variant must match at least one marker
// and every safe variant must match none — the oracle's ground truth
// depends on this.
func TestMarkerTruth(t *testing.T) {
	for _, sc := range ScenarioList() {
		res := make([]*regexp.Regexp, len(sc.Markers))
		for i, m := range sc.Markers {
			res[i] = regexp.MustCompile(m)
		}
		matchAny := func(code string) bool {
			for _, re := range res {
				if re.MatchString(code) {
					return true
				}
			}
			return false
		}
		for _, ct := range sc.vulnerableTemplates() {
			code := render(t, ct.tpl.Code)
			if !matchAny(code) {
				t.Errorf("%s (%s): no marker matches vulnerable variant:\n%s", sc.ID, ct.class, code)
			}
			if len(ct.tpl.CWEs) == 0 {
				t.Errorf("%s (%s): vulnerable variant without CWEs", sc.ID, ct.class)
			}
		}
		for _, group := range [][]Template{sc.Safe, sc.SafeNoisy} {
			for _, tpl := range group {
				code := render(t, tpl.Code)
				if matchAny(code) {
					t.Errorf("%s: marker matches safe variant:\n%s", sc.ID, code)
				}
			}
		}
	}
}

// TestClassIntegrity validates every template's class against the real
// detector:
//
//	Fixable     -> detected, and patching clears every marker
//	DetectOnly  -> detected, and patching does NOT clear the markers
//	Evasive     -> not detected
//	Safe        -> not detected
//	SafeNoisy   -> detected (it is the false-positive source)
func TestClassIntegrity(t *testing.T) {
	d := detect.New(nil)
	for _, sc := range ScenarioList() {
		res := make([]*regexp.Regexp, len(sc.Markers))
		for i, m := range sc.Markers {
			res[i] = regexp.MustCompile(m)
		}
		matchAny := func(code string) bool {
			for _, re := range res {
				if re.MatchString(code) {
					return true
				}
			}
			return false
		}

		check := func(group []Template, class VariantClass) {
			for _, tpl := range group {
				code := render(t, tpl.Code)
				findings := d.Scan(code)
				detected := len(findings) > 0
				switch class {
				case ClassFixable:
					if !detected {
						t.Errorf("%s: fixable variant not detected:\n%s", sc.ID, code)
						continue
					}
					patched := patch.Apply(code, findings)
					if matchAny(patched.Source) {
						t.Errorf("%s: fixable variant still matches markers after patch:\n%s", sc.ID, patched.Source)
					}
				case ClassDetectOnly:
					if !detected {
						t.Errorf("%s: detect-only variant not detected:\n%s", sc.ID, code)
						continue
					}
					patched := patch.Apply(code, findings)
					if !matchAny(patched.Source) {
						t.Errorf("%s: detect-only variant was fully repaired by patching:\n%s", sc.ID, patched.Source)
					}
				case ClassEvasive:
					if detected {
						t.Errorf("%s: evasive variant detected by %s:\n%s", sc.ID, findings[0].Rule.ID, code)
					}
				case ClassSafe:
					if detected {
						t.Errorf("%s: safe variant detected by %s:\n%s", sc.ID, findings[0].Rule.ID, code)
					}
				case ClassSafeNoisy:
					if !detected {
						t.Errorf("%s: safe-noisy variant triggers nothing:\n%s", sc.ID, code)
					}
				}
			}
		}
		check(sc.Fixable, ClassFixable)
		check(sc.DetectOnly, ClassDetectOnly)
		check(sc.Evasive, ClassEvasive)
		check(sc.Safe, ClassSafe)
		check(sc.SafeNoisy, ClassSafeNoisy)
	}
}

func TestCorpusShape(t *testing.T) {
	ps := prompts.All()
	samples, err := Corpus(ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 609 {
		t.Fatalf("corpus = %d samples, want 609", len(samples))
	}
	byModel := make(map[string]int)
	vulnByModel := make(map[string]int)
	for _, s := range samples {
		byModel[s.Model]++
		if s.Truth.Vulnerable {
			vulnByModel[s.Model]++
		}
	}
	want := map[string]int{
		"GitHub Copilot":    169,
		"Claude-3.7-Sonnet": 126,
		"DeepSeek-V3":       166,
	}
	for model, count := range want {
		if byModel[model] != 203 {
			t.Errorf("%s: %d samples, want 203", model, byModel[model])
		}
		if vulnByModel[model] != count {
			t.Errorf("%s: %d vulnerable, paper reports %d", model, vulnByModel[model], count)
		}
	}
}

func TestCorpusDeterministic(t *testing.T) {
	ps := prompts.All()
	a, err := Corpus(ps)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Corpus(ps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Code != b[i].Code || a[i].Truth.Vulnerable != b[i].Truth.Vulnerable {
			t.Fatalf("sample %d differs between runs", i)
		}
	}
}

func TestDistinctCWEBreadth(t *testing.T) {
	samples, err := Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, s := range samples {
		for _, cwe := range s.Truth.CWEs {
			seen[cwe] = true
		}
	}
	// The paper reports 63 distinct CWEs across the generated vulnerable
	// code; our corpus must be in the same band.
	if len(seen) < 45 {
		t.Errorf("corpus spans only %d distinct CWEs; want a broad spread (paper: 63)", len(seen))
	}
}

func TestModelByName(t *testing.T) {
	if ModelByName("GitHub Copilot") == nil {
		t.Error("Copilot missing")
	}
	if ModelByName("nope") != nil {
		t.Error("unknown model should be nil")
	}
}

func TestVariantClassString(t *testing.T) {
	if ClassFixable.String() != "fixable" || ClassSafeNoisy.String() != "safe-noisy" {
		t.Error("class names wrong")
	}
	if !ClassEvasive.Vulnerable() || ClassSafe.Vulnerable() {
		t.Error("Vulnerable() misclassifies")
	}
}

func TestPlaceholdersFullySubstituted(t *testing.T) {
	samples, err := Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		for _, ph := range []string{"@FUNC@", "@VAR@", "@VAR2@", "@ROUTE@", "@TABLE@", "@FILE@"} {
			if contains(s.Code, ph) {
				t.Fatalf("%s/%s: unsubstituted placeholder %s", s.Model, s.PromptID, ph)
			}
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && indexOf(s, sub) >= 0
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func BenchmarkCorpusGeneration(b *testing.B) {
	ps := prompts.All()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Corpus(ps); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCorpusParses stresses the parser across all 609 corpus files: every
// sample must parse with no recovered errors.
func TestCorpusParses(t *testing.T) {
	samples, err := Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		m, err := pyast.Parse(s.Code)
		if err != nil || len(m.Errors) > 0 {
			t.Fatalf("%s/%s: corpus sample does not parse: %v %v", s.Model, s.PromptID, err, m.Errors)
		}
	}
}

// TestCorpusRuleCensus locks the corpus-level rule activation profile:
// a broad set of rules fires, the heavy hitters are present, and safe
// (non-noisy) samples never trigger anything.
func TestCorpusRuleCensus(t *testing.T) {
	samples, err := Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	d := detect.New(nil)
	fired := map[string]int{}
	for _, s := range samples {
		findings := d.Scan(s.Code)
		for _, f := range findings {
			fired[f.Rule.ID]++
		}
		if s.Truth.Class == ClassSafe && len(findings) > 0 {
			t.Errorf("%s/%s: safe sample triggered %s", s.Model, s.PromptID, findings[0].Rule.ID)
		}
		if s.Truth.Class == ClassSafeNoisy && len(findings) == 0 {
			t.Errorf("%s/%s: safe-noisy sample triggered nothing", s.Model, s.PromptID)
		}
	}
	if len(fired) < 30 {
		t.Errorf("only %d distinct rules fire on the corpus", len(fired))
	}
	for _, id := range []string{"PIP-INJ-009", "PIP-INJ-014", "PIP-CFG-001", "PIP-INT-001", "PIP-CRY-001", "PIP-AUT-001"} {
		if fired[id] == 0 {
			t.Errorf("high-traffic rule %s never fires on the corpus", id)
		}
	}
}

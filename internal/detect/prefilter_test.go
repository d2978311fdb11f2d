package detect

import (
	"reflect"
	"testing"

	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/prompts"
)

// lits builds a literal set of one kind, for table expectations.
func lits(fold bool, texts ...string) []Literal {
	out := make([]Literal, len(texts))
	for i, t := range texts {
		out[i] = Literal{Text: t, Fold: fold}
	}
	return out
}

func TestRequiredLiteralsShapes(t *testing.T) {
	cases := []struct {
		expr string
		want []Literal // nil = unfilterable
	}{
		{`(?m)\beval\(`, lits(false, "eval(")},
		{`(?m)os\.system\(\s*([^)\n]+)\)`, lits(false, "os.system(")},
		{`(?m)shell\s*=\s*True`, lits(false, "shell")},
		{`ast\.literal_eval|model\.eval\(|\.eval\(\)`, lits(false, "ast.literal_eval", "model.eval(", ".eval()")},
		{`request\.|input\(|sys\.argv|recv\(`, lits(false, "request.", "input(", "sys.argv", "recv(")},
		// Case folding yields folded literals in fold-normal form.
		{`(?i)token|password|secret`, lits(true, "token", "password", "secret")},
		{`(?i)os\.SYSTEM\(`, lits(true, "os.system(")},
		// A rune outside ASCII other than ſ and K refuses the literal.
		{`(?i)straße`, nil},
		{`(?i)€€`, nil},
		// Pure char classes / anchors have no mandatory literal.
		{`[a-z]+\d*`, nil},
		// An alternation with one unfilterable branch is unfilterable.
		{`pickle\.loads|[a-z]{3}`, nil},
		// Optional subtrees contribute nothing; the mandatory part wins.
		{`(?:unsafe_)?yaml\.load\(`, lits(false, "yaml.load(")},
		// x{2,} repeats guarantee at least one occurrence.
		{`(?:md5){2,}`, lits(false, "md5")},
		// Single-byte literals are dropped as useless.
		{`\w+=\d`, nil},
	}
	for _, tc := range cases {
		got := requiredLiterals(tc.expr)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("requiredLiterals(%q) = %+v, want %+v", tc.expr, got, tc.want)
		}
	}
}

// TestPrefilterFoldSound pins the case-insensitive rules on sources only
// a full Unicode fold admits: Go's (?i) matches ſ as s and the Kelvin
// sign as k, so a fold walk that lowered ASCII alone would skip these
// rules and lose their findings.
func TestPrefilterFoldSound(t *testing.T) {
	d := New(nil)
	cases := []struct{ src, rule string }{
		{"PA\u017f\u017fWORD = \"hunter22\"\n", "PIP-AUT-001"},
		{"api_\u212aey = \"abcdefgh\"\n", "PIP-AUT-002"},
		{"Password = \"hunter22\"\n", "PIP-AUT-001"},
		{"SECRET = \"abcdefgh\"\n", "PIP-AUT-003"},
		{"db.write(PassWord)\n", "PIP-AUT-008"},
	}
	for _, tc := range cases {
		fast := d.ScanWith(tc.src, Options{NoCache: true})
		slow := d.ScanWith(tc.src, Options{NoCache: true, NoPrefilter: true})
		if !reflect.DeepEqual(fast, slow) {
			t.Errorf("%q: prefiltered %v, unfiltered %v", tc.src, findIDs(fast), findIDs(slow))
		}
		fired := false
		for _, f := range slow {
			fired = fired || f.Rule.ID == tc.rule
		}
		if !fired {
			t.Errorf("%q: %s did not fire (findings %v)", tc.src, tc.rule, findIDs(slow))
		}
	}
}

// TestPrefilterSoundOnLiterals fuzz-checks the core soundness property on
// the built-in catalog: whenever the prefilter rejects (rule, src), the
// rule's regexes must not match src.
func TestPrefilterSoundOnCatalog(t *testing.T) {
	d := New(nil)
	srcs := []string{
		"",
		"print('hello')\n",
		"eval(x)\n",
		"import pickle\nobj = pickle.loads(data)\n",
		"import subprocess\nsubprocess.run(cmd, shell=True)\n",
		"import hashlib\nh = hashlib.md5(x)\n",
		"os.system('ls ' + d)\ncur.execute(\"SELECT \" + uid)\n",
	}
	for _, src := range srcs {
		for i, rule := range d.rules {
			if containsAdmits(d.filters[i], src) {
				continue
			}
			if rule.Requires != nil && !rule.Requires.MatchString(src) {
				continue // the gate would have rejected anyway
			}
			if rule.Pattern.MatchString(src) {
				t.Errorf("prefilter rejected %s on %q but the pattern matches", rule.ID, src)
			}
		}
	}
}

// TestPrefilterTransparent asserts the headline guarantee: scanning with
// and without the prefilter yields identical findings over the full
// 609-sample corpus.
func TestPrefilterTransparent(t *testing.T) {
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	d := New(nil)
	for _, s := range samples {
		fast := d.Scan(s.Code)
		slow := d.ScanWith(s.Code, Options{NoPrefilter: true})
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("sample %s/%s: prefiltered scan diverges:\nfast: %v\nslow: %v",
				s.PromptID, s.Model, findIDs(fast), findIDs(slow))
		}
	}
}

// TestPrefilterCoverage guards against regressions in literal extraction:
// the overwhelming majority of the 85 catalog rules must stay filterable,
// and scanning the corpus must keep a high skip rate.
func TestPrefilterCoverage(t *testing.T) {
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	d := New(nil)
	filterable := 0
	for _, f := range d.filters {
		if f.patternLits != nil {
			filterable++
		}
	}
	if filterable < 70 {
		t.Errorf("only %d/%d rules carry a pattern prefilter", filterable, len(d.filters))
	}
	for _, s := range samples {
		d.Scan(s.Code)
	}
	if rate := d.Stats().SkipRate(); rate < 0.5 {
		t.Errorf("prefilter skip rate %.2f over the corpus; expected >= 0.5", rate)
	}
}

func TestScanStatsAccounting(t *testing.T) {
	d := New(nil)
	d.Scan("x = 1\n")
	st := d.Stats()
	if st.RulesConsidered != uint64(len(d.rules)) {
		t.Errorf("considered = %d, want %d", st.RulesConsidered, len(d.rules))
	}
	if st.RulesSkipped == 0 || st.RulesSkipped > st.RulesConsidered {
		t.Errorf("skipped = %d out of %d considered", st.RulesSkipped, st.RulesConsidered)
	}
	if r := st.SkipRate(); r <= 0 || r > 1 {
		t.Errorf("skip rate = %f", r)
	}
	if (ScanStats{}).SkipRate() != 0 {
		t.Error("empty stats must report rate 0")
	}
}

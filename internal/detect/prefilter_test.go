package detect

import (
	"reflect"
	"testing"

	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/prompts"
)

func TestRequiredLiteralsShapes(t *testing.T) {
	cases := []struct {
		expr string
		want []string // nil = unfilterable
	}{
		{`(?m)\beval\(`, []string{"eval("}},
		{`(?m)os\.system\(\s*([^)\n]+)\)`, []string{"os.system("}},
		{`(?m)shell\s*=\s*True`, []string{"shell"}},
		{`ast\.literal_eval|model\.eval\(|\.eval\(\)`, []string{"ast.literal_eval", "model.eval(", ".eval()"}},
		{`request\.|input\(|sys\.argv|recv\(`, []string{"request.", "input(", "sys.argv", "recv("}},
		// Case folding cannot be probed with a plain Contains.
		{`(?i)token|password|secret`, nil},
		// Pure char classes / anchors have no mandatory literal.
		{`[a-z]+\d*`, nil},
		// An alternation with one unfilterable branch is unfilterable.
		{`pickle\.loads|[a-z]{3}`, nil},
		// Optional subtrees contribute nothing; the mandatory part wins.
		{`(?:unsafe_)?yaml\.load\(`, []string{"yaml.load("}},
		// x{2,} repeats guarantee at least one occurrence.
		{`(?:md5){2,}`, []string{"md5"}},
		// Single-byte literals are dropped as useless.
		{`\w+=\d`, nil},
	}
	for _, tc := range cases {
		got := requiredLiterals(tc.expr)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("requiredLiterals(%q) = %q, want %q", tc.expr, got, tc.want)
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

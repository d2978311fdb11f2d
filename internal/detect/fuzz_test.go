package detect

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/dessertlab/patchitpy/internal/rules"
)

// FuzzScanPrepared drives the full scan path — comment masking, the
// literal automaton, rule regexes and gates — with arbitrary source and
// checks the engine's structural invariants: no panics, findings sorted
// with in-bounds spans, and exact agreement between the automaton
// prefilter and the unfiltered scan (the soundness property the
// prefilter's admission logic promises).
func FuzzScanPrepared(f *testing.F) {
	seeds := []string{
		"",
		"import os\nos.system('ls ' + name)\n",
		"eval(input())\n",
		"# eval(input()) only in a comment\n",
		"s = \"eval(\" \nx = 1\n",
		"import pickle\npickle.loads(data)\n",
		"requests.get(url, verify=False)\n",
		"'''eval(\ninside a docstring\n'''\n",
		"\x00\x80\xff eval(",
		// Case-insensitive rules: ſ folds with s and the Kelvin sign
		// with k, so only a full fold walk admits the first two.
		"PA\u017f\u017fWORD = \"hunter22\"\n",
		"api_\u212aey = \"abcdefgh\"\n",
		"Password = \"hunter22\"\nSECRET = 'abcdefgh'\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	if vuln, err := os.ReadFile(filepath.Join("..", "..", "cmd", "patchitpy", "testdata", "vuln.py")); err == nil {
		f.Add(string(vuln))
	}

	d := New(rules.NewCatalog())
	f.Fuzz(func(t *testing.T, src string) {
		opts := Options{NoCache: true}
		filtered := d.ScanWith(src, opts)

		last := Finding{Start: -1}
		for _, fd := range filtered {
			if fd.Start < 0 || fd.End > len(src) || fd.Start > fd.End {
				t.Fatalf("finding %s span [%d,%d) out of bounds (len=%d)", fd.Rule.ID, fd.Start, fd.End, len(src))
			}
			if fd.Snippet != src[fd.Start:fd.End] {
				t.Fatalf("finding %s snippet does not equal its span", fd.Rule.ID)
			}
			if fd.Line < 1 {
				t.Fatalf("finding %s line %d < 1", fd.Rule.ID, fd.Line)
			}
			if fd.Start < last.Start {
				t.Fatalf("findings not sorted by start: %d after %d", fd.Start, last.Start)
			}
			last = fd
		}

		// Prefilter soundness and precision: the automaton-filtered scan
		// must agree finding-for-finding with the brute-force scan.
		unfiltered := d.ScanWith(src, Options{NoCache: true, NoPrefilter: true})
		if len(filtered) != len(unfiltered) {
			t.Fatalf("prefilter changed finding count: %d vs %d", len(filtered), len(unfiltered))
		}
		for i := range filtered {
			a, b := filtered[i], unfiltered[i]
			if a.Rule.ID != b.Rule.ID || a.Start != b.Start || a.End != b.End {
				t.Fatalf("prefilter changed finding %d: %s[%d,%d) vs %s[%d,%d)",
					i, a.Rule.ID, a.Start, a.End, b.Rule.ID, b.Start, b.End)
			}
		}
	})
}

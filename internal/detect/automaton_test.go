package detect

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"

	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/prompts"
)

func TestAutomatonFindsLiterals(t *testing.T) {
	lits := []string{"eval(", "pickle.loads", "md5", "shell", "he"}
	a := buildAutomaton(lits, []int32{0, 1, 2, 3, 4}, false)
	cases := []struct {
		src  string
		want []bool
	}{
		{"", []bool{false, false, false, false, false}},
		{"x = eval(y)", []bool{true, false, false, false, false}},
		// Overlapping matches: "shell" contains "he" as a proper infix the
		// failure links must surface.
		{"shell=True", []bool{false, false, false, true, true}},
		{"import pickle; pickle.loads(d); hashlib.md5(x)", []bool{false, true, true, false, false}},
		{"evam( pickle.load md", []bool{false, false, false, false, false}},
	}
	for _, tc := range cases {
		seen := make([]bool, len(lits))
		a.scan(tc.src, seen)
		if !reflect.DeepEqual(seen, tc.want) {
			t.Errorf("scan(%q) = %v, want %v", tc.src, seen, tc.want)
		}
	}
}

func TestFoldWalkFindsLiterals(t *testing.T) {
	lits := []string{"password", "api_key", "sk"}
	a := buildAutomaton(lits, []int32{0, 1, 2}, true)
	cases := []struct {
		src  string
		want []bool
	}{
		{"PassWord = 1", []bool{true, false, false}},
		{"PAſſWORD", []bool{true, false, false}},
		{"api_\u212aEY", []bool{false, true, false}},
		{"\u017f\u212a", []bool{false, false, true}},
		// A cut sequence is not ſ or K, and neither is any other
		// non-ASCII letter.
		{"pa\xc5ssword \xe2\x84k", []bool{false, false, false}},
		{"pa\u00dfword ap\u0130_key", []bool{false, false, false}},
	}
	for _, tc := range cases {
		seen := make([]bool, len(lits))
		a.scanFolded(tc.src, seen)
		if !reflect.DeepEqual(seen, tc.want) {
			t.Errorf("scanFolded(%q) = %v, want %v", tc.src, seen, tc.want)
		}
	}
}

// TestFoldWalkCoversASCIIOrbits checks the fold walk's premise against
// the Unicode tables: ſ and K are the only runes outside ASCII whose
// simple-fold orbit reaches an ASCII letter, and foldByte reads every
// member of an ASCII letter's orbit as the same byte.
func TestFoldWalkCoversASCIIOrbits(t *testing.T) {
	for r := rune('A'); r <= 'z'; r++ {
		want, _ := foldByte(r)
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if f >= utf8.RuneSelf && f != longS && f != kelvin {
				t.Errorf("%q folds with %U, which the fold walk does not map", r, f)
			}
			if got, ok := foldByte(f); !ok || got != want {
				t.Errorf("fold walk reads %U as %q, want %q", f, got, want)
			}
		}
	}
	if string(longS) != "\xc5\xbf" || string(kelvin) != "\xe2\x84\xaa" {
		t.Error("scanFolded's byte sequences no longer encode ſ and K")
	}
}

// foldNormal is the brute-force reference for the fold walk: src with
// ſ and K replaced by s and k, then ASCII upper case lowered.
func foldNormal(src string) string {
	b := []byte(strings.NewReplacer("\u017f", "s", "\u212a", "k").Replace(src))
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c - 'A' + 'a'
		}
	}
	return string(b)
}

// containsAdmits is the brute-force reference for one rule's prefilter
// decision: one strings.Contains probe per literal, over the fold-normal
// source for folded literals. false is a proof of non-match; true means
// the regexes must be consulted.
func containsAdmits(f ruleFilter, src string) bool {
	folded := foldNormal(src)
	anyIn := func(lits []Literal) bool {
		if lits == nil {
			return true
		}
		for _, lit := range lits {
			hay := src
			if lit.Fold {
				hay = folded
			}
			if strings.Contains(hay, lit.Text) {
				return true
			}
		}
		return false
	}
	return anyIn(f.patternLits) && anyIn(f.requiresLits)
}

// containsCandidates computes the candidate bitset the per-rule Contains
// probes imply.
func containsCandidates(d *Detector, src string) bitset {
	bits := newBitset(len(d.rules))
	for i := range d.rules {
		if containsAdmits(d.filters[i], src) {
			bits.set(i)
		}
	}
	return bits
}

// TestAutomatonMatchesContainsOnCorpus asserts the automaton derives
// exactly the candidate set the per-rule Contains probes derive, over
// every corpus sample.
func TestAutomatonMatchesContainsOnCorpus(t *testing.T) {
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	d := New(nil)
	for _, s := range samples {
		got := d.Prepare(s.Code).candidates()
		want := containsCandidates(d, s.Code)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sample %s/%s: automaton candidates diverge from Contains probes",
				s.PromptID, s.Model)
		}
	}
}

// TestAutomatonSupersetRandomized is the seeded, corpus-driven soundness
// cross-check: take corpus samples, apply random byte mutations (which the
// automaton has never seen and which can split or join literals), and
// assert the admitted candidate set is a superset of the rules whose
// regexes actually match — a rejected rule must be a proven non-match.
func TestAutomatonSupersetRandomized(t *testing.T) {
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	d := New(nil)
	rng := rand.New(rand.NewSource(20250806))
	mutate := func(src string) string {
		if len(src) == 0 {
			return src
		}
		b := []byte(src)
		for k := 0; k < 1+rng.Intn(4); k++ {
			pos := rng.Intn(len(b))
			switch rng.Intn(5) {
			case 0: // flip a byte
				b[pos] = byte(' ' + rng.Intn(95))
			case 1: // delete a byte
				b = append(b[:pos], b[pos+1:]...)
			case 2: // duplicate a byte
				b = append(b[:pos+1], b[pos:]...)
			case 3: // flip the case of letters in a word
				for ; pos < len(b) && ('a' <= b[pos]|0x20 && b[pos]|0x20 <= 'z'); pos++ {
					if rng.Intn(2) == 0 {
						b[pos] ^= 0x20
					}
				}
			default: // spell the next s or k as ſ or K
				for ; pos < len(b); pos++ {
					var sub string
					switch b[pos] {
					case 's', 'S':
						sub = "\u017f"
					case 'k', 'K':
						sub = "\u212a"
					default:
						continue
					}
					b = append(b[:pos], append([]byte(sub), b[pos+1:]...)...)
					break
				}
			}
			if len(b) == 0 {
				return ""
			}
		}
		return string(b)
	}
	checked := 0
	for trial := 0; trial < 300; trial++ {
		src := mutate(samples[rng.Intn(len(samples))].Code)
		cand := d.Prepare(src).candidates()
		for i, rule := range d.rules {
			if cand.has(i) {
				continue // admitted: the regexes decide, nothing to prove
			}
			// Rejected: pattern-and-requires must not both hold.
			if rule.Pattern.MatchString(src) &&
				(rule.Requires == nil || rule.Requires.MatchString(src)) {
				t.Fatalf("trial %d: automaton rejected %s but its regexes match:\n%q",
					trial, rule.ID, src)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("randomized cross-check never exercised a rejection")
	}
}

// TestAutomatonPrefilterTransparent asserts the headline guarantee: the
// automaton-prefiltered scan and the unfiltered brute-force scan produce
// byte-identical findings over the full corpus.
func TestAutomatonPrefilterTransparent(t *testing.T) {
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	d := New(nil)
	for _, s := range samples {
		auto := d.ScanWith(s.Code, Options{NoCache: true})
		none := d.ScanWith(s.Code, Options{NoPrefilter: true, NoCache: true})
		if !reflect.DeepEqual(auto, none) {
			t.Fatalf("sample %s/%s: automaton vs unfiltered diverge:\n%v\n%v",
				s.PromptID, s.Model, findIDs(auto), findIDs(none))
		}
	}
}

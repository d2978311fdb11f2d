package detect_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/dessertlab/patchitpy/internal/detect"
	"github.com/dessertlab/patchitpy/internal/editor"
	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/prompts"
)

// The incremental-scanning gate: RescanEdited must be byte-identical to a
// from-scratch scan of the edited source, over randomized edit sequences
// on the full 609-sample corpus and over hand-picked tokenizer edge
// cases. Any divergence is a soundness bug in the replay logic, not a
// tolerable approximation.

var uncached = detect.Options{NoCache: true}

func findingsDiff(got, want []detect.Finding) string {
	if len(got) != len(want) {
		return fmt.Sprintf("finding count: got %d want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Rule != w.Rule || g.Start != w.Start || g.End != w.End || g.Line != w.Line || g.Snippet != w.Snippet {
			return fmt.Sprintf("finding %d: got {%s %d-%d L%d %q} want {%s %d-%d L%d %q}",
				i, g.Rule.ID, g.Start, g.End, g.Line, g.Snippet, w.Rule.ID, w.Start, w.End, w.Line, w.Snippet)
		}
		if len(g.Groups) != len(w.Groups) {
			return fmt.Sprintf("finding %d groups: got %v want %v", i, g.Groups, w.Groups)
		}
		for k := range g.Groups {
			if g.Groups[k] != w.Groups[k] {
				return fmt.Sprintf("finding %d groups: got %v want %v", i, g.Groups, w.Groups)
			}
		}
	}
	return ""
}

// editVocabulary is chosen to be adversarial for the tokenizer-splice
// path: comment starters, triple-quote openers/closers, brackets,
// continuations, CRLF and lone CR, indentation, and rule-triggering code.
var editVocabulary = []string{
	"#", "# note\n", "\"\"\"", "'''", "'", "\"",
	"(", ")", "[", "]", "\n", "\n\n", "    ", "\t",
	"\\\n", "\r\n", "\r",
	"yaml.load(x)", "pickle.loads(data)", "eval(user_input)",
	"x = 1\n", "import os\n", "os.system(cmd)",
	"def f():\n    pass\n", "  ",
}

func randomEdit(rng *rand.Rand, src string) editor.TextEdit {
	var start, end int
	var repl string
	op := rng.Intn(4)
	if len(src) == 0 {
		op = 0
	}
	switch op {
	case 0: // insert
		start = rng.Intn(len(src) + 1)
		end = start
		repl = editVocabulary[rng.Intn(len(editVocabulary))]
	case 1: // small delete (possibly multi-line)
		start = rng.Intn(len(src))
		end = start + 1 + rng.Intn(60)
	case 2: // large delete, likely spanning several lines
		start = rng.Intn(len(src))
		end = start + 1 + rng.Intn(400)
	default: // replace
		start = rng.Intn(len(src))
		end = start + 1 + rng.Intn(80)
		repl = editVocabulary[rng.Intn(len(editVocabulary))]
	}
	if end > len(src) {
		end = len(src)
	}
	return editor.SpanEdit(src, start, end, repl)
}

func corpusSources(t testing.TB) []string {
	t.Helper()
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	out := make([]string, len(samples))
	for i, s := range samples {
		out[i] = s.Code
	}
	return out
}

// TestIncrementalEquivalenceCorpus drives randomized edit sequences over
// every corpus sample and checks each RescanEdited against a fresh
// from-scratch scan. Two sequences per sample over the 609-sample corpus
// gives >1200 sequences, several thousand edits.
func TestIncrementalEquivalenceCorpus(t *testing.T) {
	sources := corpusSources(t)
	seqPerSource := 2
	editsPerSeq := 6
	if testing.Short() {
		sources = sources[:60]
	}
	d := detect.New(nil)
	rng := rand.New(rand.NewSource(7))
	sequences, edits, rescans := 0, 0, 0
	for si, src := range sources {
		for seq := 0; seq < seqPerSource; seq++ {
			sequences++
			p := d.Prepare(src)
			prev := d.ScanPrepared(p, uncached)
			for e := 0; e < editsPerSeq; e++ {
				// Sometimes batch 2-3 edits between rescans.
				n := 1 + rng.Intn(3)
				for b := 0; b < n && e < editsPerSeq; b++ {
					ed := randomEdit(rng, p.Source())
					if err := p.ApplyEdit(ed); err != nil {
						t.Fatalf("sample %d seq %d: ApplyEdit: %v", si, seq, err)
					}
					edits++
					e++
				}
				got, _ := d.RescanEdited(p, prev, uncached)
				rescans++
				want := d.ScanPrepared(d.Prepare(p.Source()), uncached)
				if diff := findingsDiff(got, want); diff != "" {
					t.Fatalf("sample %d seq %d after %d edits: %s\nsource:\n%s", si, seq, edits, diff, p.Source())
				}
				prev = got
			}
		}
	}
	t.Logf("%d sequences, %d edits, %d rescans — all byte-identical", sequences, edits, rescans)
}

// TestIncrementalEdgeCases exercises the hand-picked hazards of the
// artifact-splice path: edits inside comments, edits that create or
// destroy triple-quoted strings, multi-line deletions across the dirty
// boundary, CRLF and lone-CR sources, continuations, brackets, and
// boundary offsets.
func TestIncrementalEdgeCases(t *testing.T) {
	base := "import os\n\nos.system(cmd)  # run\nx = eval(data)\ny = 2\n"
	cases := []struct {
		name  string
		src   string
		edits []func(src string) editor.TextEdit
	}{
		{
			name: "edit inside comment",
			src:  base,
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					i := strings.Index(s, "# run") + 2
					return editor.SpanEdit(s, i, i, "do not ")
				},
			},
		},
		{
			name: "comment out a finding",
			src:  base,
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					i := strings.Index(s, "x = eval")
					return editor.SpanEdit(s, i, i, "# ")
				},
			},
		},
		{
			name: "create triple-quoted string swallowing the suffix",
			src:  base,
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					i := strings.Index(s, "os.system")
					return editor.SpanEdit(s, i, i, "\"\"\"\n")
				},
			},
		},
		{
			name: "destroy a triple-quoted string",
			src:  "s = \"\"\"\nos.system(cmd)\n\"\"\"\nx = eval(data)\n",
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					i := strings.Index(s, "s = \"\"\"")
					return editor.SpanEdit(s, i, i+len("s = \"\"\""), "s = 0")
				},
			},
		},
		{
			name: "edit inside a triple-quoted string",
			src:  "s = \"\"\"anything\nhere\n\"\"\"\nx = eval(data)\n",
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					i := strings.Index(s, "here")
					return editor.SpanEdit(s, i, i+4, "os.system(cmd)")
				},
			},
		},
		{
			name: "multi-line deletion spanning the dirty boundary",
			src:  base,
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					i := strings.Index(s, "os.system")
					return editor.SpanEdit(s, i, i, "a = (\n")
				},
				func(s string) editor.TextEdit {
					i := strings.Index(s, "a = (")
					j := strings.Index(s, "y = 2")
					return editor.SpanEdit(s, i, j, "")
				},
			},
		},
		{
			name: "CRLF source",
			src:  "import os\r\nos.system(cmd)\r\nx = eval(data)\r\n",
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					i := strings.Index(s, "x = eval")
					return editor.SpanEdit(s, i, i, "z = yaml.load(q)\r\n")
				},
			},
		},
		{
			name: "insert lone CR",
			src:  base,
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					i := strings.Index(s, "y = 2")
					return editor.SpanEdit(s, i, i, "\rq = 1")
				},
			},
		},
		{
			name: "backslash continuation before the window",
			src:  "a = 1 + \\\n    2\nx = eval(data)\n",
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					i := strings.Index(s, "    2")
					return editor.SpanEdit(s, i, i+5, "    os.system(cmd)")
				},
			},
		},
		{
			name: "edit inside brackets",
			src:  "a = f(1,\n      2,\n      3)\nx = eval(data)\n",
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					i := strings.Index(s, "2,")
					return editor.SpanEdit(s, i, i+1, "os.system(cmd)")
				},
			},
		},
		{
			name: "unbalanced bracket insert then repair",
			src:  base,
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					i := strings.Index(s, "y = 2")
					return editor.SpanEdit(s, i, i, "b = (\n")
				},
				func(s string) editor.TextEdit {
					i := strings.Index(s, "b = (")
					return editor.SpanEdit(s, i+5, i+5, ")")
				},
			},
		},
		{
			name: "edit at offset zero",
			src:  base,
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit { return editor.SpanEdit(s, 0, 0, "q = pickle.loads(d)\n") },
			},
		},
		{
			name: "edit at EOF",
			src:  base,
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					return editor.SpanEdit(s, len(s), len(s), "tail = yaml.load(x)")
				},
			},
		},
		{
			name: "empty source",
			src:  "",
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit { return editor.SpanEdit(s, 0, 0, "x = eval(data)\n") },
			},
		},
		{
			name: "delete everything",
			src:  base,
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit { return editor.SpanEdit(s, 0, len(s), "") },
			},
		},
		{
			name: "indentation change",
			src:  "def f():\n    x = eval(data)\n    y = 2\n",
			edits: []func(string) editor.TextEdit{
				func(s string) editor.TextEdit {
					i := strings.Index(s, "    y")
					return editor.SpanEdit(s, i, i, "    ")
				},
			},
		},
	}
	d := detect.New(nil)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := d.Prepare(tc.src)
			prev := d.ScanPrepared(p, uncached)
			for step, mk := range tc.edits {
				if err := p.ApplyEdit(mk(p.Source())); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				got, _ := d.RescanEdited(p, prev, uncached)
				want := d.ScanPrepared(d.Prepare(p.Source()), uncached)
				if diff := findingsDiff(got, want); diff != "" {
					t.Fatalf("step %d: %s\nsource:\n%q", step, diff, p.Source())
				}
				prev = got
			}
		})
	}
}

// TestApplyEditsBatch checks the simultaneous-batch semantics against
// editor.ApplyEdits and the rescan equivalence after a batch.
func TestApplyEditsBatch(t *testing.T) {
	src := "import os\nos.system(a)\nx = 1\ny = 2\nz = eval(q)\n"
	d := detect.New(nil)
	p := d.Prepare(src)
	prev := d.ScanPrepared(p, uncached)
	edits := []editor.TextEdit{
		editor.SpanEdit(src, strings.Index(src, "x = 1"), strings.Index(src, "x = 1")+5, "x = yaml.load(f)"),
		editor.SpanEdit(src, strings.Index(src, "y = 2"), strings.Index(src, "y = 2"), "# "),
	}
	if err := p.ApplyEdits(edits); err != nil {
		t.Fatal(err)
	}
	want, err := editor.ApplyEdits(src, edits)
	if err != nil {
		t.Fatal(err)
	}
	if p.Source() != want {
		t.Fatalf("batch splice mismatch:\ngot  %q\nwant %q", p.Source(), want)
	}
	got, _ := d.RescanEdited(p, prev, uncached)
	fresh := d.ScanPrepared(d.Prepare(p.Source()), uncached)
	if diff := findingsDiff(got, fresh); diff != "" {
		t.Fatal(diff)
	}

	// Overlap and inverted-range errors leave the document unchanged.
	before := p.Source()
	gen := p.Gen()
	bad := []editor.TextEdit{
		editor.SpanEdit(before, 0, 5, "A"),
		editor.SpanEdit(before, 3, 8, "B"),
	}
	if err := p.ApplyEdits(bad); err == nil || !strings.Contains(err.Error(), "overlapping edits") {
		t.Fatalf("want overlap error, got %v", err)
	}
	if p.Source() != before || p.Gen() != gen {
		t.Fatal("failed batch must not modify the document")
	}
}

// TestRescanStats checks the stats surface on the cheap path: a one-line
// edit on a multi-finding file should splice the mask and replay most
// rules rather than re-running them.
func TestRescanStats(t *testing.T) {
	var b strings.Builder
	b.WriteString("import os\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "v%d = %d\n", i, i)
	}
	b.WriteString("os.system(cmd)\n")
	b.WriteString("x = eval(data)\n")
	src := b.String()

	d := detect.New(nil)
	p := d.Prepare(src)
	prev := d.ScanPrepared(p, uncached)
	if len(prev) == 0 {
		t.Fatal("seed source should have findings")
	}
	i := strings.Index(src, "v100 = 100")
	if err := p.ApplyEdit(editor.SpanEdit(src, i, i+10, "v100 = 777")); err != nil {
		t.Fatal(err)
	}
	got, st := d.RescanEdited(p, prev, uncached)
	want := d.ScanPrepared(d.Prepare(p.Source()), uncached)
	if diff := findingsDiff(got, want); diff != "" {
		t.Fatal(diff)
	}
	if st.Full {
		t.Error("one-line neutral edit should not fall back to a full scan")
	}
	if !st.MaskSpliced {
		t.Error("one-line neutral edit should splice the comment mask")
	}
	// Class-global rules admitted by the candidate bitset still re-run;
	// the win is that the bulk of the catalog replays.
	if st.RulesReplayed == 0 || st.RulesRerun >= st.RulesReplayed {
		t.Errorf("want mostly replay: rerun=%d replayed=%d", st.RulesRerun, st.RulesReplayed)
	}
	if st.DirtyBytes <= 0 || st.DirtyBytes >= len(src)/2 {
		t.Errorf("dirty window %d bytes implausible for a one-line edit of %d bytes", st.DirtyBytes, len(src))
	}

	// Rescanning with no pending edits degrades to a full scan.
	got2, st2 := d.RescanEdited(p, got, uncached)
	if !st2.Full {
		t.Error("rescan without pending edits should report Full")
	}
	if diff := findingsDiff(got2, want); diff != "" {
		t.Fatal(diff)
	}
}

// TestGenerationCounter asserts the version counter moves exactly once
// per applied edit and is stable across rescans.
func TestGenerationCounter(t *testing.T) {
	d := detect.New(nil)
	p := d.Prepare("a = 1\nb = 2\n")
	if p.Gen() != 0 {
		t.Fatalf("fresh document at gen %d", p.Gen())
	}
	for i := 1; i <= 5; i++ {
		src := p.Source()
		if err := p.ApplyEdit(editor.SpanEdit(src, 0, 0, "# t\n")); err != nil {
			t.Fatal(err)
		}
		if p.Gen() != uint64(i) {
			t.Fatalf("after %d edits gen = %d", i, p.Gen())
		}
	}
	prev, _ := d.RescanEdited(p, d.ScanPrepared(d.Prepare("a = 1\nb = 2\n"), uncached), uncached)
	_ = prev
	if p.Gen() != 5 {
		t.Fatalf("rescan moved gen to %d", p.Gen())
	}
}

// TestIncrementalDetectorShared runs concurrent edit sessions against one
// shared Detector under the race detector: sessions own their Prepared
// exclusively (the docsession contract) while all detector state is
// shared.
func TestIncrementalDetectorShared(t *testing.T) {
	d := detect.New(nil)
	srcs := corpusSources(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(100 + g)))
			src := srcs[g*37%len(srcs)]
			p := d.Prepare(src)
			prev := d.ScanPrepared(p, uncached)
			for e := 0; e < 12; e++ {
				if err := p.ApplyEdit(randomEdit(rng, p.Source())); err != nil {
					done <- err
					return
				}
				got, _ := d.RescanEdited(p, prev, uncached)
				want := d.ScanPrepared(d.Prepare(p.Source()), uncached)
				if diff := findingsDiff(got, want); diff != "" {
					done <- fmt.Errorf("goroutine %d edit %d: %s", g, e, diff)
					return
				}
				prev = got
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzApplyEdit fuzzes a single edit against the from-scratch oracle.
func FuzzApplyEdit(f *testing.F) {
	f.Add("import os\nos.system(cmd)\n# c\nx = eval(d)\n", 10, 5, "yaml.load(")
	f.Add("s = \"\"\"\ntext\n\"\"\"\ny = 1\n", 4, 8, "'''")
	f.Add("a = (1,\n2)\r\nb = 2\n", 0, 3, "#")
	// Case-folded secrets inserted at a window edge: the start of a line
	// and the end of the text.
	f.Add("x = 1\ny = 2\n", 6, 0, "PA\u017f\u017fWORD = \"hunter22\"\n")
	f.Add("x = 1\n", 6, 0, "api_\u212aey = \"abcdefgh\"")
	f.Add("Password\nx = \"hunter22\"\nSECRET = 'abcdefgh'\n", 9, 1, "")
	d := detect.New(nil)
	f.Fuzz(func(t *testing.T, src string, start, n int, repl string) {
		if len(src) > 1<<14 || len(repl) > 1<<10 {
			t.Skip()
		}
		if start < 0 || n < 0 {
			t.Skip()
		}
		start %= len(src) + 1
		end := start + n
		if end > len(src) {
			end = len(src)
		}
		p := d.Prepare(src)
		prev := d.ScanPrepared(p, uncached)
		if err := p.ApplyEdit(editor.SpanEdit(src, start, end, repl)); err != nil {
			t.Skip()
		}
		wantSrc := src[:start] + repl + src[end:]
		if p.Source() != wantSrc {
			t.Fatalf("splice: got %q want %q", p.Source(), wantSrc)
		}
		got, _ := d.RescanEdited(p, prev, uncached)
		want := d.ScanPrepared(d.Prepare(wantSrc), uncached)
		if diff := findingsDiff(got, want); diff != "" {
			t.Fatalf("%s\nsrc=%q start=%d end=%d repl=%q", diff, src, start, end, repl)
		}
	})
}

// BenchmarkIncrementalEdit measures the edit+rescan cycle for a one-line
// edit on a corpus-scale file; BenchmarkFullRescan is the from-scratch
// baseline the ≥5x speedup claim in ISSUE.md is judged against.
func benchSource() string {
	var b strings.Builder
	b.WriteString("import os, yaml, pickle\n")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "def f%d(x):\n    return x + %d\n", i, i)
	}
	b.WriteString("os.system(cmd)\nx = yaml.load(d)\n")
	return b.String()
}

func BenchmarkIncrementalEdit(b *testing.B) {
	d := detect.New(nil)
	src := benchSource()
	p := d.Prepare(src)
	prev := d.ScanPrepared(p, uncached)
	i := strings.Index(src, "return x + 150")
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e := editor.SpanEdit(p.Source(), i, i+len("return x + 150"), "return x + 151")
		if err := p.ApplyEdit(e); err != nil {
			b.Fatal(err)
		}
		prev, _ = d.RescanEdited(p, prev, uncached)
	}
}

func BenchmarkFullRescan(b *testing.B) {
	d := detect.New(nil)
	src := benchSource()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		d.ScanPrepared(d.Prepare(src), uncached)
	}
}

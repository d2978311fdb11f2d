package experiments

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The harness is deterministic and moderately expensive; share one run
// across the test suite.
var (
	runOnce sync.Once
	shared  *Results
	runErr  error
)

func results(t *testing.T) *Results {
	t.Helper()
	runOnce.Do(func() { shared, runErr = RunContext(context.Background(), RunOptions{}) })
	if runErr != nil {
		t.Fatalf("Run: %v", runErr)
	}
	return shared
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, paper reports %.3f (tolerance %.3f)", name, got, want, tol)
	}
}

func TestCorpusReproducesSectionIIIB(t *testing.T) {
	r := results(t)
	c := r.Corpus
	if c.Prompts != 203 || c.Samples != 609 {
		t.Fatalf("corpus size: %d prompts, %d samples", c.Prompts, c.Samples)
	}
	if c.VulnerableByModel["GitHub Copilot"] != 169 ||
		c.VulnerableByModel["Claude-3.7-Sonnet"] != 126 ||
		c.VulnerableByModel["DeepSeek-V3"] != 166 {
		t.Errorf("vulnerable counts: %+v, paper reports 169/126/166", c.VulnerableByModel)
	}
	if c.VulnerableTotal != 461 {
		t.Errorf("total vulnerable = %d, paper reports 461 (76%%)", c.VulnerableTotal)
	}
	if c.DistinctCWEs < 45 {
		t.Errorf("distinct CWEs = %d; paper reports 63, reproduction must stay broad", c.DistinctCWEs)
	}
	// CWE-502 is among the paper's most frequent CWEs; it must rank high.
	top := map[string]bool{}
	for i, cc := range c.TopCWEs {
		if i == 8 {
			break
		}
		top[cc.CWE] = true
	}
	for _, cwe := range []string{"CWE-502", "CWE-089"} {
		if !top[cwe] {
			t.Errorf("%s not among the most frequent CWEs: %+v", cwe, c.TopCWEs[:8])
		}
	}
}

// TestTable2PatchitPy asserts the headline detection metrics of Table II.
func TestTable2PatchitPy(t *testing.T) {
	r := results(t)
	all := r.Table2[ToolPatchitPy][All]
	within(t, "PatchitPy precision (all)", all.Precision(), 0.97, 0.02)
	within(t, "PatchitPy recall (all)", all.Recall(), 0.88, 0.03)
	within(t, "PatchitPy F1 (all)", all.F1(), 0.93, 0.02)
	within(t, "PatchitPy accuracy (all)", all.Accuracy(), 0.89, 0.03)

	perModel := map[string][4]float64{
		"GitHub Copilot":    {0.97, 0.84, 0.90, 0.85},
		"Claude-3.7-Sonnet": {0.96, 0.93, 0.94, 0.93},
		"DeepSeek-V3":       {0.98, 0.89, 0.93, 0.89},
	}
	for model, want := range perModel {
		c := r.Table2[ToolPatchitPy][model]
		within(t, model+" precision", c.Precision(), want[0], 0.03)
		within(t, model+" recall", c.Recall(), want[1], 0.03)
		within(t, model+" F1", c.F1(), want[2], 0.03)
		within(t, model+" accuracy", c.Accuracy(), want[3], 0.03)
	}
}

// TestTable2Ordering asserts the comparative claims: PatchitPy has the
// best F1 and accuracy; static analyzers trade recall for precision; LLMs
// trade precision for recall.
func TestTable2Ordering(t *testing.T) {
	r := results(t)
	best := r.Table2[ToolPatchitPy][All]
	for _, tool := range DetectionTools {
		if tool == ToolPatchitPy {
			continue
		}
		c := r.Table2[tool][All]
		if c.F1() >= best.F1() {
			t.Errorf("%s F1 %.3f >= PatchitPy %.3f", tool, c.F1(), best.F1())
		}
		if c.Accuracy() >= best.Accuracy() {
			t.Errorf("%s accuracy %.3f >= PatchitPy %.3f", tool, c.Accuracy(), best.Accuracy())
		}
	}
	for _, tool := range []string{ToolCodeQL, ToolSemgrep, ToolBandit} {
		c := r.Table2[tool][All]
		if c.Precision() < 0.9 {
			t.Errorf("static tool %s precision %.3f; expected high precision", tool, c.Precision())
		}
		if c.Recall() > best.Recall() {
			t.Errorf("static tool %s recall %.3f exceeds PatchitPy %.3f", tool, c.Recall(), best.Recall())
		}
	}
	for _, tool := range []string{ToolChatGPT, ToolClaude, ToolGemini} {
		c := r.Table2[tool][All]
		if c.Precision() >= best.Precision() {
			t.Errorf("LLM %s precision %.3f >= PatchitPy %.3f", tool, c.Precision(), best.Precision())
		}
		if c.Recall() < 0.85 {
			t.Errorf("LLM %s recall %.3f; the paper's LLMs are high-recall", tool, c.Recall())
		}
	}
}

func TestCWECoverageShape(t *testing.T) {
	r := results(t)
	// Paper: 51 (Copilot) / 41 (Claude) / 47 (DeepSeek) distinct CWEs
	// correctly identified. Our catalog spans fewer CWEs, so we assert
	// the band and the per-model ordering direction is preserved loosely.
	for model, n := range r.CWECoverage {
		if n < 20 {
			t.Errorf("%s: only %d distinct CWEs detected", model, n)
		}
	}
}

// TestTable3PatchitPy asserts the repair rates of Table III.
func TestTable3PatchitPy(t *testing.T) {
	r := results(t)
	all := r.Table3[ToolPatchitPy][All]
	within(t, "PatchitPy Patched[Det.] (all)", all.RateDetected(), 0.80, 0.03)
	within(t, "PatchitPy Patched[Tot.] (all)", all.RateTotal(), 0.70, 0.03)

	perModel := map[string][2]float64{
		"GitHub Copilot":    {0.68, 0.57},
		"Claude-3.7-Sonnet": {0.89, 0.83},
		"DeepSeek-V3":       {0.84, 0.74},
	}
	for model, want := range perModel {
		rep := r.Table3[ToolPatchitPy][model]
		within(t, model+" Patched[Det.]", rep.RateDetected(), want[0], 0.04)
		within(t, model+" Patched[Tot.]", rep.RateTotal(), want[1], 0.04)
	}
}

func TestTable3Ordering(t *testing.T) {
	r := results(t)
	best := r.Table3[ToolPatchitPy][All]
	for _, tool := range []string{ToolChatGPT, ToolClaude, ToolGemini} {
		rep := r.Table3[tool][All]
		if rep.RateDetected() >= best.RateDetected() {
			t.Errorf("%s Patched[Det.] %.3f >= PatchitPy %.3f", tool, rep.RateDetected(), best.RateDetected())
		}
	}
}

func TestSuggestionRates(t *testing.T) {
	r := results(t)
	within(t, "Semgrep suggestion rate", r.SemgrepSuggestionRate, 0.19, 0.04)
	within(t, "Bandit suggestion rate", r.BanditSuggestionRate, 0.17, 0.04)
}

// TestFig3Complexity asserts the Fig. 3 conclusions: PatchitPy does not
// change complexity significantly; every LLM does; and the magnitudes
// track the paper's ordering (Claude adds the most).
func TestFig3Complexity(t *testing.T) {
	r := results(t)
	gen := r.Fig3Summary[FigGenerated]
	pip := r.Fig3Summary[ToolPatchitPy]
	if math.Abs(gen.Mean-pip.Mean) > 0.1 {
		t.Errorf("PatchitPy mean complexity %.2f vs generated %.2f; the paper shows them aligned (2.29 vs 2.40)", pip.Mean, gen.Mean)
	}
	if p := r.Fig3Wilcoxon[ToolPatchitPy]; p < 0.05 {
		t.Errorf("PatchitPy complexity change significant (p=%.4f); paper reports not significant", p)
	}
	for _, tool := range []string{ToolChatGPT, ToolClaude, ToolGemini} {
		d := r.Fig3Summary[tool]
		if d.Mean <= gen.Mean {
			t.Errorf("%s mean complexity %.2f <= generated %.2f; LLMs must inflate complexity", tool, d.Mean, gen.Mean)
		}
		if p := r.Fig3Wilcoxon[tool]; p >= 0.05 {
			t.Errorf("%s complexity change not significant (p=%.4f); paper reports significant", tool, p)
		}
	}
	cg := r.Fig3Summary[ToolChatGPT].Mean
	cl := r.Fig3Summary[ToolClaude].Mean
	if cl <= cg {
		t.Errorf("Claude mean %.2f <= ChatGPT %.2f; paper orders Claude highest (3.26 vs 2.84)", cl, cg)
	}
	// Bands: the base is asserted absolutely (paper: 2.40) and each LLM as
	// a delta over the base (paper: ChatGPT +0.44, Claude +0.86,
	// Gemini +0.59) so the claim tracks the corpus rather than its offset.
	within(t, "generated mean complexity", gen.Mean, 2.40, 0.35)
	within(t, "ChatGPT complexity delta", cg-gen.Mean, 0.44, 0.25)
	within(t, "Claude complexity delta", cl-gen.Mean, 0.86, 0.25)
	within(t, "Gemini complexity delta", r.Fig3Summary[ToolGemini].Mean-gen.Mean, 0.59, 0.25)
	// and the paper's IQR contrast: the base distribution has spread ~1.
	within(t, "generated complexity IQR", gen.IQR, 1.11, 0.6)
}

// TestQualityEquivalence asserts §III-C: every tool's patch quality is
// statistically equivalent to the ground truth, with high median scores.
func TestQualityEquivalence(t *testing.T) {
	r := results(t)
	for name, p := range r.QualityWilcoxon {
		if p < 0.05 {
			t.Errorf("%s patch quality differs from ground truth (p=%.4f); paper reports equivalence", name, p)
		}
	}
	for name, scores := range r.Quality {
		if len(scores) == 0 {
			t.Errorf("%s: no quality scores", name)
			continue
		}
		if med := median(scores); med < 8.5 {
			t.Errorf("%s median quality %.1f; paper reports ~9/10", name, med)
		}
	}
}

// TestParallelMatchesSequential is the headline equivalence guarantee of
// the concurrent harness: at several concurrency levels, the full rendered
// report of RunContext must be byte-identical to RunSequential's.
func TestParallelMatchesSequential(t *testing.T) {
	seq, err := RunSequential()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	seq.WriteAll(&want)

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		par, err := RunContext(context.Background(), RunOptions{Concurrency: workers})
		if err != nil {
			t.Fatalf("concurrency %d: %v", workers, err)
		}
		var got bytes.Buffer
		par.WriteAll(&got)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("concurrency %d: parallel report diverges from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
				workers, want.String(), got.String())
		}
		// The raw series must match too, not just their renderings.
		for name, wantVals := range seq.Fig3 {
			if !reflect.DeepEqual(par.Fig3[name], wantVals) {
				t.Errorf("concurrency %d: Fig3[%s] diverges", workers, name)
			}
		}
		for name, wantScores := range seq.Quality {
			if !reflect.DeepEqual(par.Quality[name], wantScores) {
				t.Errorf("concurrency %d: Quality[%s] diverges", workers, name)
			}
		}
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, RunOptions{Concurrency: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := results(t)
	ca, cb := a.Table2[ToolPatchitPy][All], b.Table2[ToolPatchitPy][All]
	if *ca != *cb {
		t.Errorf("Table2 not deterministic: %v vs %v", ca, cb)
	}
	ra, rb := a.Table3[ToolPatchitPy][All], b.Table3[ToolPatchitPy][All]
	if *ra != *rb {
		t.Errorf("Table3 not deterministic: %v vs %v", ra, rb)
	}
}

func TestReportRendering(t *testing.T) {
	r := results(t)
	var buf bytes.Buffer
	r.WriteAll(&buf)
	out := buf.String()
	for _, want := range []string{
		"TABLE II", "TABLE III", "FIG. 3", "PatchitPy", "CodeQL",
		"Semgrep", "Bandit", "ChatGPT-4o", "Gemini-2.0-Flash",
		"Wilcoxon", "vulnerable 169/203", "vulnerable 126/203", "vulnerable 166/203",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// TestCacheAblationIdentical asserts the engine's scan cache is invisible
// in the experiment outputs: a run with caching disabled renders
// byte-for-byte the same report as the cached default.
func TestCacheAblationIdentical(t *testing.T) {
	cached, err := RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tk := newToolkit()
	tk.engine.SetCacheBytes(0)
	uncached, err := runContext(context.Background(), RunOptions{}, tk)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	cached.WriteAll(&a)
	uncached.WriteAll(&b)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("cached report diverges from uncached:\n--- cached ---\n%s\n--- uncached ---\n%s",
			a.String(), b.String())
	}
}

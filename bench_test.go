package patchitpy

// This file hosts the benchmark harness that regenerates every table and
// figure of the paper's evaluation section. Each benchmark both exercises
// the pipeline under `go test -bench` and reports the reproduced headline
// numbers as custom metrics, so `go test -bench=. -benchmem` doubles as
// the experiment runner:
//
//	BenchmarkPromptStats       — §III-A prompt-token statistics
//	BenchmarkCorpusGeneration  — §III-B 609-sample corpus and vulnerability mix
//	BenchmarkTable2Detection   — Table II (detection: P/R/F1/Accuracy, 7 tools)
//	BenchmarkTable3Patching    — Table III (repair rates + suggestion rates)
//	BenchmarkFig3Complexity    — Fig. 3 (cyclomatic-complexity distributions)
//	BenchmarkQualityScores     — §III-C Pylint-score quality comparison

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"sync"
	"testing"

	"github.com/dessertlab/patchitpy/internal/baseline/banditlite"
	"github.com/dessertlab/patchitpy/internal/baseline/llmsim"
	"github.com/dessertlab/patchitpy/internal/baseline/querydb"
	"github.com/dessertlab/patchitpy/internal/baseline/semgreplite"
	"github.com/dessertlab/patchitpy/internal/complexity"
	"github.com/dessertlab/patchitpy/internal/detect"
	"github.com/dessertlab/patchitpy/internal/experiments"
	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/lintscore"
	"github.com/dessertlab/patchitpy/internal/obs"
	"github.com/dessertlab/patchitpy/internal/prompts"
	"github.com/dessertlab/patchitpy/internal/stats"
	"github.com/dessertlab/patchitpy/internal/workpool"
)

var (
	benchOnce    sync.Once
	benchResults *experiments.Results
	benchErr     error
)

func benchRun(b *testing.B) *experiments.Results {
	b.Helper()
	benchOnce.Do(func() {
		benchResults, benchErr = experiments.RunContext(context.Background(), experiments.RunOptions{})
	})
	if benchErr != nil {
		b.Fatalf("experiments.RunContext: %v", benchErr)
	}
	return benchResults
}

// BenchmarkPromptStats regenerates the §III-A prompt-length profile.
func BenchmarkPromptStats(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		ps := prompts.All()
		lengths := make([]float64, len(ps))
		for j, p := range ps {
			lengths[j] = float64(p.Tokens())
		}
		mean = stats.Mean(lengths)
	}
	b.ReportMetric(mean, "tokens-mean")
}

// BenchmarkCorpusGeneration regenerates the 609-sample corpus (§III-B).
func BenchmarkCorpusGeneration(b *testing.B) {
	ps := prompts.All()
	var vulnerable int
	for i := 0; i < b.N; i++ {
		samples, err := generator.Corpus(ps)
		if err != nil {
			b.Fatal(err)
		}
		vulnerable = 0
		for _, s := range samples {
			if s.Truth.Vulnerable {
				vulnerable++
			}
		}
	}
	b.ReportMetric(float64(vulnerable), "vulnerable-samples")
}

// BenchmarkTable2Detection runs all seven detectors over the corpus and
// reports PatchitPy's headline metrics (paper Table II).
func BenchmarkTable2Detection(b *testing.B) {
	ps := prompts.All()
	samples, err := generator.Corpus(ps)
	if err != nil {
		b.Fatal(err)
	}
	engine := New()
	bandit := banditlite.New()
	semgrep := semgreplite.New()
	codeql := querydb.New()
	assistants := llmsim.Assistants()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range samples {
			engine.Analyze(s.Code)
			bandit.Vulnerable(s.Code)
			semgrep.Vulnerable(s.Code)
			codeql.Vulnerable(s.Code)
			for _, a := range assistants {
				a.Review(s)
			}
		}
	}
	b.StopTimer()
	r := benchRun(b)
	all := r.Table2[experiments.ToolPatchitPy][experiments.All]
	b.ReportMetric(all.Precision(), "precision")
	b.ReportMetric(all.Recall(), "recall")
	b.ReportMetric(all.F1(), "f1")
	b.ReportMetric(all.Accuracy(), "accuracy")
}

// BenchmarkTable3Patching runs the detect-and-patch pipeline over the
// corpus and reports the repair rates (paper Table III).
func BenchmarkTable3Patching(b *testing.B) {
	ps := prompts.All()
	samples, err := generator.Corpus(ps)
	if err != nil {
		b.Fatal(err)
	}
	engine := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range samples {
			engine.Fix(s.Code)
		}
	}
	b.StopTimer()
	r := benchRun(b)
	all := r.Table3[experiments.ToolPatchitPy][experiments.All]
	b.ReportMetric(all.RateDetected(), "patched-det")
	b.ReportMetric(all.RateTotal(), "patched-tot")
	b.ReportMetric(r.SemgrepSuggestionRate, "semgrep-suggest")
	b.ReportMetric(r.BanditSuggestionRate, "bandit-suggest")
}

// BenchmarkFig3Complexity computes the per-sample cyclomatic complexity of
// the corpus and reports the distribution means (paper Fig. 3).
func BenchmarkFig3Complexity(b *testing.B) {
	ps := prompts.All()
	samples, err := generator.Corpus(ps)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range samples {
			complexity.Program(s.Code)
		}
	}
	b.StopTimer()
	r := benchRun(b)
	b.ReportMetric(r.Fig3Summary[experiments.FigGenerated].Mean, "generated-mean")
	b.ReportMetric(r.Fig3Summary[experiments.ToolPatchitPy].Mean, "patchitpy-mean")
	b.ReportMetric(r.Fig3Summary[experiments.ToolClaude].Mean, "claude-mean")
}

// BenchmarkQualityScores lints the corpus's patched outputs (§III-C).
func BenchmarkQualityScores(b *testing.B) {
	ps := prompts.All()
	samples, err := generator.Corpus(ps)
	if err != nil {
		b.Fatal(err)
	}
	engine := New()
	patched := make([]string, len(samples))
	for i, s := range samples {
		patched[i] = engine.Fix(s.Code).Result.Source
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range patched {
			lintscore.Score(p)
		}
	}
}

// corpusSources returns the code of the 609-sample corpus.
func corpusSources(tb testing.TB) []string {
	tb.Helper()
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		tb.Fatal(err)
	}
	srcs := make([]string, len(samples))
	for i, s := range samples {
		srcs[i] = s.Code
	}
	return srcs
}

// scanCorpus scans every source across GOMAXPROCS workers, the way the
// CLI fans a multi-file detect across the pool. out[i] holds srcs[i]'s
// findings.
func scanCorpus(ctx context.Context, d *detect.Detector, srcs []string, opt detect.Options) ([][]detect.Finding, error) {
	out := make([][]detect.Finding, len(srcs))
	err := workpool.Run(ctx, len(srcs), 0, func(i int) {
		out[i] = d.ScanWithContext(ctx, srcs[i], opt)
	})
	return out, err
}

func totalBytes(srcs []string) int64 {
	var total int64
	for _, s := range srcs {
		total += int64(len(s))
	}
	return total
}

// BenchmarkScanCorpus scans the full corpus concurrently through the
// automaton-prefiltered path and reports the prefilter's skip rate.
// NoCache keeps every iteration doing real scans, so this measures
// single-scan cost, not cache hits — BenchmarkServeHotVsCold covers the
// cached path. Compare against BenchmarkScanCorpusSequential — the
// results are byte-identical (asserted by
// TestAutomatonPrefilterTransparent and
// TestScanAllCachedMatchesUncached in internal/detect).
func BenchmarkScanCorpus(b *testing.B) {
	srcs := corpusSources(b)
	d := detect.New(nil)
	b.SetBytes(totalBytes(srcs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scanCorpus(context.Background(), d, srcs, detect.Options{NoCache: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := d.Stats()
	b.ReportMetric(st.SkipRate(), "prefilter-skip-rate")
	b.ReportMetric(float64(len(srcs)), "sources")
}

// BenchmarkTaintCorpus is BenchmarkScanCorpus with the taint precision
// filter enabled: every source additionally pays parse + CFG + reaching-
// definitions fixpoint. CI's bench smoke gates the ratio between the two
// at <= 1.25x, which keeps the filter cheap enough to leave on in server
// deployments. It reports how many findings the filter suppressed.
func BenchmarkTaintCorpus(b *testing.B) {
	srcs := corpusSources(b)
	d := detect.New(nil)
	b.SetBytes(totalBytes(srcs))
	b.ResetTimer()
	var suppressed int
	for i := 0; i < b.N; i++ {
		res, err := scanCorpus(context.Background(), d, srcs, detect.Options{NoCache: true, TaintFilter: true})
		if err != nil {
			b.Fatal(err)
		}
		suppressed = 0
		for _, fs := range res {
			for _, f := range fs {
				if f.Suppressed {
					suppressed++
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(suppressed), "suppressed-findings")
}

// BenchmarkScanCorpusObs is the observability overhead guard: the same
// corpus scan as BenchmarkScanCorpus in three instrumentation states.
// "detached" (no registry — the library default) and "disabled" (registry
// attached, Enable never called — the serve default before an exporter
// connects) must stay within noise of each other and of
// BenchmarkScanCorpus; the <3% overhead budget from the design applies to
// these no-op states. "enabled" pays for real clocks and atomics and is
// reported for reference, not guarded.
//
//	go test -bench 'ScanCorpus(Obs)?$' -count 10 . | benchstat
func BenchmarkScanCorpusObs(b *testing.B) {
	srcs := corpusSources(b)
	scan := func(b *testing.B, d *detect.Detector, ctx context.Context) {
		b.Helper()
		b.SetBytes(totalBytes(srcs))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := scanCorpus(ctx, d, srcs, detect.Options{NoCache: true}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("detached", func(b *testing.B) {
		scan(b, detect.New(nil), context.Background())
	})
	b.Run("disabled", func(b *testing.B) {
		d := detect.New(nil)
		reg := obs.NewRegistry() // attached, never enabled
		d.SetObs(reg)
		scan(b, d, obs.With(context.Background(), reg))
	})
	b.Run("enabled", func(b *testing.B) {
		d := detect.New(nil)
		reg := obs.NewRegistry()
		reg.Enable()
		d.SetObs(reg)
		scan(b, d, obs.With(context.Background(), reg))
	})
}

// BenchmarkScanCorpusSequential is the pre-pipeline baseline: one
// goroutine, no prefilter, no cache, one rule-set pass per sample —
// exactly the old ScanWith loop.
func BenchmarkScanCorpusSequential(b *testing.B) {
	srcs := corpusSources(b)
	d := detect.New(nil)
	b.SetBytes(totalBytes(srcs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range srcs {
			d.ScanWith(s, detect.Options{NoPrefilter: true, NoCache: true})
		}
	}
}

// BenchmarkScanPrepared scans the corpus single-threaded through
// ScanPrepared with one Prepared per source reused across iterations, so
// the comment mask, line index and candidate bitset are paid once — the
// steady-state cost of the rule loop itself.
func BenchmarkScanPrepared(b *testing.B) {
	srcs := corpusSources(b)
	d := detect.New(nil)
	prepared := make([]*detect.Prepared, len(srcs))
	for i, s := range srcs {
		prepared[i] = d.Prepare(s)
	}
	b.SetBytes(totalBytes(srcs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range prepared {
			d.ScanPrepared(p, detect.Options{NoCache: true})
		}
	}
	b.StopTimer()
	b.ReportMetric(d.Stats().SkipRate(), "prefilter-skip-rate")
}

// BenchmarkPrefilterAutomatonVsNone compares the one-pass Aho-Corasick
// prefilter against no prefilter at all (every admitted rule's regexes
// run) over the corpus, single-threaded and uncached. Each sub-benchmark
// reports the rule skip rate it achieved; findings are byte-identical
// between the two (asserted by TestAutomatonPrefilterTransparent).
func BenchmarkPrefilterAutomatonVsNone(b *testing.B) {
	srcs := corpusSources(b)
	run := func(name string, opt detect.Options) {
		b.Run(name, func(b *testing.B) {
			d := detect.New(nil)
			opt.NoCache = true
			b.SetBytes(totalBytes(srcs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, s := range srcs {
					d.ScanWith(s, opt)
				}
			}
			b.StopTimer()
			b.ReportMetric(d.Stats().SkipRate(), "prefilter-skip-rate")
		})
	}
	run("automaton", detect.Options{})
	run("none", detect.Options{NoPrefilter: true})
}

// BenchmarkServeHotVsCold measures the server-mode session protocol on
// repeated traffic: "cold" disables the result cache so every request
// pays a full scan; "hot" serves the same requests from a warmed cache.
// The ns/op ratio between the two sub-benchmarks is the cache's speedup
// on duplicate traffic; each reports its observed scan-cache hit rate.
func BenchmarkServeHotVsCold(b *testing.B) {
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		b.Fatal(err)
	}
	var reqs bytes.Buffer
	enc := json.NewEncoder(&reqs)
	var payload int64
	for _, s := range samples {
		if err := enc.Encode(map[string]string{"cmd": "detect", "code": s.Code}); err != nil {
			b.Fatal(err)
		}
		payload += int64(len(s.Code))
	}
	requests := reqs.Bytes()

	run := func(name string, engine *Engine, warm bool) {
		b.Run(name, func(b *testing.B) {
			if warm {
				if err := engine.Serve(bytes.NewReader(requests), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(payload)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := engine.Serve(bytes.NewReader(requests), io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(engine.CacheStats().Scan.HitRate(), "scan-hit-rate")
		})
	}
	cold := New()
	cold.SetCacheBytes(0)
	run("cold", cold, false)
	run("hot", New(), true)
}

// BenchmarkTable2 regenerates the evaluation through the concurrent
// (tool × sample) grid and reports PatchitPy's Table II headline metrics.
// Compare against BenchmarkTable2Sequential; the outputs are
// byte-identical (asserted by TestParallelMatchesSequential).
func BenchmarkTable2(b *testing.B) {
	var r *experiments.Results
	for i := 0; i < b.N; i++ {
		var err error
		r, err = experiments.RunContext(context.Background(), experiments.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
	}
	all := r.Table2[experiments.ToolPatchitPy][experiments.All]
	b.ReportMetric(all.Precision(), "precision")
	b.ReportMetric(all.Recall(), "recall")
	b.ReportMetric(all.F1(), "f1")
	b.ReportMetric(all.Accuracy(), "accuracy")
}

// BenchmarkTable2Sequential runs the retained single-goroutine reference
// harness — the before side of the before/after pair.
func BenchmarkTable2Sequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSequential(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullEvaluation runs the complete harness (all tables + figure).
func BenchmarkFullEvaluation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunContext(context.Background(), experiments.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginePerSample measures single-snippet latency — the
// interactive editor path (VS Code extension substitute). Caching is
// disabled so every iteration pays the full detect-and-patch cost; the
// hit path is measured by BenchmarkServeHotVsCold.
func BenchmarkEnginePerSample(b *testing.B) {
	engine := New()
	engine.SetCacheBytes(0)
	b.SetBytes(int64(len(vulnSnippet)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		engine.Fix(vulnSnippet)
	}
}

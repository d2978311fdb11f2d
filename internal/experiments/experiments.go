// Package experiments regenerates every table and figure of the paper's
// evaluation (§III): the corpus statistics, the detection comparison
// (Table II), the patching comparison (Table III), the cyclomatic-
// complexity analysis (Fig. 3) and the Pylint-score quality analysis.
//
// The harness evaluates the (tool × sample) grid — 7 tools over 609
// samples — through a bounded worker pool (RunContext) and folds the
// per-cell outcomes in input order, so the results are identical to the
// retained sequential reference (RunSequential) at any concurrency.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/dessertlab/patchitpy/internal/baseline/banditlite"
	"github.com/dessertlab/patchitpy/internal/baseline/llmsim"
	"github.com/dessertlab/patchitpy/internal/baseline/querydb"
	"github.com/dessertlab/patchitpy/internal/baseline/semgreplite"
	"github.com/dessertlab/patchitpy/internal/complexity"
	"github.com/dessertlab/patchitpy/internal/core"
	"github.com/dessertlab/patchitpy/internal/diag"
	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/lintscore"
	"github.com/dessertlab/patchitpy/internal/metrics"
	"github.com/dessertlab/patchitpy/internal/obs"
	"github.com/dessertlab/patchitpy/internal/oracle"
	"github.com/dessertlab/patchitpy/internal/prompts"
	"github.com/dessertlab/patchitpy/internal/stats"
	"github.com/dessertlab/patchitpy/internal/workpool"
)

// Tool names used as map keys throughout the results.
const (
	ToolPatchitPy = "PatchitPy"
	ToolCodeQL    = "CodeQL"
	ToolSemgrep   = "Semgrep"
	ToolBandit    = "Bandit"
	ToolChatGPT   = "ChatGPT-4o"
	ToolClaude    = "Claude-3.7-Sonnet"
	ToolGemini    = "Gemini-2.0-Flash"
)

// DetectionTools lists the Table II rows in paper order.
var DetectionTools = []string{
	ToolPatchitPy, ToolCodeQL, ToolSemgrep, ToolBandit,
	ToolChatGPT, ToolClaude, ToolGemini,
}

// PatchingTools lists the Table III rows in paper order.
var PatchingTools = []string{ToolPatchitPy, ToolChatGPT, ToolClaude, ToolGemini}

// ModelNames lists the generator columns in paper order.
var ModelNames = []string{"GitHub Copilot", "Claude-3.7-Sonnet", "DeepSeek-V3"}

// All is the aggregate column key.
const All = "All models"

// CorpusStats reproduces the §III-A/§III-B numbers.
type CorpusStats struct {
	Prompts           int
	PromptTokenMean   float64
	PromptTokenMed    float64
	PromptTokenMin    int
	PromptTokenMax    int
	Samples           int
	VulnerableByModel map[string]int
	VulnerableTotal   int
	DistinctCWEs      int
	TopCWEs           []CWECount
}

// CWECount is one row of the CWE frequency ranking.
type CWECount struct {
	CWE   string
	Count int
}

// Results holds everything the harness computes.
type Results struct {
	Corpus CorpusStats

	// Tools and PatchTools are the Table II / Table III row orders, taken
	// from the analyzer registry the run was built with.
	Tools      []string
	PatchTools []string

	// Table2[tool][model] is the detection confusion matrix; model may be
	// the All key.
	Table2 map[string]map[string]*metrics.Confusion
	// CWECoverage[model] is the number of distinct CWEs among the
	// vulnerable samples PatchitPy correctly identified.
	CWECoverage map[string]int

	// Table3[tool][model] is the repair tally; model may be the All key.
	Table3 map[string]map[string]*metrics.Repair
	// SemgrepSuggestionRate and BanditSuggestionRate are the fractions of
	// detections for which the tool attached a fix-suggestion comment.
	SemgrepSuggestionRate float64
	BanditSuggestionRate  float64

	// Fig3 maps series name -> per-sample complexity values (609 each).
	Fig3 map[string][]float64
	// Fig3Summary maps series name -> distribution statistics.
	Fig3Summary map[string]complexity.Distribution
	// Fig3Wilcoxon maps series name -> p-value of the rank-sum test
	// against the Generated series.
	Fig3Wilcoxon map[string]float64

	// Quality maps series name -> Pylint scores of produced patches;
	// QualityWilcoxon maps series name -> p against the ground truth.
	Quality         map[string][]float64
	QualityWilcoxon map[string]float64
}

// FigGenerated is the Fig. 3 base series name.
const FigGenerated = "Generated"

// GroundTruth is the Quality series holding the safe-rewrite scores.
const GroundTruth = "Ground truth"

// RunOptions tunes how the harness executes. The zero value is the
// default configuration.
type RunOptions struct {
	// Concurrency bounds the (tool × sample) worker pool
	// (<= 0 = GOMAXPROCS).
	Concurrency int
	// Obs, when non-nil, receives the run's telemetry: the engine's scan
	// and cache metrics, the worker pool's saturation gauges, and a
	// per-analyzer run counter + latency histogram labeled by tool name.
	Obs *obs.Registry
}

// toolkit bundles the evaluated tools. All of them are safe for
// concurrent use after construction. The named fields remain for the
// sequential reference implementation; the parallel harness iterates the
// analyzer registry, which wraps exactly the same instances.
type toolkit struct {
	engine     *core.PatchitPy
	orc        *oracle.Oracle
	bandit     *banditlite.Scanner
	semgrep    *semgreplite.Scanner
	codeql     *querydb.Engine
	assistants []*llmsim.Assistant

	// analyzers holds every tool behind the unified diagnostics model, in
	// Table II row order; analyzerList is the same set as an ordered slice
	// for index-addressed grid cells.
	analyzers    *diag.Registry
	analyzerList []diag.Analyzer

	// obsReg and the analyzer* handles carry the run's telemetry when
	// RunOptions.Obs is set; nil obsReg disables all of it (the registry
	// stays out of internal/diag on purpose — timing lives at this call
	// site so Analyzer implementations remain stdlib-pure).
	obsReg       *obs.Registry
	analyzerRuns *obs.Vec
	analyzerDur  *obs.HistogramVec
}

// setObs attaches reg to the toolkit and its engine; nil is a no-op
// toolkit-wide detach.
func (tk *toolkit) setObs(reg *obs.Registry) {
	tk.obsReg = reg
	if reg == nil {
		tk.engine.SetObs(nil)
		tk.analyzerRuns, tk.analyzerDur = nil, nil
		return
	}
	tk.engine.SetObs(reg)
	tk.analyzerRuns = reg.CounterVec(obs.MetricAnalyzerRuns, "tool")
	tk.analyzerDur = reg.HistogramVec(obs.MetricAnalyzerDuration, "tool", nil)
}

func newToolkit() *toolkit {
	tk := &toolkit{
		engine:     core.New(),
		orc:        oracle.New(),
		bandit:     banditlite.New(),
		semgrep:    semgreplite.New(),
		codeql:     querydb.New(),
		assistants: llmsim.Assistants(),
	}
	reg := diag.NewRegistry()
	reg.MustRegister(tk.engine.Analyzer())
	reg.MustRegister(tk.codeql.Analyzer())
	reg.MustRegister(tk.semgrep.Analyzer())
	reg.MustRegister(tk.bandit.Analyzer())
	for _, a := range tk.assistants {
		reg.MustRegister(a.Analyzer())
	}
	tk.analyzers = reg
	tk.analyzerList = reg.Analyzers()
	return tk
}

// cellSample is the grid column holding per-sample series shared by every
// tool row (the Generated complexity and the ground-truth quality score);
// the analyzers occupy columns 1..len(analyzerList).
const cellSample = 0

// cellResult is the immutable outcome of one grid cell. Only the fields
// of the cell's kind are populated; the fold reads them in the same order
// the sequential reference computes them.
type cellResult struct {
	// cellSample
	figGen    float64
	qualityGT float64

	// analyzer cells
	res      diag.Result
	repaired bool
	fig      float64
	quality  float64
}

// evalCell computes one grid cell through the analyzer registry. It
// touches no shared mutable state.
func (tk *toolkit) evalCell(ctx context.Context, s generator.Sample, kind int) cellResult {
	var c cellResult
	if kind == cellSample {
		c.figGen = complexity.Program(s.Code)
		if s.Truth.Vulnerable {
			c.qualityGT = lintscore.Score(generator.SafeRewrite(s))
		}
		return c
	}
	a := tk.analyzerList[kind-1]
	var start time.Time
	timed := tk.obsReg.Enabled()
	if timed {
		start = time.Now()
	}
	res, err := a.Analyze(llmsim.WithSample(ctx, s), s.Code)
	if timed {
		tk.analyzerDur.With(a.Name()).Observe(time.Since(start))
		tk.analyzerRuns.Add(a.Name(), 1)
	}
	if err != nil {
		// Analyze fails only on cancellation; the pool error then aborts
		// the run before any fold reads this cell.
		return c
	}
	c.res = res
	if diag.CanPatch(a) {
		c.repaired = res.Vulnerable && tk.orc.Repaired(s, res.Patched)
		c.fig = complexity.Program(res.Patched)
		if s.Truth.Vulnerable && c.repaired {
			c.quality = lintscore.Score(res.Patched)
		}
	}
	return c
}

// RunContext executes the full evaluation, fanning the (tool × sample)
// grid across opt.Concurrency workers, and honors ctx cancellation. The
// results are identical to RunSequential at any concurrency.
func RunContext(ctx context.Context, opt RunOptions) (*Results, error) {
	tk := newToolkit()
	if opt.Obs != nil {
		tk.setObs(opt.Obs)
	}
	return runContext(ctx, opt, tk)
}

// runContext is RunContext over a caller-supplied toolkit, so tests can
// inspect the tools (e.g. the baselines' scan counters) after a run.
func runContext(ctx context.Context, opt RunOptions, tk *toolkit) (*Results, error) {
	if opt.Obs != nil {
		// Carry the registry in the context so the worker pool's saturation
		// gauges see it too.
		ctx = obs.With(ctx, opt.Obs)
	}
	ps := prompts.All()
	samples, err := generator.Corpus(ps)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}

	cellsPerSample := 1 + len(tk.analyzerList)
	grid := make([]cellResult, len(samples)*cellsPerSample)
	err = workpool.Run(ctx, len(grid), opt.Concurrency, func(i int) {
		grid[i] = tk.evalCell(ctx, samples[i/cellsPerSample], i%cellsPerSample)
	})
	if err != nil {
		return nil, err
	}

	res := newResults(tk)
	res.Corpus = corpusStats(ps, samples)

	// Fold the grid in input order — the exact accumulation sequence of
	// the sequential reference, so aggregates come out identical.
	cweSeen := map[string]map[string]bool{}
	for _, m := range ModelNames {
		cweSeen[m] = map[string]bool{}
	}
	suggWith := map[string]int{}
	suggTotal := map[string]int{}

	for si, s := range samples {
		truth := s.Truth.Vulnerable
		cells := grid[si*cellsPerSample : (si+1)*cellsPerSample]

		res.Fig3[FigGenerated] = append(res.Fig3[FigGenerated], cells[cellSample].figGen)
		if truth {
			res.Quality[GroundTruth] = append(res.Quality[GroundTruth], cells[cellSample].qualityGT)
		}

		for ai, a := range tk.analyzerList {
			c := cells[1+ai]
			name := a.Name()
			res.addDetection(name, s.Model, c.res.Vulnerable, truth)
			if name == ToolPatchitPy && c.res.Vulnerable && truth {
				for _, cwe := range s.Truth.CWEs {
					cweSeen[s.Model][cwe] = true
				}
			}
			for _, f := range c.res.Findings {
				suggTotal[name]++
				if f.FixPreview != "" {
					suggWith[name]++
				}
			}
			if diag.CanPatch(a) {
				res.addRepair(name, s.Model, c.res.Vulnerable && truth, truth, c.repaired && truth)
				res.Fig3[name] = append(res.Fig3[name], c.fig)
				if truth && c.repaired {
					res.Quality[name] = append(res.Quality[name], c.quality)
				}
			}
		}
	}

	res.finish(cweSeen,
		suggestionRate(suggWith[ToolBandit], suggTotal[ToolBandit]),
		suggestionRate(suggWith[ToolSemgrep], suggTotal[ToolSemgrep]))
	return res, nil
}

// suggestionRate mirrors the baselines' SuggestionRate arithmetic on
// pre-accumulated counters: same division, bit-identical result.
func suggestionRate(with, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(with) / float64(total)
}

// RunSequential is the retained single-goroutine reference
// implementation. Tests assert RunContext reproduces it byte-for-byte,
// and the benchmarks use it as the before/after baseline.
func RunSequential() (*Results, error) {
	ps := prompts.All()
	samples, err := generator.Corpus(ps)
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}

	tk := newToolkit()
	res := newResults(tk)
	res.Corpus = corpusStats(ps, samples)

	cweSeen := map[string]map[string]bool{}
	for _, m := range ModelNames {
		cweSeen[m] = map[string]bool{}
	}

	var banditFindings []banditlite.Finding
	var semgrepFindings []semgreplite.Finding

	for _, s := range samples {
		truth := s.Truth.Vulnerable

		// --- PatchitPy: detect + patch ---
		outcome := tk.engine.Fix(s.Code)
		detected := outcome.Report.Vulnerable
		res.addDetection(ToolPatchitPy, s.Model, detected, truth)
		repaired := detected && tk.orc.Repaired(s, outcome.Result.Source)
		res.addRepair(ToolPatchitPy, s.Model, detected && truth, truth, repaired && truth)
		if detected && truth {
			for _, cwe := range s.Truth.CWEs {
				cweSeen[s.Model][cwe] = true
			}
		}
		res.Fig3[FigGenerated] = append(res.Fig3[FigGenerated], complexity.Program(s.Code))
		res.Fig3[ToolPatchitPy] = append(res.Fig3[ToolPatchitPy], complexity.Program(outcome.Result.Source))
		if truth && repaired {
			res.Quality[ToolPatchitPy] = append(res.Quality[ToolPatchitPy], lintscore.Score(outcome.Result.Source))
		}
		if truth {
			res.Quality[GroundTruth] = append(res.Quality[GroundTruth], lintscore.Score(generator.SafeRewrite(s)))
		}

		// --- static baselines: detect only ---
		bf := tk.bandit.Scan(s.Code)
		banditFindings = append(banditFindings, bf...)
		res.addDetection(ToolBandit, s.Model, len(bf) > 0, truth)

		sf := tk.semgrep.Scan(s.Code)
		semgrepFindings = append(semgrepFindings, sf...)
		res.addDetection(ToolSemgrep, s.Model, len(sf) > 0, truth)

		res.addDetection(ToolCodeQL, s.Model, tk.codeql.Vulnerable(s.Code), truth)

		// --- LLM baselines: detect + patch ---
		for _, a := range tk.assistants {
			review := a.Review(s)
			res.addDetection(a.Name, s.Model, review.Detected, truth)
			llmRepaired := review.Detected && tk.orc.Repaired(s, review.Patched)
			res.addRepair(a.Name, s.Model, review.Detected && truth, truth, llmRepaired && truth)
			res.Fig3[a.Name] = append(res.Fig3[a.Name], complexity.Program(review.Patched))
			if truth && llmRepaired {
				res.Quality[a.Name] = append(res.Quality[a.Name], lintscore.Score(review.Patched))
			}
		}
	}

	res.finish(cweSeen,
		banditlite.SuggestionRate(banditFindings),
		semgreplite.SuggestionRate(semgrepFindings))
	return res, nil
}

func newResults(tk *toolkit) *Results {
	res := &Results{
		Tools:           tk.analyzers.Names(),
		PatchTools:      tk.analyzers.Patchers(),
		Table2:          map[string]map[string]*metrics.Confusion{},
		Table3:          map[string]map[string]*metrics.Repair{},
		CWECoverage:     map[string]int{},
		Fig3:            map[string][]float64{},
		Fig3Summary:     map[string]complexity.Distribution{},
		Fig3Wilcoxon:    map[string]float64{},
		Quality:         map[string][]float64{},
		QualityWilcoxon: map[string]float64{},
	}
	for _, tool := range res.Tools {
		res.Table2[tool] = map[string]*metrics.Confusion{All: {}}
		for _, m := range ModelNames {
			res.Table2[tool][m] = &metrics.Confusion{}
		}
	}
	for _, tool := range res.PatchTools {
		res.Table3[tool] = map[string]*metrics.Repair{All: {}}
		for _, m := range ModelNames {
			res.Table3[tool][m] = &metrics.Repair{}
		}
	}
	return res
}

// finish computes the derived aggregates shared by both run paths.
func (r *Results) finish(cweSeen map[string]map[string]bool, banditRate, semgrepRate float64) {
	for _, m := range ModelNames {
		r.CWECoverage[m] = len(cweSeen[m])
	}
	r.BanditSuggestionRate = banditRate
	r.SemgrepSuggestionRate = semgrepRate

	for name, values := range r.Fig3 {
		r.Fig3Summary[name] = complexity.Summarize(values)
		if name == FigGenerated {
			continue
		}
		if rs, err := stats.RankSum(values, r.Fig3[FigGenerated]); err == nil {
			r.Fig3Wilcoxon[name] = rs.P
		}
	}
	for name, scores := range r.Quality {
		if name == GroundTruth {
			continue
		}
		if rs, err := stats.RankSum(scores, r.Quality[GroundTruth]); err == nil {
			r.QualityWilcoxon[name] = rs.P
		}
	}
}

func (r *Results) addDetection(tool, model string, predicted, actual bool) {
	r.Table2[tool][model].Add(predicted, actual)
	r.Table2[tool][All].Add(predicted, actual)
}

func (r *Results) addRepair(tool, model string, detected, vulnerable, patched bool) {
	row, ok := r.Table3[tool]
	if !ok {
		return
	}
	for _, key := range []string{model, All} {
		if detected {
			row[key].Detected++
		}
		if vulnerable {
			row[key].TotalVulnerable++
		}
		if patched {
			row[key].Patched++
		}
	}
}

func corpusStats(ps []prompts.Prompt, samples []generator.Sample) CorpusStats {
	cs := CorpusStats{
		Prompts:           len(ps),
		Samples:           len(samples),
		VulnerableByModel: map[string]int{},
	}
	lengths := make([]float64, len(ps))
	minTok, maxTok := 1<<30, 0
	for i, p := range ps {
		n := p.Tokens()
		lengths[i] = float64(n)
		if n < minTok {
			minTok = n
		}
		if n > maxTok {
			maxTok = n
		}
	}
	cs.PromptTokenMean = stats.Mean(lengths)
	cs.PromptTokenMed = stats.Median(lengths)
	cs.PromptTokenMin = minTok
	cs.PromptTokenMax = maxTok

	cweCounts := map[string]int{}
	for _, s := range samples {
		if s.Truth.Vulnerable {
			cs.VulnerableByModel[s.Model]++
			cs.VulnerableTotal++
			for _, cwe := range s.Truth.CWEs {
				cweCounts[cwe]++
			}
		}
	}
	cs.DistinctCWEs = len(cweCounts)
	for cwe, n := range cweCounts {
		cs.TopCWEs = append(cs.TopCWEs, CWECount{CWE: cwe, Count: n})
	}
	sort.Slice(cs.TopCWEs, func(i, j int) bool {
		if cs.TopCWEs[i].Count != cs.TopCWEs[j].Count {
			return cs.TopCWEs[i].Count > cs.TopCWEs[j].Count
		}
		return cs.TopCWEs[i].CWE < cs.TopCWEs[j].CWE
	})
	return cs
}

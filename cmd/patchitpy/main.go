// Command patchitpy is the PatchitPy command-line front end.
//
//	patchitpy detect [-severity high] [-format text|json|sarif] [-tools list] [-j N] [-metrics-out m.json] path ...
//	patchitpy patch  file.py [file2.py ...]   # patch in place (-o to stdout)
//	patchitpy rules                            # list the rule catalog
//	patchitpy vet [-format text|json|sarif] [-metrics-out m.json]  # vet the rule catalog itself
//	patchitpy serve [-cache 64] [-debug-addr :6060] [-log-format text|json]  # JSON editor protocol on stdio
//	patchitpy serve -http :8080 [-workers N] [-queue N] [-timeout 10s]  # same verbs over HTTP
//
// `detect` accepts files, directories and `dir/...` arguments; directory
// arguments are walked recursively for *.py files. Findings from every
// selected analyzer (-tools patchitpy,codeql,semgrep,bandit — or "all")
// are merged into the unified diagnostics model and rendered as text,
// JSON Lines or SARIF 2.1.0. Exit status: 0 when clean, 1 when findings
// were reported, 2 on usage or I/O errors.
//
// `vet` runs the catalog vetting engine (internal/rulecheck) over the
// built-in rules — regex health, prefilter coverage, metadata integrity,
// inter-rule overlap and patch-template convergence — and renders the
// issues through the same text/JSON/SARIF emitters, treating the catalog
// as the file and rule positions as lines. Exit 1 iff error-severity
// issues exist; advisories alone exit 0, so CI gates on the bare command.
//
// `serve` speaks the newline-delimited JSON protocol the paper's VS Code
// extension uses: {"cmd":"detect","code":"..."} and
// {"cmd":"patch","code":"..."} requests, one response per line. A request
// may carry "tools":["Bandit",...] to query the baseline analyzers behind
// the same registry. Repeated identical sources are answered from the
// engine's content-addressed scan cache sized by -cache (MiB, 0
// disables); {"cmd":"stats"} reports its hit/miss counters and the
// prefilter skip rate.
//
// Stateful buffer sessions avoid re-scanning a whole document on every
// keystroke: {"cmd":"open","code":"..."} scans once and returns a
// session id, {"cmd":"edit","session":"s1","edits":[...]} applies
// LSP-style range edits and returns findings re-scanned only around the
// dirty region (the "inc" field reports how the rescan resolved), and
// {"cmd":"close","session":"s1"} releases the buffer. Sessions are
// LRU-bounded; an invalid edit closes its session rather than serve a
// diverged buffer.
//
// With -http the same verbs are served as HTTP endpoints (POST
// /v1/detect, /v1/patch, ..., POST /v1/rpc for the raw protocol, GET for
// the body-less verbs) through a bounded work queue: a full queue sheds
// with 429 + Retry-After, every request runs under -timeout, identical
// requests coalesce through the response cache, and SIGINT/SIGTERM
// drains gracefully (stop accepting, finish in-flight, flush -metrics-out).
// The stdio mode honors the same signals with the same drain semantics.
//
// Observability: `detect` and `eval` print a one-line run summary to
// stderr (suppress with -no-summary) and write the full metrics snapshot
// as JSON with -metrics-out. `serve` answers {"cmd":"ping"} and
// {"cmd":"metrics"}, writes one trace-correlated structured log record
// per request to stderr (-log-format text|json, sampled per message by
// -log-sample), and -debug-addr starts an HTTP listener with /metrics
// (Prometheus text; OpenMetrics with exemplars via ?format=openmetrics
// or content negotiation), /debug/vars, /debug/traces (JSON, or
// Perfetto-loadable Chrome trace events with ?format=chrome) and
// /debug/pprof/. HTTP requests may carry a W3C traceparent header; the
// response echoes the trace ID in X-Patchitpy-Trace. Over stdio the
// protocol response's "trace" field carries it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/dessertlab/patchitpy"
	"github.com/dessertlab/patchitpy/internal/baseline/banditlite"
	"github.com/dessertlab/patchitpy/internal/baseline/querydb"
	"github.com/dessertlab/patchitpy/internal/baseline/semgreplite"
	"github.com/dessertlab/patchitpy/internal/core"
	"github.com/dessertlab/patchitpy/internal/detect"
	"github.com/dessertlab/patchitpy/internal/diag"
	"github.com/dessertlab/patchitpy/internal/diag/sarif"
	"github.com/dessertlab/patchitpy/internal/experiments"
	"github.com/dessertlab/patchitpy/internal/obs"
	"github.com/dessertlab/patchitpy/internal/rules"
	"github.com/dessertlab/patchitpy/internal/serve"
	"github.com/dessertlab/patchitpy/internal/taint"
	"github.com/dessertlab/patchitpy/internal/workpool"
)

// stderr is where the run summary and serve diagnostics go; package-level
// so tests can capture or silence it without touching the golden stdout.
var stderr io.Writer = os.Stderr

// errFindings signals that the scan completed and reported findings; main
// maps it to exit status 1, distinct from usage/I/O errors (status 2).
var errFindings = errors.New("findings detected")

func main() {
	err := run(os.Args[1:])
	switch {
	case err == nil:
	case errors.Is(err, errFindings):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "patchitpy:", err)
		os.Exit(2)
	}
}

func run(args []string) error { return runW(os.Stdout, args) }

// runW is run with the output stream injected, so tests can capture the
// rendered output deterministically.
func runW(w io.Writer, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: patchitpy <detect|patch|rules|vet|serve|eval> [args]")
	}
	cmd, rest := args[0], args[1:]
	engine := patchitpy.New()
	switch cmd {
	case "detect":
		return detectFiles(engine, w, rest)
	case "patch":
		return patchFiles(engine, w, rest)
	case "rules":
		return listRules(engine, w)
	case "vet":
		return vetCatalog(engine, w, rest)
	case "serve":
		fs := flag.NewFlagSet("serve", flag.ContinueOnError)
		cacheMiB := fs.Int64("cache", 32, "scan cache budget in MiB (0 disables it)")
		debugAddr := fs.String("debug-addr", "", "optional HTTP listen address for /metrics, /debug/vars, /debug/traces and /debug/pprof/ (e.g. :6060)")
		httpAddr := fs.String("http", "", "serve the JSON verbs over HTTP on this address (e.g. :8080) instead of stdin/stdout")
		workers := fs.Int("workers", 0, "HTTP mode: worker goroutines executing verb work (0 = GOMAXPROCS)")
		queueDepth := fs.Int("queue", 0, "HTTP mode: bounded work queue depth; a full queue sheds with 429 (0 = 4 per worker)")
		timeout := fs.Duration("timeout", 0, "HTTP mode: per-request deadline covering queue wait + execution (0 = 10s, negative disables)")
		metricsOut := fs.String("metrics-out", "", "write the session's final metrics snapshot to this file on shutdown")
		logFormat := fs.String("log-format", "text", "structured request log format on stderr: text or json")
		logSample := fs.Int("log-sample", 0, "per-message log records passed per second before sampling drops the rest (0 = 100)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		engine.SetCacheBytes(*cacheMiB << 20)
		engine.SetAnalyzers(core.DefaultAnalyzers(engine))
		// A serve session always carries an enabled registry so the
		// "metrics" verb works; the debug listener is opt-in.
		obsReg := obs.NewRegistry()
		obsReg.Enable()
		engine.SetObs(obsReg)
		// Request logs go to stderr on both transports (stdout carries
		// protocol responses in stdio mode), trace-correlated and sampled
		// so a hot serving path cannot flood the stream.
		logger, err := obs.NewLogger(stderr, *logFormat, obs.LoggerOptions{
			Obs:             obsReg,
			SamplePerSecond: *logSample,
		})
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		engine.SetLogger(logger)
		if *debugAddr != "" {
			srv, err := obs.ServeDebug(*debugAddr, obsReg)
			if err != nil {
				return fmt.Errorf("serve: debug listener: %w", err)
			}
			defer srv.Close()
			fmt.Fprintf(stderr, "patchitpy: debug server listening on %s\n", srv.Addr())
		}
		// Both front ends drain gracefully on SIGINT/SIGTERM: stop
		// accepting, finish in-flight work, flush the metrics snapshot.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		flushMetrics := func() error {
			if *metricsOut == "" {
				return nil
			}
			if err := obsReg.WriteSnapshotFile(*metricsOut); err != nil {
				return fmt.Errorf("serve: write metrics: %w", err)
			}
			return nil
		}
		if *httpAddr == "" {
			if err := engine.ServeContext(ctx, os.Stdin, w); err != nil {
				return err
			}
			return flushMetrics()
		}
		srv, err := serve.New(serve.Config{
			Engine:     engine,
			Obs:        obsReg,
			Logger:     logger,
			Workers:    *workers,
			QueueDepth: *queueDepth,
			Timeout:    *timeout,
		})
		if err != nil {
			return err
		}
		if err := srv.Listen(*httpAddr); err != nil {
			return fmt.Errorf("serve: listen: %w", err)
		}
		fmt.Fprintf(stderr, "patchitpy: serving HTTP on %s\n", srv.Addr())
		served := make(chan error, 1)
		go func() { served <- srv.Serve() }()
		select {
		case err := <-served:
			return err
		case <-ctx.Done():
		}
		fmt.Fprintln(stderr, "patchitpy: draining (signal received)")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			return fmt.Errorf("serve: shutdown: %w", err)
		}
		if err := <-served; err != nil {
			return err
		}
		return flushMetrics()
	case "eval":
		fs := flag.NewFlagSet("eval", flag.ContinueOnError)
		jobs := fs.Int("j", 0, "evaluation concurrency (0 = GOMAXPROCS)")
		metricsOut := fs.String("metrics-out", "", "write the run's metrics snapshot to this file as JSON")
		noSummary := fs.Bool("no-summary", false, "suppress the run summary line on stderr")
		taintStudy := fs.Bool("taint", false, "append the taint precision study (regex vs regex+taint vs taintflow)")
		if err := fs.Parse(rest); err != nil {
			return err
		}
		obsReg := obs.NewRegistry()
		obsReg.Enable()
		res, err := experiments.RunContext(context.Background(),
			experiments.RunOptions{Concurrency: *jobs, Obs: obsReg})
		if err != nil {
			return err
		}
		res.WriteAll(w)
		if *taintStudy {
			st, err := experiments.RunTaintStudy(context.Background(),
				experiments.RunOptions{Concurrency: *jobs, Obs: obsReg})
			if err != nil {
				return err
			}
			fmt.Fprintln(w)
			st.WriteTaint(w)
		}
		snap := obsReg.Snapshot()
		if !*noSummary {
			fmt.Fprintln(stderr, snap.SummaryLine(res.Corpus.Samples, int(snap.Counters[obs.MetricScanFindings])))
		}
		if *metricsOut != "" {
			if err := obsReg.WriteSnapshotFile(*metricsOut); err != nil {
				return fmt.Errorf("eval: write metrics: %w", err)
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// detectRegistry builds the analyzers `detect -tools` can select: the
// native detector (detection only, honoring the severity filter), the
// three static-analysis baselines, and the flow-sensitive taintflow
// analyzer. The detector is returned alongside the registry so the caller
// can attach observability to it.
func detectRegistry(engine *patchitpy.Engine, opt detect.Options) (*diag.Registry, *detect.Detector) {
	d := detect.New(engine.Catalog())
	reg := diag.NewRegistry()
	reg.MustRegister(d.Analyzer(opt))
	reg.MustRegister(querydb.New().Analyzer())
	reg.MustRegister(semgreplite.New().Analyzer())
	reg.MustRegister(banditlite.New().Analyzer())
	reg.MustRegister(taint.NewAnalyzer(nil))
	return reg, d
}

func detectFiles(engine *patchitpy.Engine, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("detect", flag.ContinueOnError)
	severity := fs.String("severity", "", "minimum severity: low, medium, high or critical (PatchitPy rules only)")
	format := fs.String("format", "text", "output format: text, json (JSON Lines) or sarif")
	asJSON := fs.Bool("json", false, "shorthand for -format json")
	tools := fs.String("tools", "patchitpy", "comma-separated analyzers: patchitpy, codeql, semgrep, bandit, taintflow — or \"all\"")
	taintFilter := fs.Bool("taint", false, "enable the flow-sensitive precision filter: findings with proven-constant sink arguments are reported as suppressed")
	jobs := fs.Int("j", 0, "scan concurrency across files (0 = GOMAXPROCS)")
	metricsOut := fs.String("metrics-out", "", "write the scan's metrics snapshot to this file as JSON")
	noSummary := fs.Bool("no-summary", false, "suppress the scan summary line on stderr")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asJSON && *format == "text" {
		*format = "json"
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		return fmt.Errorf("detect: unknown format %q (use text, json or sarif)", *format)
	}
	if len(fs.Args()) == 0 {
		return fmt.Errorf("detect: at least one file or directory required")
	}

	opt := detect.Options{TaintFilter: *taintFilter}
	if *severity != "" {
		min, err := parseSeverity(*severity)
		if err != nil {
			return err
		}
		opt.MinSeverity = min
	}
	// Each detect run gets a fresh enabled registry: the scan counters,
	// cache stats and per-analyzer timings feed the summary line and the
	// -metrics-out snapshot.
	obsReg := obs.NewRegistry()
	obsReg.Enable()
	reg, det := detectRegistry(engine, opt)
	det.SetObs(obsReg)
	analyzerRuns := obsReg.CounterVec(obs.MetricAnalyzerRuns, "tool")
	analyzerDur := obsReg.HistogramVec(obs.MetricAnalyzerDuration, "tool", nil)
	selected, err := selectTools(reg, *tools)
	if err != nil {
		return err
	}

	paths, err := expandPaths(fs.Args())
	if err != nil {
		return err
	}
	codes := make([]string, len(paths))
	for i, path := range paths {
		code, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		codes[i] = string(code)
	}

	// Fan the per-file work across the pool; each task runs every selected
	// analyzer and merges the findings into canonical order. The native
	// analyzer's scans go through the content-addressed result cache of
	// the Detector detectRegistry builds for this run, so duplicate file
	// contents cost one scan.
	ctx := obs.With(context.Background(), obsReg)
	files := make([]diag.FileFindings, len(paths))
	err = workpool.Run(ctx, len(paths), *jobs, func(i int) {
		var merged []diag.Finding
		for _, a := range selected {
			start := time.Now()
			res, err := a.Analyze(ctx, codes[i])
			analyzerDur.With(a.Name()).Observe(time.Since(start))
			analyzerRuns.Add(a.Name(), 1)
			if err != nil {
				return
			}
			merged = append(merged, res.Findings...)
		}
		diag.Sort(merged)
		files[i] = diag.FileFindings{File: paths[i], Findings: merged}
	})
	if err != nil {
		return err
	}

	switch *format {
	case "json":
		err = diag.WriteJSONL(w, files)
	case "sarif":
		err = sarif.Write(w, files)
	default:
		err = diag.WriteText(w, files)
	}
	if err != nil {
		return err
	}
	total, live := 0, 0
	for _, ff := range files {
		total += len(ff.Findings)
		live += diag.Unsuppressed(ff.Findings)
	}
	if !*noSummary {
		fmt.Fprintln(stderr, obsReg.Snapshot().SummaryLine(len(files), total))
	}
	if *metricsOut != "" {
		if err := obsReg.WriteSnapshotFile(*metricsOut); err != nil {
			return fmt.Errorf("detect: write metrics: %w", err)
		}
	}
	// Suppressed findings are rendered but do not fail the scan: with the
	// taint filter off, live == total and the exit semantics are unchanged.
	if live > 0 {
		return errFindings
	}
	return nil
}

// selectTools resolves the -tools flag against the registry,
// case-insensitively. "all" selects every registered analyzer.
func selectTools(reg *diag.Registry, spec string) ([]diag.Analyzer, error) {
	if strings.EqualFold(strings.TrimSpace(spec), "all") {
		return reg.Analyzers(), nil
	}
	var out []diag.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := reg.Find(name)
		if !ok {
			return nil, fmt.Errorf("detect: unknown tool %q (available: %s, or \"all\")",
				name, strings.Join(reg.Names(), ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("detect: -tools selected no analyzers")
	}
	return out, nil
}

// expandPaths resolves the detect arguments: plain files pass through,
// directories and `dir/...` walk recursively collecting *.py files in
// lexical order.
func expandPaths(args []string) ([]string, error) {
	var out []string
	for _, arg := range args {
		dir, recursive := strings.CutSuffix(arg, "/...")
		if !recursive {
			info, err := os.Stat(arg)
			if err != nil {
				return nil, err
			}
			if !info.IsDir() {
				out = append(out, arg)
				continue
			}
			dir = arg
		}
		n := len(out)
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".py") {
				out = append(out, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if len(out) == n {
			return nil, fmt.Errorf("detect: no Python files under %s", dir)
		}
	}
	return out, nil
}

func parseSeverity(s string) (rules.Severity, error) {
	switch strings.ToLower(s) {
	case "low":
		return rules.SeverityLow, nil
	case "medium":
		return rules.SeverityMedium, nil
	case "high":
		return rules.SeverityHigh, nil
	case "critical":
		return rules.SeverityCritical, nil
	}
	return 0, fmt.Errorf("unknown severity %q (use low, medium, high or critical)", s)
}

func patchFiles(engine *patchitpy.Engine, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("patch", flag.ContinueOnError)
	stdout := fs.Bool("o", false, "write the patched code to stdout instead of in place")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("patch: at least one file required")
	}
	for _, path := range paths {
		code, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		outcome := engine.Fix(string(code))
		for _, a := range outcome.Result.Applied {
			fmt.Fprintf(os.Stderr, "%s:%d: %s %s patched — %s\n",
				path, a.Finding.Line, a.Finding.Rule.ID, a.Finding.Rule.CWE, a.Note)
		}
		for _, u := range outcome.Result.Unpatched {
			fmt.Fprintf(os.Stderr, "%s:%d: %s %s detected, no automatic fix\n",
				path, u.Line, u.Rule.ID, u.Rule.CWE)
		}
		if *stdout {
			fmt.Fprint(w, outcome.Result.Source)
			continue
		}
		if outcome.Result.Changed() {
			if err := os.WriteFile(path, []byte(outcome.Result.Source), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

func listRules(engine *patchitpy.Engine, w io.Writer) error {
	for _, r := range engine.Catalog().Rules() {
		fix := "detect-only"
		if r.HasFix() {
			fix = "fix"
		}
		fmt.Fprintf(w, "%-12s %-8s %-11s %-45s %s\n", r.ID, r.CWE, fix, r.Title, r.Category)
	}
	fmt.Fprintf(w, "%d rules, %d distinct CWEs\n", engine.Catalog().Len(), len(engine.Catalog().CWEs()))
	return nil
}

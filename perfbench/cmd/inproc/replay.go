package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"github.com/dessertlab/patchitpy/internal/baseline/banditlite"
	"github.com/dessertlab/patchitpy/internal/baseline/llmsim"
	"github.com/dessertlab/patchitpy/internal/baseline/querydb"
	"github.com/dessertlab/patchitpy/internal/baseline/semgreplite"
	"github.com/dessertlab/patchitpy/internal/complexity"
	"github.com/dessertlab/patchitpy/internal/core"
	"github.com/dessertlab/patchitpy/internal/detect"
	"github.com/dessertlab/patchitpy/internal/docsession"
	"github.com/dessertlab/patchitpy/internal/editor"
	"github.com/dessertlab/patchitpy/internal/experiments"
	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/lineindex"
	"github.com/dessertlab/patchitpy/internal/lintscore"
	"github.com/dessertlab/patchitpy/internal/obs"
	"github.com/dessertlab/patchitpy/internal/patch"
	"github.com/dessertlab/patchitpy/internal/prompts"
	"github.com/dessertlab/patchitpy/internal/pyast"
	"github.com/dessertlab/patchitpy/internal/pytoken"
	"github.com/dessertlab/patchitpy/internal/serve"
	"github.com/dessertlab/patchitpy/internal/taint"
	"github.com/dessertlab/patchitpy/perfbench/trace"
	"github.com/dessertlab/patchitpy/perfbench/workload"
)

// ReplayOutput is what the replay writes: its spans and the ratios it
// counted at the layer boundaries.
type ReplayOutput struct {
	Spans    []trace.Span       `json:"spans"`
	Counters map[string]float64 `json:"counters"`
}

// replayer holds the layer instances the replay calls into.
type replayer struct {
	rec      *trace.Recorder
	counters map[string]float64
	ctx      context.Context
	// server is an in-process serve.Server configured as `patchitpy
	// serve -http` configures it; its Handler is the serve layer.
	server *serve.Server
	// engine has its caches off, so core.handle always does the work.
	engine   *core.PatchitPy
	detector *detect.Detector
}

func newServer() (*serve.Server, error) {
	e := newEngine()
	reg := obs.NewRegistry()
	reg.Enable()
	e.SetObs(reg)
	return serve.New(serve.Config{Engine: e, Obs: reg})
}

// runReplay replays a workload's inputs through the layers' public entry
// points after the load phase. Every traced run replays the cold-docs
// documents of its seed (the size-class layers), one edit session (the
// incremental layers) and one evaluation pass (the batch layers), so
// every layer metric is measured in every traced run; the workload's
// own ops are replayed through the serve layer and linked to their wire
// spans by op name.
func runReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	name := fs.String("workload", "", "workload whose inputs are replayed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "load duration the op lists were generated for")
	sessions := fs.Int("sessions", 2, "edit-stream sessions")
	dir := fs.String("dir", "perfbench", "benchmark directory")
	out := fs.String("out", "", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	corpus, err := workload.LoadCorpus(filepath.Join(*dir, "expected", "corpus.json"))
	if err != nil {
		return err
	}
	cfgs, err := workload.LoadConfig(filepath.Join(*dir, "workloads.json"))
	if err != nil {
		return err
	}
	d := time.Duration(*seconds * float64(time.Second))
	r := &replayer{rec: trace.NewRecorder(1 << 40), counters: map[string]float64{}, ctx: context.Background()}
	r.engine = newEngine()
	r.engine.SetCacheBytes(0)
	r.detector = detect.New(nil)
	if r.server, err = newServer(); err != nil {
		return err
	}

	cold := cfgs["cold-docs"]
	coldOps := workload.Subsample(workload.ColdOps(corpus, *seed, cold.Rate, d), cold.ReplayPerClass,
		func(o workload.Op) string { return workload.SizeNames[o.Size] + "/" + o.Verb })
	if err := r.cold(coldOps); err != nil {
		return err
	}

	edit := cfgs["edit-stream"]
	all := workload.EditSessions(corpus, *seed, *sessions, edit.EditsPerOpen,
		time.Duration(edit.EditIntervalMs*float64(time.Millisecond)), d, workload.EditCheckEvery)
	if *name != "edit-stream" {
		all = all[:1]
	}
	if err := r.edits(all, edit.ReplayPerClass); err != nil {
		return err
	}

	if *name == "hot-replay" {
		hot := cfgs["hot-replay"]
		ops := workload.HotOps(corpus, *seed, hot.Rate, d)
		if len(ops) > hot.ReplayPerClass {
			ops = ops[:hot.ReplayPerClass]
		}
		if err := r.hot(corpus, ops); err != nil {
			return err
		}
	}

	if err := r.batch(); err != nil {
		return err
	}

	data, err := json.Marshal(ReplayOutput{Spans: r.rec.Spans, Counters: r.counters})
	if err != nil {
		return err
	}
	return os.WriteFile(*out, data, 0o644)
}

// handle sends one request through the in-process server's Handler and
// returns the response body.
func (r *replayer) handle(srv *serve.Server, path string, body []byte) ([]byte, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, w.Code, w.Body.String())
	}
	return w.Body.Bytes(), nil
}

// cold replays cold-docs documents: the serve handler, then each layer
// beneath it as its own call.
func (r *replayer) cold(ops []workload.Op) error {
	before := r.detector.Stats()
	var fired float64
	for _, o := range ops {
		op := fmt.Sprintf("cold/%d", o.ID)
		class := workload.SizeNames[o.Size]
		body := o.Body()
		var err error
		h := r.rec.Time("serve.handler", op, class, 0, func() { _, err = r.handle(r.server, o.Path(), body) })
		if err != nil {
			return err
		}
		var req core.Request
		r.rec.Time("serve.decode", op, class, h, func() { err = json.Unmarshal(body, &req) })
		if err != nil {
			return err
		}
		req.Cmd = "detect"
		if o.Verb == workload.VerbPatch {
			req.Cmd = "patch"
		}
		var resp core.Response
		c := r.rec.Time("core.handle", op, o.Verb, h, func() { resp = r.engine.Handle(r.ctx, req) })
		r.rec.Time("serve.encode", op, class, h, func() { _, err = json.Marshal(resp) })
		if err != nil {
			return err
		}
		var findings []detect.Finding
		s := r.rec.Time("detect.scan", op, class, c, func() {
			findings = r.detector.ScanPrepared(r.detector.Prepare(o.Code), detect.Options{NoCache: true})
		})
		seen := map[string]bool{}
		for _, f := range findings {
			seen[f.Rule.ID] = true
		}
		fired += float64(len(seen))
		r.rec.Time("pytoken.tokenize", op, class, s, func() { _, _ = pytoken.TokenizeAll(o.Code) })
		r.rec.Time("lineindex.new", op, class, s, func() { _ = lineindex.New(o.Code) })
		switch o.Verb {
		case workload.VerbTaint:
			t := r.rec.Time("taint.analyze", op, class, c, func() { _ = taint.Analyze(o.Code) })
			r.rec.Time("pyast.parse", op, class, t, func() { _, _ = pyast.Parse(o.Code) })
		case workload.VerbPatch:
			r.rec.Time("patch.apply", op, class, c, func() { _ = patch.Apply(o.Code, findings) })
		}
	}
	after := r.detector.Stats()
	considered := float64(after.RulesConsidered - before.RulesConsidered)
	skipped := float64(after.RulesSkipped - before.RulesSkipped)
	if considered > 0 {
		r.counters["detect.prefilter_skip_ratio"] = skipped / considered
	}
	if considered > skipped {
		r.counters["detect.rule_yield_ratio"] = fired / (considered - skipped)
	}
	return nil
}

// hot warms a fresh in-process server with every corpus request, as the
// hot-replay set-up warms the server under test, then replays ops
// through its Handler: response-cache hits.
func (r *replayer) hot(c *workload.Corpus, ops []workload.Op) error {
	srv, err := newServer()
	if err != nil {
		return err
	}
	for _, o := range workload.HotWarmup(c) {
		if _, err := r.handle(srv, o.Path(), o.Body()); err != nil {
			return err
		}
	}
	for _, o := range ops {
		op := fmt.Sprintf("hot/%d", o.ID)
		body := o.Body()
		h := r.rec.Time("serve.handler", op, o.Verb, 0, func() { _, err = r.handle(srv, o.Path(), body) })
		if err != nil {
			return err
		}
		var req core.Request
		r.rec.Time("serve.decode", op, o.Verb, h, func() { err = json.Unmarshal(body, &req) })
		if err != nil {
			return err
		}
	}
	return nil
}

// edits replays edit sessions, up to limit edits each: the serve
// handler, the session manager beneath it, and the detector's
// incremental rescan beneath that; every fourth edit also times a
// from-scratch scan of the same buffer.
func (r *replayer) edits(sessions [][]workload.EditOp, limit int) error {
	mgr := docsession.NewManager(r.detector, docsession.DefaultCapacity)
	var edits, full, spliced, rerun float64
	for s, ops := range sessions {
		var sid, mid, cur string
		var prep *detect.Prepared
		var prev []detect.Finding
		n := 0
		for k, e := range ops {
			if n >= limit {
				break
			}
			op := fmt.Sprintf("edit/%d/%d", s, k)
			switch e.Verb {
			case workload.VerbOpen:
				body, err := r.handle(r.server, "/v1/open", e.Body(""))
				if err != nil {
					return err
				}
				var resp core.Response
				if err := json.Unmarshal(body, &resp); err != nil {
					return err
				}
				sid, cur = resp.Session, e.Code
				mid = mgr.Open(r.ctx, e.Code).ID
				prep = r.detector.Prepare(e.Code)
				prev = r.detector.ScanPrepared(prep, detect.Options{NoCache: true})
			case workload.VerbEdit:
				n++
				te := editor.TextEdit{
					Range: editor.Range{
						Start: editor.Position{Line: e.StartLine, Character: e.StartCol},
						End:   editor.Position{Line: e.EndLine, Character: e.EndCol},
					},
					NewText: e.Text,
				}
				var err error
				h := r.rec.Time("serve.handler", op, "16k", 0, func() { _, err = r.handle(r.server, "/v1/edit", e.Body(sid)) })
				if err != nil {
					return err
				}
				m := r.rec.Time("docsession.edit", op, "16k", h, func() { _, err = mgr.Edit(r.ctx, mid, []editor.TextEdit{te}) })
				if err != nil {
					return err
				}
				var st detect.RescanStats
				r.rec.Time("detect.rescan_edited", op, "16k", m, func() {
					if err = prep.ApplyEdits([]editor.TextEdit{te}); err == nil {
						prev, st = r.detector.RescanEdited(prep, prev, detect.Options{NoCache: true})
					}
				})
				if err != nil {
					return err
				}
				cur = cur[:e.Start] + e.Text + cur[e.End:]
				edits++
				if st.Full {
					full++
				}
				if st.MaskSpliced {
					spliced++
				}
				rerun += float64(st.RulesRerun)
				if n%4 == 0 {
					text := cur
					r.rec.Time("detect.fullscan", op, "16k", 0, func() {
						_ = r.detector.ScanPrepared(r.detector.Prepare(text), detect.Options{NoCache: true})
					})
				}
			case workload.VerbClose:
				if _, err := r.handle(r.server, "/v1/close", e.Body(sid)); err != nil {
					return err
				}
				if err := mgr.Close(mid); err != nil {
					return err
				}
			}
		}
	}
	if edits > 0 {
		r.counters["detect.rescan_full_ratio"] = full / edits
		r.counters["detect.mask_spliced_ratio"] = spliced / edits
		r.counters["detect.rules_rerun_per_edit"] = rerun / edits
	}
	return nil
}

// batch times one sequential evaluation pass, then the layers a pass
// runs, each over the whole corpus.
func (r *replayer) batch() error {
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		return err
	}
	const op = "batch/0"
	p := r.rec.Time("experiments.pass", op, "", 0, func() {
		_, err = experiments.RunContext(r.ctx, experiments.RunOptions{Concurrency: 1})
	})
	if err != nil {
		return err
	}
	r.rec.Time("core.fix", op, "", p, func() {
		for _, s := range samples {
			_ = r.engine.Fix(s.Code)
		}
	})
	bandit, semgrep, codeql := banditlite.New(), semgreplite.New(), querydb.New()
	r.rec.Time("baseline.banditlite", op, "", p, func() {
		for _, s := range samples {
			_ = bandit.Scan(s.Code)
		}
	})
	r.rec.Time("baseline.semgreplite", op, "", p, func() {
		for _, s := range samples {
			_ = semgrep.Scan(s.Code)
		}
	})
	r.rec.Time("baseline.querydb", op, "", p, func() {
		for _, s := range samples {
			_ = codeql.Scan(s.Code)
		}
	})
	assistants := llmsim.Assistants()
	r.rec.Time("baseline.llmsim", op, "", p, func() {
		for _, a := range assistants {
			for _, s := range samples {
				_ = a.Review(s)
			}
		}
	})
	r.rec.Time("complexity.program", op, "", p, func() {
		for _, s := range samples {
			_ = complexity.Program(s.Code)
		}
	})
	r.rec.Time("lintscore.score", op, "", p, func() {
		for _, s := range samples {
			if s.Truth.Vulnerable {
				_ = lintscore.Score(generator.SafeRewrite(s))
			}
		}
	})
	return nil
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/dessertlab/patchitpy/internal/core"
	"github.com/dessertlab/patchitpy/internal/experiments"
	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/metrics"
	"github.com/dessertlab/patchitpy/internal/oracle"
	"github.com/dessertlab/patchitpy/internal/prompts"
	"github.com/dessertlab/patchitpy/perfbench/workload"
)

func loadExpected(t *testing.T) *workload.Corpus {
	t.Helper()
	c, err := workload.LoadCorpus(filepath.Join("..", "..", "expected", "corpus.json"))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func experimentsMD(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(string(data), "\n")
}

// mdRow returns the EXPERIMENTS.md table row whose first cell is label,
// from the first line at or after the line containing section.
func mdRow(t *testing.T, lines []string, section, label string) string {
	t.Helper()
	in := false
	for _, l := range lines {
		in = in || strings.Contains(l, section)
		if in && strings.HasPrefix(l, "| "+label+" |") {
			return l
		}
	}
	t.Fatalf("EXPERIMENTS.md: no %q row after %q", label, section)
	return ""
}

// short renders a rate as EXPERIMENTS.md does in its per-generator rows.
func short(x float64) string { return strings.TrimPrefix(fmt.Sprintf("%.2f", x), "0") }

// TestExpectedVerdictsReproduceExperiments checks the committed expected
// outputs against the paper tables: the detect verdicts give PatchitPy's
// Table II row per generator, and the patched texts, judged by the
// oracle, give its Table III row, as EXPERIMENTS.md reports them.
func TestExpectedVerdictsReproduceExperiments(t *testing.T) {
	c := loadExpected(t)
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(c.Samples) {
		t.Fatalf("expected file has %d samples, corpus %d", len(c.Samples), len(samples))
	}
	orc := oracle.New()
	conf := map[string]*metrics.Confusion{}
	rep := map[string]*metrics.Repair{}
	for i, s := range samples {
		e := c.Samples[i]
		if e.Code != s.Code {
			t.Fatalf("sample %d: code differs from the generated corpus", i)
		}
		var findings []any
		if err := json.Unmarshal(e.Detect, &findings); err != nil {
			t.Fatal(err)
		}
		vuln := len(findings) > 0
		for _, m := range []string{s.Model, experiments.All} {
			if conf[m] == nil {
				conf[m], rep[m] = &metrics.Confusion{}, &metrics.Repair{}
			}
			conf[m].Add(vuln, s.Truth.Vulnerable)
			if vuln && s.Truth.Vulnerable {
				rep[m].Detected++
			}
			if s.Truth.Vulnerable {
				rep[m].TotalVulnerable++
				if vuln && orc.Repaired(s, e.Patched) {
					rep[m].Patched++
				}
			}
		}
	}
	lines := experimentsMD(t)
	labels := map[string]string{"GitHub Copilot": "Copilot", "Claude-3.7-Sonnet": "Claude", "DeepSeek-V3": "DeepSeek"}
	for model, label := range labels {
		cm := conf[model]
		want := fmt.Sprintf("%s/%s/%s/%s |", short(cm.Precision()), short(cm.Recall()), short(cm.F1()), short(cm.Accuracy()))
		if row := mdRow(t, lines, "Per generator", label); !strings.HasSuffix(row, want) {
			t.Errorf("Table II %s: expected outputs give %q, EXPERIMENTS.md has %q", label, want, row)
		}
		r := rep[model]
		want = fmt.Sprintf("%.2f / %.2f |", r.RateDetected(), r.RateTotal())
		if row := mdRow(t, lines, "## Table III", label); !strings.HasSuffix(row, want) {
			t.Errorf("Table III %s: expected outputs give %q, EXPERIMENTS.md has %q", label, want, row)
		}
	}
	r := rep[experiments.All]
	want := fmt.Sprintf("**%.2f / %.2f** |", r.RateDetected(), r.RateTotal())
	if row := mdRow(t, lines, "## Table III", "**All**"); !strings.HasSuffix(row, want) {
		t.Errorf("Table III All: expected outputs give %q, EXPERIMENTS.md has %q", want, row)
	}
}

// TestBatchExpectedMatchesExperiments checks the committed batch-eval
// expectation against EXPERIMENTS.md's PatchitPy rows of Table II,
// Table III and the Fig. 3 means.
func TestBatchExpectedMatchesExperiments(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "expected", "batch.txt"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.RunContext(context.Background(), experiments.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if string(renderBatch(res)) != string(data) {
		t.Fatal("expected/batch.txt differs from a fresh evaluation pass")
	}
	lines := experimentsMD(t)
	labels := map[string]string{"GitHub Copilot": "Copilot", "Claude-3.7-Sonnet": "Claude", "DeepSeek-V3": "DeepSeek"}
	for model, label := range labels {
		cm := res.Table2[experiments.ToolPatchitPy][model]
		want := fmt.Sprintf("%s/%s/%s/%s |", short(cm.Precision()), short(cm.Recall()), short(cm.F1()), short(cm.Accuracy()))
		if row := mdRow(t, lines, "Per generator", label); !strings.HasSuffix(row, want) {
			t.Errorf("Table II %s: batch gives %q, EXPERIMENTS.md has %q", label, want, row)
		}
	}
	for series, label := range map[string]string{experiments.FigGenerated: "Generated", experiments.ToolPatchitPy: "PatchitPy"} {
		d := res.Fig3Summary[series]
		want := fmt.Sprintf("| %.2f (%.2f) |", d.Mean, d.IQR)
		if row := mdRow(t, lines, "## Fig. 3", label); !strings.Contains(row, want) {
			t.Errorf("Fig. 3 %s: batch gives %q, EXPERIMENTS.md has %q", label, want, row)
		}
	}
}

// TestPaddingIsInert checks the premise of the cold-docs and edit-stream
// output checks: a sample atop the workload's padding draws exactly the
// sample's expected findings, and patching it leaves the padding as it
// was. It covers a seeded subset of samples at every size class.
func TestPaddingIsInert(t *testing.T) {
	c := loadExpected(t)
	e := newEngine()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 24; k++ {
		i := rng.Intn(len(c.Samples))
		s := c.Samples[i]
		size := k % len(workload.SizeBytes)
		if testing.Short() && size == len(workload.SizeBytes)-1 {
			continue
		}
		code := s.Code + workload.Padding(rng, fmt.Sprintf("t%d", k), workload.SizeBytes[size]-len(s.Code))
		check := func(verb string, resp core.Response, want json.RawMessage) {
			t.Helper()
			got, err := json.Marshal(resp.Findings)
			if err != nil || !resp.OK {
				t.Fatalf("sample %d %s: %v %s", i, verb, err, resp.Error)
			}
			if canonical(t, got) != canonical(t, want) {
				t.Errorf("sample %d at %s, %s: findings\n%s\nwant\n%s", i, workload.SizeNames[size], verb, got, want)
			}
		}
		check("detect", e.Handle(ctx, core.Request{Cmd: "detect", Code: code}), s.Detect)
		check("taint", e.Handle(ctx, core.Request{Cmd: "detect", Code: code, Taint: true}), s.Taint)
		resp := e.Handle(ctx, core.Request{Cmd: "patch", Code: code})
		check("patch", resp, s.Detect)
		if resp.Patched != s.Patched+code[len(s.Code):] {
			t.Errorf("sample %d at %s: patching touched the padding", i, workload.SizeNames[size])
		}
	}
}

func canonical(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var v []any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if len(v) == 0 {
		return "[]"
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// Command inproc is the benchmark's in-process half. The load generator
// (cmd/bench) runs it as a child process for the work that has to call
// the program's packages directly:
//
//	inproc expected -dir perfbench/expected
//	    writes the expected-output files from the current tree
//	inproc batch -seconds 10 -concurrency 2 -expected perfbench/expected/batch.txt
//	    the batch-eval workload: back-to-back experiments.RunContext passes
//	inproc replay -workload cold-docs -seed 1 -seconds 10 -dir perfbench -out spans.json
//	    the traced run's replay of a workload's inputs, one span per call
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/dessertlab/patchitpy/internal/core"
	"github.com/dessertlab/patchitpy/internal/experiments"
	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/prompts"
	"github.com/dessertlab/patchitpy/perfbench/workload"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: inproc <expected|batch|replay> [flags]")
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "expected":
		err = runExpected(os.Args[2:])
	case "batch":
		err = runBatch(os.Args[2:])
	case "replay":
		err = runReplay(os.Args[2:])
	default:
		err = fmt.Errorf("unknown mode %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "inproc:", err)
		os.Exit(1)
	}
}

// newEngine builds an engine configured as `patchitpy serve` builds it.
func newEngine() *core.PatchitPy {
	e := core.New()
	e.SetAnalyzers(core.DefaultAnalyzers(e))
	return e
}

// findingsJSON encodes a response's findings as the protocol does.
func findingsJSON(resp core.Response) (json.RawMessage, error) {
	if !resp.OK {
		return nil, errors.New(resp.Error)
	}
	return json.Marshal(resp.Findings)
}

// runExpected writes corpus.json (per-sample findings and patched text)
// and batch.txt (the rendered Table II, Table III and Fig. 3).
func runExpected(args []string) error {
	fs := flag.NewFlagSet("expected", flag.ContinueOnError)
	dir := fs.String("dir", "perfbench/expected", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		return err
	}
	e := newEngine()
	ctx := context.Background()
	var c workload.Corpus
	for _, s := range samples {
		var ws workload.Sample
		ws.Code = s.Code
		if ws.Detect, err = findingsJSON(e.Handle(ctx, core.Request{Cmd: "detect", Code: s.Code})); err != nil {
			return err
		}
		if ws.Taint, err = findingsJSON(e.Handle(ctx, core.Request{Cmd: "detect", Code: s.Code, Taint: true})); err != nil {
			return err
		}
		resp := e.Handle(ctx, core.Request{Cmd: "patch", Code: s.Code})
		if !resp.OK {
			return errors.New(resp.Error)
		}
		ws.Patched = resp.Patched
		c.Samples = append(c.Samples, ws)
	}
	data, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*dir, "corpus.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	res, err := experiments.RunContext(ctx, experiments.RunOptions{})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(*dir, "batch.txt"), renderBatch(res), 0o644)
}

// renderBatch renders the artifacts batch-eval checks every pass
// against: Table II, Table III and Fig. 3 as the experiments command
// prints them, then the exact confusion and repair counts behind the
// rounded table cells.
func renderBatch(res *experiments.Results) []byte {
	var b bytes.Buffer
	res.WriteTable2(&b)
	res.WriteTable3(&b)
	res.WriteFig3(&b)
	models := append(append([]string(nil), experiments.ModelNames...), experiments.All)
	for _, tool := range res.Tools {
		for _, m := range models {
			if c := res.Table2[tool][m]; c != nil {
				fmt.Fprintf(&b, "table2 %s | %s | %+v\n", tool, m, *c)
			}
		}
	}
	for _, tool := range res.PatchTools {
		for _, m := range models {
			if r := res.Table3[tool][m]; r != nil {
				fmt.Fprintf(&b, "table3 %s | %s | %+v\n", tool, m, *r)
			}
		}
	}
	return b.Bytes()
}

// passLine is what the batch child prints after each pass.
type passLine struct {
	Start int64 `json:"start"` // Unix ns
	End   int64 `json:"end"`
	OK    bool  `json:"ok"`
	// Peak is the process's VmHWM over the pass, in bytes.
	Peak int64 `json:"peak"`
}

// runBatch is the batch-eval child: after set-up it prints "ready", then
// runs passes back to back until -seconds is over, printing one JSON
// line per pass, and exits. Each pass builds a fresh toolkit.
func runBatch(args []string) error {
	fs := flag.NewFlagSet("batch", flag.ContinueOnError)
	seconds := fs.Float64("seconds", 10, "measured duration")
	conc := fs.Int("concurrency", 2, "RunContext concurrency")
	expected := fs.String("expected", "perfbench/expected/batch.txt", "expected rendered tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want, err := os.ReadFile(*expected)
	if err != nil {
		return err
	}
	// Set-up: the corpus and an engine, the parts of a toolkit that do
	// not depend on the pass.
	if _, err := generator.Corpus(prompts.All()); err != nil {
		return err
	}
	_ = newEngine()
	fmt.Println("ready")
	deadline := time.Now().Add(time.Duration(*seconds * float64(time.Second)))
	enc := json.NewEncoder(os.Stdout)
	for time.Now().Before(deadline) {
		// Each pass starts from a collected heap, as a fresh evaluation
		// process would, so the peak memory of one pass does not depend
		// on garbage the previous pass left behind.
		runtime.GC()
		// Reset the high-water mark, so VmHWM after the pass is the
		// pass's own peak.
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return err
		}
		start := time.Now()
		res, err := experiments.RunContext(context.Background(), experiments.RunOptions{Concurrency: *conc})
		end := time.Now()
		ok := err == nil && bytes.Equal(renderBatch(res), want)
		peak, err := vmHWM()
		if err != nil {
			return err
		}
		if err := enc.Encode(passLine{Start: start.UnixNano(), End: end.UnixNano(), OK: ok, Peak: peak}); err != nil {
			return err
		}
	}
	return nil
}

// vmHWM returns this process's VmHWM in bytes.
func vmHWM() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

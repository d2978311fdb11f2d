// Command bench is the benchmark's load generator and reporter. It runs one
// workload against the program built from the checkout and prints every
// metric BENCHMARK.json names, by name, unit and sample count; the last
// line of standard output is the run's JSON result.
//
//	bench -dir perfbench -build .bench_build --workload hot-replay --seed 1 --seconds 20 --trace 0
//
// The serve workloads (hot-replay, cold-docs, edit-stream) drive
// `patchitpy serve -http` as a separate process over loopback; the
// batch-eval workload runs evaluation passes in a child process. A timed
// run (--trace 0) measures the end-to-end metrics and records no spans.
// A traced run (--trace 1) repeats the load while recording one wire
// span per op, then has the in-process half (cmd/inproc) replay the same
// inputs through each layer's public entry points and reports the
// per-layer metrics.
//
// Every response is checked against the expected outputs under
// expected/; a mismatch counts as a failed op and the run exits 1.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"github.com/dessertlab/patchitpy/perfbench/trace"
	"github.com/dessertlab/patchitpy/perfbench/workload"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json bench reads: which metrics to
// report.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run's state.
type bench struct {
	dir, build string
	name       string
	seed       int64
	seconds    float64
	traced     bool
	nproc      int
	cfg        workload.Config
	corpus     *workload.Corpus
	out        io.Writer

	// values holds every metric the run measured, end-to-end and per
	// layer; counts holds the sample count behind each.
	values map[string]float64
	counts map[string]int
	// attempted and failed count the measured ops.
	attempted, failed int
	// invalid is set when the generator fell behind its schedule.
	invalid string
	// notes are extra lines for the report header.
	notes []string
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	dir := fs.String("dir", "perfbench", "benchmark directory")
	build := fs.String("build", ".bench_build", "directory holding the built binaries")
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured duration in seconds")
	traced := fs.Int("trace", 0, "1 for a traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	var sp spec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return 0, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return 0, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	if *seconds <= 0 {
		return 0, errors.New("--seconds must be positive")
	}
	b := &bench{
		dir: *dir, build: *build, name: *name, seed: *seed, seconds: *seconds,
		traced: *traced == 1, nproc: runtime.NumCPU(), out: stdout,
		values: map[string]float64{}, counts: map[string]int{},
	}
	runtime.GOMAXPROCS(b.nproc)
	// The generator shares the CPUs with the server; collecting its
	// short-lived request garbage less often keeps its own GC out of the
	// server's latency.
	debug.SetGCPercent(400)
	// workloads.json defines every workload bench can run;
	// BENCHMARK.json lists the ones the benchmark's gate runs.
	cfgs, err := workload.LoadConfig(filepath.Join(b.dir, "workloads.json"))
	if err != nil {
		return 0, err
	}
	cfg, ok := cfgs[b.name]
	if !ok {
		return 0, fmt.Errorf("unknown workload %q", b.name)
	}
	b.cfg = cfg
	if b.corpus, err = workload.LoadCorpus(filepath.Join(b.dir, "expected", "corpus.json")); err != nil {
		return 0, err
	}

	genCPU0, steal0 := selfCPU(), stealTime()
	switch b.name {
	case "batch-eval":
		err = b.batch()
	default:
		err = b.serve()
	}
	if err != nil {
		return 0, err
	}
	b.notes = append(b.notes, fmt.Sprintf("generator_cpu_s=%.3f host_steal_s=%.3f",
		(selfCPU()-genCPU0).Seconds(), (stealTime()-steal0).Seconds()))

	if b.attempted > 0 {
		b.values["fail_ratio"] = float64(b.failed) / float64(b.attempted)
		b.counts["fail_ratio"] = b.attempted
	}
	metrics := sp.EndToEnd
	if b.traced {
		metrics = sp.PerLayer
		// The traced run's own wire p50, against the timed run's
		// latency_p50_ms, is the tracing overhead.
		b.notes = append(b.notes, fmt.Sprintf("traced_latency_p50_ms=%.4f", b.values["latency_p50_ms"]))
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	b.header()
	for _, m := range metrics {
		v, ok := b.values[m.Name]
		note := fmt.Sprintf("n=%d", b.counts[m.Name])
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// A layer this workload does not exercise.
			v, note = 0, "not exercised by this workload"
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		fmt.Fprintf(stdout, "metric %-36s %14.6g %-6s %s\n", m.Name, v, m.Unit, note)
	}
	if b.invalid != "" {
		fmt.Fprintf(stdout, "invalid run: %s\n", b.invalid)
		return 1, nil
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// header prints the run's validity record.
func (b *bench) header() {
	fmt.Fprintf(b.out, "run workload=%s seed=%d seconds=%g trace=%t nproc=%d go=%s commit=%s server_sha256=%s\n",
		b.name, b.seed, b.seconds, b.traced, b.nproc, runtime.Version(), commit(), fileHash(filepath.Join(b.build, "patchitpy")))
	fmt.Fprintf(b.out, "run %s\n", strings.Join(b.notes, " "))
	fmt.Fprintf(b.out, "run attempted=%d failed=%d\n", b.attempted, b.failed)
}

// commit names the checkout's commit when it is a git work tree, else
// "unknown".
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fileHash is the first 12 hex digits of a file's SHA-256.
func fileHash(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:12]
}

// setLatency records the median and tail latency of ms by the
// Harrell-Davis estimator. The tail is the p99 when the run holds at
// least 1000 samples (ten beyond it), else the highest percentile the
// samples support.
func (b *bench) setLatency(ms []float64) {
	n := len(ms)
	b.counts["latency_p50_ms"], b.counts["latency_p99_ms"] = n, n
	if data, err := json.Marshal(ms); err == nil {
		// Every op's latency, kept for looking at a run afterwards.
		_ = os.WriteFile(filepath.Join(b.build, fmt.Sprintf("latency-%s-%d.json", b.name, b.seed)), data, 0o644)
	}
	q := trace.TailQuantile(n, 0.99)
	b.values["latency_p50_ms"] = trace.HDQuantile(ms, 0.5)
	b.values["latency_p99_ms"] = trace.HDQuantile(ms, q)
	if q != 0.99 {
		b.notes = append(b.notes, fmt.Sprintf("latency_p99_ms_is=p%g(only %d samples)", q*100, n))
	}
}

// tail99 returns the highest percentile up to p99 that xs supports.
func tail99(xs []float64) float64 {
	return trace.Quantile(xs, trace.TailQuantile(len(xs), 0.99))
}

// median returns the median of xs.
func median(xs []float64) float64 { return trace.Quantile(xs, 0.5) }

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// passLine mirrors what `inproc batch` prints after each pass.
type passLine struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	OK    bool  `json:"ok"`
	Peak  int64 `json:"peak"` // VmHWM over the pass, bytes
}

// batchChild is one run of the batch-eval process.
type batchChild struct {
	setup  time.Duration // exec to "ready"
	cpu0   time.Duration // CPU at "ready"
	passes []passLine
	recv   []time.Time // when each pass line arrived
	usage  *syscall.Rusage
}

// runBatchChild execs `inproc batch` for seconds and collects its passes.
func (b *bench) runBatchChild(seconds float64) (*batchChild, error) {
	start := time.Now()
	cmd := exec.Command(filepath.Join(b.build, "inproc"), "batch",
		"-seconds", fmt.Sprint(seconds), "-concurrency", fmt.Sprint(b.nproc),
		"-expected", filepath.Join(b.dir, "expected", "batch.txt"))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &batchChild{}
	sc := bufio.NewScanner(stdout)
	ready := false
	for sc.Scan() {
		if !ready {
			if sc.Text() != "ready" {
				continue
			}
			ready = true
			c.setup = time.Since(start)
			c.cpu0, _ = cpuTime(cmd.Process.Pid) // best effort: CPU spent in set-up
			continue
		}
		var p passLine
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			return nil, fmt.Errorf("batch child: %w", err)
		}
		c.passes = append(c.passes, p)
		c.recv = append(c.recv, time.Now())
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("batch child: %w", err)
	}
	if !ready {
		return nil, errors.New("batch child never became ready")
	}
	c.usage, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return c, nil
}

// batch runs the batch-eval workload: a closed loop of evaluation passes
// in a child process, each checked against the expected tables.
func (b *bench) batch() error {
	var setupS []float64
	var c *batchChild
	for k := 0; k < setups; k++ {
		secs := 0.0
		if k == setups-1 {
			secs = b.seconds
		}
		ch, err := b.runBatchChild(secs)
		if err != nil {
			return err
		}
		setupS = append(setupS, ch.setup.Seconds())
		c = ch
	}
	b.values["setup_s"] = median(setupS)
	b.counts["setup_s"] = len(setupS)
	if len(c.passes) == 0 || c.usage == nil {
		return errors.New("batch child ran no pass")
	}

	var ms, gaps, pipe, peaks []float64
	inSLO := 0
	for i, p := range c.passes {
		b.attempted++
		peaks = append(peaks, float64(p.Peak)/(1<<20))
		if !p.OK {
			b.failed++
			continue
		}
		l := float64(p.End-p.Start) / 1e6
		ms = append(ms, l)
		if l <= b.cfg.SLOMs {
			inSLO++
		}
		pipe = append(pipe, float64(c.recv[i].UnixNano()-p.End)/1e6)
		if i > 0 {
			gaps = append(gaps, float64(p.Start-c.passes[i-1].End)/1e6)
		}
	}
	b.setLatency(ms)
	n := len(c.passes)
	wall := float64(c.passes[n-1].End-c.passes[0].Start) / 1e9
	ok := len(ms)
	b.values["within_slo_ratio"] = float64(inSLO) / float64(n)
	b.values["achieved_ops_s"] = float64(ok) / wall
	cpu := time.Duration(c.usage.Utime.Nano()+c.usage.Stime.Nano()) - c.cpu0
	samples := len(b.corpus.Samples)
	b.values["cpu_ms_per_op"] = float64(cpu) / float64(time.Millisecond) / float64(ok*samples)
	// The child resets its high-water mark before every pass; the
	// median pass peak is steadier than the maximum over all passes.
	b.values["peak_rss_mb"] = median(peaks)
	srcBytes := 0
	for _, s := range b.corpus.Samples {
		srcBytes += len(s.Code)
	}
	b.values["source_mb_s"] = float64(ok*srcBytes) / 1e6 / wall
	for _, k := range []string{"within_slo_ratio", "achieved_ops_s", "cpu_ms_per_op", "source_mb_s"} {
		b.counts[k] = n
	}
	b.counts["peak_rss_mb"] = n
	b.notes = append(b.notes, fmt.Sprintf("batch_cpu_s=%.3f passes=%d max_rss_mb=%.1f", cpu.Seconds(), n, float64(c.usage.Maxrss)/1024))
	if !b.traced {
		return nil
	}
	// The batch loop's client is this process reading the child's pass
	// lines; its lag is the gap between back-to-back passes.
	if len(pipe) > 0 {
		b.values["client.unattributed_p50_ms"] = median(pipe)
		b.counts["client.unattributed_p50_ms"] = len(pipe)
	}
	if len(gaps) > 0 {
		b.values["client.lag_p99_ms"] = tail99(gaps)
		b.counts["client.lag_p99_ms"] = len(gaps)
	}
	rp, err := b.replay()
	if err != nil {
		return err
	}
	b.spanMetrics(rp.Spans, rp.Counters)
	return b.writeSpans(rp.Spans)
}

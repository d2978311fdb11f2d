// Package workpool provides the bounded worker pool shared by PatchitPy's
// concurrent paths: the CLI's multi-file detect, the evaluation harness's
// (tool × sample) cell grid (experiments.RunContext) and the taint study.
// Workers pull indexed jobs from a shared atomic cursor, so callers get
// deterministic output by writing each job's result into a slot keyed by
// its index.
package workpool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/dessertlab/patchitpy/internal/obs"
)

// Clamp resolves a requested concurrency level: values <= 0 mean
// GOMAXPROCS, and the result never exceeds n (the number of jobs).
func Clamp(concurrency, n int) int {
	if concurrency <= 0 {
		concurrency = runtime.GOMAXPROCS(0)
	}
	if concurrency > n {
		concurrency = n
	}
	if concurrency < 1 {
		concurrency = 1
	}
	return concurrency
}

// Run executes fn(i) for every i in [0, n) across at most concurrency
// goroutines (<= 0 means GOMAXPROCS). fn must write its result into a
// caller-owned slot for index i; Run imposes no output ordering of its
// own. When ctx is canceled, workers stop claiming new indices and Run
// returns ctx.Err(); jobs already started run to completion, so callers
// must treat unclaimed slots as unset.
func Run(ctx context.Context, n, concurrency int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := Clamp(concurrency, n)
	// When the context carries an enabled obs registry, publish the
	// pool's saturation: batch/job counters plus active-worker and
	// pending-job gauges. The gauges describe the most recent batch;
	// concurrent batches interleave their updates, which is acceptable
	// for utilization monitoring. Without a registry this block is one
	// nil-safe atomic load.
	if reg := obs.From(ctx); reg.Enabled() {
		reg.Counter(obs.MetricPoolBatches).Inc()
		reg.Gauge(obs.MetricPoolWorkers).Set(int64(workers))
		jobs := reg.Counter(obs.MetricPoolJobs)
		active := reg.Gauge(obs.MetricPoolActive)
		pending := reg.Gauge(obs.MetricPoolPending)
		pending.Set(int64(n))
		inner := fn
		fn = func(i int) {
			active.Inc()
			inner(i)
			active.Dec()
			jobs.Inc()
			pending.Add(-1)
		}
	}
	if workers == 1 {
		// Sequential fast path: no goroutines, identical job order.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

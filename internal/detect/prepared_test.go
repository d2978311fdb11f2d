package detect

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/obs"
	"github.com/dessertlab/patchitpy/internal/prompts"
	"github.com/dessertlab/patchitpy/internal/workpool"
)

func TestScanPreparedMatchesScanWith(t *testing.T) {
	d := New(nil)
	src := "import pickle\nimport hashlib\nh = hashlib.md5(x)\nobj = pickle.loads(y)\n"
	prep := d.Prepare(src)
	for _, opt := range []Options{
		{},
		{NoPrefilter: true},
		{FixableOnly: true},
	} {
		opt.NoCache = true
		got := d.ScanPrepared(prep, opt)
		want := d.ScanWith(src, opt)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("opt %+v: prepared scan diverges: %v vs %v", opt, findIDs(got), findIDs(want))
		}
	}
}

func TestPreparedLineIndexMatchesCount(t *testing.T) {
	d := New(nil)
	src := "a = 1\n\nimport pickle\nobj = pickle.loads(data)\n"
	fs := d.Scan(src)
	if len(fs) == 0 {
		t.Fatal("no findings")
	}
	for _, f := range fs {
		want := 1 + strings.Count(src[:f.Start], "\n")
		if f.Line != want {
			t.Errorf("%s: line %d, want %d", f.Rule.ID, f.Line, want)
		}
	}
}

// TestScanCacheTransparent asserts cached scans return byte-identical
// findings and that repeats actually hit.
func TestScanCacheTransparent(t *testing.T) {
	d := New(nil)
	src := "import pickle\nobj = pickle.loads(data)\n"
	first := d.ScanWith(src, Options{})
	uncached := d.ScanWith(src, Options{NoCache: true})
	second := d.ScanWith(src, Options{})
	if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(first, uncached) {
		t.Fatal("cached scan diverges from uncached")
	}
	if st := d.CacheStats(); st.Hits == 0 {
		t.Errorf("no cache hit recorded: %+v", st)
	}
}

// TestScanCacheIsolation: results are isolated per Options fingerprint —
// a severity-filtered scan must not be answered with the unfiltered one.
func TestScanCacheIsolation(t *testing.T) {
	d := New(nil)
	src := "import hashlib\nh = hashlib.md5(x)\nresp.set_cookie(\"sid\", v)\n"
	all := d.Scan(src)
	only := d.ScanWith(src, Options{RuleIDs: []string{"PIP-CRY-001"}})
	if reflect.DeepEqual(all, only) {
		t.Fatal("filtered scan returned the unfiltered cached result")
	}
	for _, f := range only {
		if f.Rule.ID != "PIP-CRY-001" {
			t.Errorf("filtered scan leaked %s", f.Rule.ID)
		}
	}
}

// TestScanCacheMutationFresh mutates one byte of a cached source and
// asserts the scan result is computed fresh, not served stale.
func TestScanCacheMutationFresh(t *testing.T) {
	d := New(nil)
	vuln := "import hashlib\nh = hashlib.md5(x)\n"
	if len(d.Scan(vuln)) == 0 {
		t.Fatal("seed source should fire")
	}
	// One byte: md5 → md4 (no rule matches hashlib.md4 by that literal).
	mutated := strings.Replace(vuln, "md5", "mf5", 1)
	if len(mutated) != len(vuln) {
		t.Fatal("mutation changed length")
	}
	got := d.Scan(mutated)
	want := d.ScanWith(mutated, Options{NoCache: true})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mutated source served stale result: %v vs %v", findIDs(got), findIDs(want))
	}
	if hasID(got, "PIP-CRY-001") {
		t.Error("md5 rule fired on the mutated source")
	}
}

// TestScanAllMatchesScan is the determinism property test for batch
// scans: over a shuffled corpus scanned by goroutines sharing one
// Detector, every input gets exactly what a sequential per-sample Scan
// returns — same order, same spans, same rules — at every worker count.
func TestScanAllMatchesScan(t *testing.T) {
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	codes := make([]string, len(samples))
	for i, s := range samples {
		codes[i] = s.Code
	}
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(codes), func(i, j int) { codes[i], codes[j] = codes[j], codes[i] })

	d := New(nil)
	want := make([][]Finding, len(codes))
	for i, c := range codes {
		want[i] = d.Scan(c)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		got := make([][]Finding, len(codes))
		err := workpool.Run(context.Background(), len(codes), workers, func(i int) {
			got[i] = d.Scan(codes[i])
		})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		for i := range codes {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%d workers: findings for sample %d diverge from sequential Scan", workers, i)
			}
		}
	}
}

// TestScanAllCachedMatchesUncached asserts that goroutines sharing
// one Detector — and so its scan cache, as serve's concurrent requests
// do — reproduce the uncached, unfiltered reference byte-for-byte, both
// on a cold cache and on a fully warm one. Run it under -race: the
// goroutines race each other into the cache for the same keys.
func TestScanAllCachedMatchesUncached(t *testing.T) {
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	ref := New(nil)
	want := make([][]Finding, len(samples))
	for i, s := range samples {
		want[i] = ref.ScanWith(s.Code, Options{NoPrefilter: true, NoCache: true})
	}
	for _, workers := range []int{1, 4, 8} {
		d := New(nil)
		for pass := 0; pass < 2; pass++ { // pass 0 cold, pass 1 warm
			got := make([][]Finding, len(samples))
			err := workpool.Run(context.Background(), len(samples), workers, func(i int) {
				got[i] = d.ScanWith(samples[i].Code, Options{})
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range samples {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%d goroutines pass %d: cached scan of sample %d diverges", workers, pass, i)
				}
			}
		}
		if st := d.CacheStats(); st.Hits < uint64(len(samples)) {
			t.Errorf("%d goroutines: warm pass recorded %d cache hits for %d sources", workers, st.Hits, len(samples))
		}
	}
}

// TestScanCacheChargesRetainedSource asserts the scan cache's byte budget
// counts what a cached entry keeps alive: the key's copy of the source
// plus the scanned source that the findings' snippets point into.
func TestScanCacheChargesRetainedSource(t *testing.T) {
	d := New(nil)
	reg := obs.NewRegistry()
	reg.Enable()
	d.SetObs(reg)
	head := "import hashlib\nh = hashlib.md5(x)\n"
	src := head + strings.Repeat("x = 1\n", (64<<10-len(head))/6)
	if len(d.Scan(src)) == 0 {
		t.Fatal("source should fire")
	}
	got := reg.Snapshot().Gauges[obs.MetricCacheBytes+`{cache="scan"}`]
	if got < float64(2*len(src)) {
		t.Errorf("scan cache charges %g bytes for a %d-byte source with findings, want >= %d",
			got, len(src), 2*len(src))
	}
}

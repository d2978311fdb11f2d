package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/dessertlab/patchitpy/internal/generator"
	"github.com/dessertlab/patchitpy/internal/prompts"
)

// TestCachedEquivalenceOverCorpus asserts the engine over a scan cache
// reproduces an uncached engine's Analyze and Fix outputs byte-for-byte
// over the full corpus, on both a cold and a warm cache.
func TestCachedEquivalenceOverCorpus(t *testing.T) {
	samples, err := generator.Corpus(prompts.All())
	if err != nil {
		t.Fatal(err)
	}
	cached := New()
	uncached := New()
	uncached.SetCacheBytes(0)
	for pass := 0; pass < 2; pass++ { // pass 0 cold, pass 1 warm
		for _, s := range samples {
			if got, want := cached.Analyze(s.Code), uncached.Analyze(s.Code); !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: Analyze diverges on %s/%s", pass, s.PromptID, s.Model)
			}
			if got, want := cached.Fix(s.Code), uncached.Fix(s.Code); !reflect.DeepEqual(got, want) {
				t.Fatalf("pass %d: Fix diverges on %s/%s", pass, s.PromptID, s.Model)
			}
		}
	}
	st := cached.CacheStats()
	if st.Scan.Hits == 0 {
		t.Errorf("warm pass recorded no hits: %+v", st)
	}
	if ust := uncached.CacheStats(); ust.Scan.Hits+ust.Scan.Misses != 0 {
		t.Errorf("disabled cache moved counters: %+v", ust)
	}
}

// TestCacheMutationFresh caches a source, mutates one byte, and asserts
// the engine computes a fresh result for the mutated text.
func TestCacheMutationFresh(t *testing.T) {
	p := New()
	src := "import pickle\nobj = pickle.loads(data)\n"
	before := p.Fix(src)
	if !before.Report.Vulnerable || !before.Result.Changed() {
		t.Fatal("seed source should be detected and patched")
	}
	// One byte: comment out nothing, just break the call name.
	mutated := strings.Replace(src, "loads", "lqads", 1)
	if len(mutated) != len(src) {
		t.Fatal("mutation changed length")
	}
	after := p.Fix(mutated)
	fresh := New()
	fresh.SetCacheBytes(0)
	if want := fresh.Fix(mutated); !reflect.DeepEqual(after, want) {
		t.Fatal("mutated source served a stale cached outcome")
	}
	if after.Report.Vulnerable {
		t.Errorf("mutated source still flagged: %v", after.Report.CWEs)
	}
}

// TestCachedResultIsolation: mutating a returned report must not corrupt
// what later callers receive.
func TestCachedResultIsolation(t *testing.T) {
	p := New()
	src := "import hashlib\nh = hashlib.md5(x)\n"
	first := p.Analyze(src)
	if len(first.Findings) == 0 {
		t.Fatal("no findings")
	}
	first.Findings[0] = first.Findings[len(first.Findings)-1]
	first.CWEs[0] = "CWE-000"
	second := p.Analyze(src)
	fresh := New()
	fresh.SetCacheBytes(0)
	if want := fresh.Analyze(src); !reflect.DeepEqual(second, want) {
		t.Fatal("caller mutation leaked into the cache")
	}
}

// TestConcurrentIdenticalRequests hammers one source from many goroutines
// — the singleflight path — and asserts every caller gets the same
// outcome. Run under -race this also proves the cache wiring is data-race
// free.
func TestConcurrentIdenticalRequests(t *testing.T) {
	p := New()
	src := "import subprocess\nsubprocess.run(cmd, shell=True)\n"
	want := p.Fix(src)
	const workers = 16
	outcomes := make([]FixOutcome, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outcomes[i] = p.Fix(src)
		}(i)
	}
	wg.Wait()
	for i := range outcomes {
		if !reflect.DeepEqual(outcomes[i], want) {
			t.Fatalf("worker %d outcome diverges", i)
		}
	}
}

// TestServeStatsVerb drives the session protocol: two identical detects
// then a stats request, which must report the hit.
func TestServeStatsVerb(t *testing.T) {
	p := New()
	var in bytes.Buffer
	req := `{"cmd":"detect","code":"obj = pickle.loads(data)\n"}`
	in.WriteString(req + "\n" + req + "\n" + `{"cmd":"stats"}` + "\n")
	var out bytes.Buffer
	if err := p.Serve(&in, &out); err != nil {
		t.Fatal(err)
	}
	scanner := bufio.NewScanner(&out)
	var responses []Response
	for scanner.Scan() {
		var r Response
		if err := json.Unmarshal(scanner.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		responses = append(responses, r)
	}
	if len(responses) != 3 {
		t.Fatalf("got %d responses", len(responses))
	}
	if !reflect.DeepEqual(responses[0].Findings, responses[1].Findings) {
		t.Error("identical detects answered differently")
	}
	st := responses[2].Stats
	if st == nil {
		t.Fatal("stats verb returned no stats")
	}
	if st.Scan.Hits != 1 || st.Scan.Misses != 1 {
		t.Errorf("scan counters = %+v, want 1 hit / 1 miss", st.Scan)
	}
	if st.Scan.HitRate != 0.5 {
		t.Errorf("hit rate = %f, want 0.5", st.Scan.HitRate)
	}
}

package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// testCorpus is a small corpus with the shapes of the real one.
func testCorpus() *Corpus {
	return &Corpus{Samples: []Sample{
		{Code: "import os\nos.system(cmd)\n"},
		{Code: "import hashlib\nh = hashlib.md5(data)\n"},
		{Code: "def f(x):\n    return x + 1\n"},
	}}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSeedDeterminesOps checks that a fixed seed yields a byte-identical
// op list for every workload, and another seed a different one.
func TestSeedDeterminesOps(t *testing.T) {
	c := testCorpus()
	d := 2 * time.Second
	lists := func(seed int64) [][]byte {
		return [][]byte{
			mustJSON(t, HotOps(c, seed, 500, d)),
			mustJSON(t, ColdOps(c, seed, 20, d)),
			mustJSON(t, EditSessions(c, seed, 2, 30, 20*time.Millisecond, d, 5)),
		}
	}
	a, b, other := lists(42), lists(42), lists(43)
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Errorf("list %d: same seed gave different ops", i)
		}
		if bytes.Equal(a[i], other[i]) {
			t.Errorf("list %d: different seeds gave the same ops", i)
		}
	}
}

func TestArrivals(t *testing.T) {
	ops := HotOps(testCorpus(), 1, 1000, 3*time.Second)
	if len(ops) != 3000 {
		t.Fatalf("%d ops, want rate x duration = 3000", len(ops))
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].Due < ops[i-1].Due {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
	}
	if last := ops[len(ops)-1].Due; last >= 3*time.Second || last < 2*time.Second {
		t.Errorf("last op due at %v, want within the last second of 3s", last)
	}
}

func TestColdOpsAreUniqueAndSized(t *testing.T) {
	c := testCorpus()
	ops := ColdOps(c, 5, 50, 2*time.Second)
	seen := map[string]bool{}
	for _, o := range ops {
		if seen[o.Code] {
			t.Fatalf("op %d repeats an earlier source", o.ID)
		}
		seen[o.Code] = true
		if !strings.HasPrefix(o.Code, c.Samples[o.Sample].Code) {
			t.Fatalf("op %d does not start with its sample", o.ID)
		}
		if n, want := len(o.Code), SizeBytes[o.Size]; n < want || n > want+512 {
			t.Errorf("op %d: %d bytes for size class %s", o.ID, n, SizeNames[o.Size])
		}
	}
	for _, w := range ColdWarmup(c, 10) {
		if seen[w.Code] {
			t.Fatal("warm-up op repeats a measured source")
		}
	}
}

// TestEditSessionsReplay checks that applying every edit's span to the
// opened buffer reproduces the text recorded for checked edits, and that
// each cycle ends with a checked edit before its close.
func TestEditSessionsReplay(t *testing.T) {
	sessions := EditSessions(testCorpus(), 9, 2, 25, 10*time.Millisecond, time.Second, 4)
	for s, ops := range sessions {
		cur := ""
		for k, e := range ops {
			switch e.Verb {
			case VerbOpen:
				cur = e.Code
			case VerbEdit:
				if offset(cur, e.StartLine, e.StartCol) != e.Start || offset(cur, e.EndLine, e.EndCol) != e.End {
					t.Fatalf("session %d op %d: line/column positions disagree with the byte span", s, k)
				}
				cur = cur[:e.Start] + e.Text + cur[e.End:]
				if e.Check && e.After != cur {
					t.Fatalf("session %d op %d: recorded text differs from the replayed buffer", s, k)
				}
			case VerbClose:
				if prev := ops[k-1]; prev.Verb == VerbEdit && !prev.Check {
					t.Errorf("session %d op %d: last edit before close is not checked", s, k)
				}
			}
			if k > 0 && e.Due <= ops[k-1].Due {
				t.Fatalf("session %d op %d: not after the previous op", s, k)
			}
		}
	}
}

// offset converts a 0-based (line, byte column) to a byte offset.
func offset(s string, line, col int) int {
	off := 0
	for i := 0; i < line; i++ {
		off += strings.IndexByte(s[off:], '\n') + 1
	}
	return off + col
}

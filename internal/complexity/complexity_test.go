package complexity

import (
	"testing"
	"testing/quick"
)

func scoreOf(t *testing.T, src, name string) int {
	t.Helper()
	blocks, err := Analyze(src)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, b := range blocks {
		if b.Name == name {
			return b.Score
		}
	}
	t.Fatalf("block %q not found in %+v", name, blocks)
	return 0
}

func TestStraightLineIsOne(t *testing.T) {
	src := "def f():\n    x = 1\n    y = 2\n    return x + y\n"
	if got := scoreOf(t, src, "f"); got != 1 {
		t.Errorf("score = %d, want 1", got)
	}
}

func TestIfAddsOne(t *testing.T) {
	src := "def f(x):\n    if x:\n        return 1\n    return 2\n"
	if got := scoreOf(t, src, "f"); got != 2 {
		t.Errorf("score = %d, want 2", got)
	}
}

func TestElifChain(t *testing.T) {
	// if + elif = 2 decision points; plain else adds none -> 3
	src := "def f(x):\n    if x > 2:\n        return 1\n    elif x > 1:\n        return 2\n    else:\n        return 3\n"
	if got := scoreOf(t, src, "f"); got != 3 {
		t.Errorf("score = %d, want 3", got)
	}
}

func TestLoopsAndHandlers(t *testing.T) {
	src := `def f(xs):
    total = 0
    for x in xs:
        while x > 0:
            x -= 1
    try:
        g()
    except ValueError:
        pass
    except KeyError:
        pass
    return total
`
	// 1 + for + while + 2 handlers = 5
	if got := scoreOf(t, src, "f"); got != 5 {
		t.Errorf("score = %d, want 5", got)
	}
}

func TestBoolOpsAndTernary(t *testing.T) {
	src := "def f(a, b, c):\n    ok = a and b and c\n    return 1 if ok else 2\n"
	// 1 + (3 values -> 2) + ternary = 4
	if got := scoreOf(t, src, "f"); got != 4 {
		t.Errorf("score = %d, want 4", got)
	}
}

func TestComprehension(t *testing.T) {
	src := "def f(xs):\n    return [x for x in xs if x > 0]\n"
	// 1 + comp-for + comp-if = 3
	if got := scoreOf(t, src, "f"); got != 3 {
		t.Errorf("score = %d, want 3", got)
	}
}

func TestAssertCounts(t *testing.T) {
	src := "def f(x):\n    assert x > 0\n    return x\n"
	if got := scoreOf(t, src, "f"); got != 2 {
		t.Errorf("score = %d, want 2", got)
	}
}

func TestNestedFunctionsScoredSeparately(t *testing.T) {
	src := `def outer(x):
    def inner(y):
        if y:
            return 1
        return 0
    if x:
        return inner(x)
    return 0
`
	if got := scoreOf(t, src, "outer"); got != 2 {
		t.Errorf("outer = %d, want 2", got)
	}
	if got := scoreOf(t, src, "inner"); got != 2 {
		t.Errorf("inner = %d, want 2", got)
	}
}

func TestModuleBlock(t *testing.T) {
	src := "x = 1\nif x:\n    y = 2\n"
	if got := scoreOf(t, src, "<module>"); got != 2 {
		t.Errorf("<module> = %d, want 2", got)
	}
}

func TestMethodsScored(t *testing.T) {
	src := "class C:\n    def m(self, x):\n        if x:\n            return 1\n        return 0\n"
	if got := scoreOf(t, src, "m"); got != 2 {
		t.Errorf("m = %d, want 2", got)
	}
}

func TestProgram(t *testing.T) {
	src := "def a():\n    return 1\n\ndef b(x):\n    if x:\n        return 1\n    return 0\n"
	// blocks: a=1, b=2, <module>=1 -> one plus the single decision point
	if got := Program(src); got != 2 {
		t.Errorf("Program = %v, want 2", got)
	}
}

func TestProgramUnparseable(t *testing.T) {
	if got := Program("def (broken"); got != 1 {
		t.Errorf("Program on broken source = %v, want 1", got)
	}
}

func TestSummarize(t *testing.T) {
	d := Summarize([]float64{1, 2, 3, 4, 5})
	if d.Mean != 3 || d.Median != 3 || d.Min != 1 || d.Max != 5 || d.N != 5 {
		t.Errorf("d = %+v", d)
	}
	if d.Q1 != 2 || d.Q3 != 4 || d.IQR != 2 {
		t.Errorf("quartiles = %+v", d)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	d := Summarize(nil)
	if d.N != 0 || d.Mean != 0 {
		t.Errorf("d = %+v", d)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	d := Summarize([]float64{2.5})
	if d.Mean != 2.5 || d.Median != 2.5 || d.IQR != 0 {
		t.Errorf("d = %+v", d)
	}
}

// Property: every block score is >= 1, and adding an if statement never
// decreases the module score.
func TestScoresAtLeastOne(t *testing.T) {
	f := func(src string) bool {
		blocks, err := Analyze(src)
		if err != nil {
			return true
		}
		for _, b := range blocks {
			if b.Score < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPercentileInterpolation(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	if got := percentile(sorted, 0.5); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := percentile(sorted, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := percentile(sorted, 1); got != 4 {
		t.Errorf("p100 = %v", got)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	src := `def handler(request):
    uid = request.args.get("id", "")
    if not uid:
        return "missing", 400
    rows = []
    for r in query(uid):
        if r.active and r.verified:
            rows.append(r)
    try:
        return render(rows)
    except TemplateError:
        return "error", 500
`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(src); err != nil {
			b.Fatal(err)
		}
	}
}

package pyast

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// walkNames parses src, fails the test on any recovered parse error, and
// returns every Name identifier visited by Walk in visit order.
func walkNames(t *testing.T, src string) []string {
	t.Helper()
	m := MustParse(src)
	if len(m.Errors) > 0 {
		t.Fatalf("parse %q: recovered errors %v", src, m.Errors)
	}
	var ids []string
	Walk(m, func(n Node) bool {
		if nm, ok := n.(*Name); ok {
			ids = append(ids, nm.ID)
		}
		return true
	})
	return ids
}

// TestWalrusContexts locks in the parser fix for walrus ":=" targets inside
// display and subscript contexts. Before the fix, list/set/tuple displays and
// subscripts rejected ":=" with a recovered BadStmt, which made the CFG
// builder lose the binding entirely.
func TestWalrusContexts(t *testing.T) {
	cases := []struct {
		src   string
		names []string
	}{
		{"lst = [y := f(x)]\n", []string{"lst", "y", "f", "x"}},
		{"s = {y := f(x)}\n", []string{"s", "y", "f", "x"}},
		{"t = (y := 1, z := 2)\n", []string{"t", "y", "z"}},
		{"i = arr[j := 0]\n", []string{"i", "arr", "j"}},
		{"r = f(y := g(x))\n", []string{"r", "f", "y", "g", "x"}},
		{"while chunk := rd():\n    pass\n", []string{"chunk", "rd"}},
		{"if (m := fetch(q)) > lo:\n    pass\n", []string{"m", "fetch", "q", "lo"}},
	}
	for _, tc := range cases {
		got := walkNames(t, tc.src)
		if !reflect.DeepEqual(got, tc.names) {
			t.Errorf("%q: Walk names = %v, want %v", tc.src, got, tc.names)
		}
	}
}

// TestWalrusBindsAsBinOp asserts the shape the taint engine relies on: a
// walrus expression is a BinOp with Op ":=" and a Name target, wherever it
// appears.
func TestWalrusBindsAsBinOp(t *testing.T) {
	for _, src := range []string{
		"lst = [y := f(x)]\n",
		"i = arr[y := 0]\n",
		"s = {y := f(x)}\n",
	} {
		m := MustParse(src)
		found := false
		Walk(m, func(n Node) bool {
			if b, ok := n.(*BinOp); ok && b.Op == ":=" {
				if nm, ok := b.Left.(*Name); !ok || nm.ID != "y" {
					t.Errorf("%q: walrus target = %#v, want Name y", src, b.Left)
				}
				found = true
			}
			return true
		})
		if !found {
			t.Errorf("%q: no walrus BinOp in tree", src)
		}
	}
}

// TestChainedComparison asserts chained comparisons keep every operand as a
// visited child (one Compare node, n ops, n comparators).
func TestChainedComparison(t *testing.T) {
	m := MustParse("v = x < y <= z != w\n")
	if len(m.Errors) > 0 {
		t.Fatalf("recovered errors: %v", m.Errors)
	}
	var cmp *Compare
	Walk(m, func(n Node) bool {
		if c, ok := n.(*Compare); ok {
			cmp = c
		}
		return true
	})
	if cmp == nil {
		t.Fatal("no Compare node")
	}
	if want := []string{"<", "<=", "!="}; !reflect.DeepEqual(cmp.Ops, want) {
		t.Errorf("Ops = %v, want %v", cmp.Ops, want)
	}
	if len(cmp.Comparators) != 3 {
		t.Errorf("Comparators = %d, want 3", len(cmp.Comparators))
	}
	got := walkNames(t, "v = x < y <= z != w\n")
	if want := []string{"v", "x", "y", "z", "w"}; !reflect.DeepEqual(got, want) {
		t.Errorf("names = %v, want %v", got, want)
	}
}

// TestWalkVisitsEveryChild is a completeness check over the constructs the
// CFG builder traverses: for each snippet, every identifier in the source
// must surface as a walked Name node (or a declared binder such as a
// function/class name or parameter). Guards against Walk silently skipping a
// child slot of ternary/comprehension/lambda nodes.
func TestWalkVisitsEveryChild(t *testing.T) {
	cases := []struct {
		src  string
		want []string // sorted unique identifiers expected via Walk Names
	}{
		{"x = a if b else c\n", []string{"a", "b", "c", "x"}},
		{"f = lambda p, q=dflt: p + q\n", []string{"dflt", "f", "p", "q"}},
		{"ys = [elt for it in src if cond]\n", []string{"cond", "elt", "it", "src", "ys"}},
		{"d = {k: v for k, v in pairs}\n", []string{"d", "k", "pairs", "v"}},
		{"g = (n := compute())\n", []string{"compute", "g", "n"}},
		{"a = b[lo:hi:st]\n", []string{"a", "b", "hi", "lo", "st"}},
		{"zs = [x for x in xs if (y := f(x))]\n", []string{"f", "x", "xs", "y", "zs"}},
		{"cond = a < (b := c) < d\n", []string{"a", "b", "c", "cond", "d"}},
	}
	for _, tc := range cases {
		got := walkNames(t, tc.src)
		uniq := map[string]bool{}
		for _, id := range got {
			uniq[id] = true
		}
		var sorted []string
		for id := range uniq {
			sorted = append(sorted, id)
		}
		sort.Strings(sorted)
		if !reflect.DeepEqual(sorted, tc.want) {
			t.Errorf("%q: walked identifiers %v, want %v", tc.src, sorted, tc.want)
		}
	}
}

// TestNestingBound: brackets nested up to CPython's limit parse, one level
// more is a recovered syntax error, and 100k levels end in that error
// instead of a goroutine stack overflow, with the next statement parsed.
func TestNestingBound(t *testing.T) {
	nest := func(open, inner, shut string, n int) string {
		return "x = " + strings.Repeat(open, n) + inner + strings.Repeat(shut, n) + "\n"
	}
	shapes := []struct{ open, inner, shut string }{
		{"(", "1", ")"},
		{"[", "1", "]"},
		{"{", "1", "}"},
		{"f(", "", ")"},
		{"a[", "0", "]"},
	}
	for _, sh := range shapes {
		if m := MustParse(nest(sh.open, sh.inner, sh.shut, maxNesting)); len(m.Errors) != 0 {
			t.Errorf("%q nested %d deep: %v", sh.open, maxNesting, m.Errors)
		}
		m := MustParse(nest(sh.open, sh.inner, sh.shut, maxNesting+1))
		if len(m.Errors) != 1 || !strings.Contains(m.Errors[0].Msg, "too many nested brackets") {
			t.Errorf("%q nested %d deep: errors %v, want one nesting error", sh.open, maxNesting+1, m.Errors)
		}
	}

	m := MustParse(nest("(", "1", ")", 100000) + "y = 2\n")
	if len(m.Errors) != 1 || !strings.Contains(m.Errors[0].Msg, "too many nested brackets") {
		t.Fatalf("errors %v, want one nesting error", m.Errors)
	}
	if len(m.Body) != 2 {
		t.Fatalf("body has %d statements, want 2", len(m.Body))
	}
	if _, ok := m.Body[0].(*BadStmt); !ok {
		t.Errorf("first statement = %T, want *BadStmt", m.Body[0])
	}
	if a, ok := m.Body[1].(*Assign); !ok || a.Targets[0].(*Name).ID != "y" {
		t.Errorf("second statement = %#v, want y = 2", m.Body[1])
	}
}

// TestChainBound: each right-recursive production chained up to maxChain
// deep parses, one level more is a recovered syntax error, and 2 million
// unary minus signs end in that error instead of a goroutine stack
// overflow, with the next statement parsed.
func TestChainBound(t *testing.T) {
	chains := []struct {
		name string
		src  func(n int) string
	}{
		{"unary", func(n int) string { return "x = " + strings.Repeat("-", n) + "1\n" }},
		{"not", func(n int) string { return "x = " + strings.Repeat("not ", n) + "a\n" }},
		{"await", func(n int) string { return "x = " + strings.Repeat("await ", n) + "a\n" }},
		{"power", func(n int) string { return "x = " + strings.Repeat("a ** ", n) + "a\n" }},
		{"else", func(n int) string { return "x = " + strings.Repeat("a if b else ", n) + "c\n" }},
		{"lambda", func(n int) string { return "x = " + strings.Repeat("lambda: ", n) + "a\n" }},
		{"yield", func(n int) string { return "x = " + strings.Repeat("yield ", n) + "a\n" }},
		{"elif", func(n int) string { return "if a:\n    pass\n" + strings.Repeat("elif a:\n    pass\n", n) }},
		{"star", func(n int) string { return "for " + strings.Repeat("* ", n) + "a in b:\n    pass\n" }},
	}
	for _, c := range chains {
		if m := MustParse(c.src(maxChain)); len(m.Errors) != 0 {
			t.Errorf("%s chained %d deep: %v", c.name, maxChain, m.Errors)
		}
		m := MustParse(c.src(maxChain + 1))
		if len(m.Errors) != 1 || !strings.Contains(m.Errors[0].Msg, "nested too deeply") {
			t.Errorf("%s chained %d deep: errors %v, want one chain error", c.name, maxChain+1, m.Errors)
		}
	}

	m := MustParse("x = " + strings.Repeat("-", 2_000_000) + "1\ny = 2\n")
	if len(m.Errors) != 1 || !strings.Contains(m.Errors[0].Msg, "nested too deeply") {
		t.Fatalf("errors %v, want one chain error", m.Errors)
	}
	if len(m.Body) != 2 {
		t.Fatalf("body has %d statements, want 2", len(m.Body))
	}
	if _, ok := m.Body[0].(*BadStmt); !ok {
		t.Errorf("first statement = %T, want *BadStmt", m.Body[0])
	}
	if a, ok := m.Body[1].(*Assign); !ok || a.Targets[0].(*Name).ID != "y" {
		t.Errorf("second statement = %#v, want y = 2", m.Body[1])
	}
}

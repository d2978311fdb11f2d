package pyast

import (
	"strings"
	"testing"
	"testing/quick"
)

func parseClean(t *testing.T, src string) *Module {
	t.Helper()
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(m.Errors) > 0 {
		t.Fatalf("unexpected recovered errors: %v", m.Errors)
	}
	return m
}

// MustParse parses src, folding a tokenizer failure into the module's
// recovered errors, so a test can inspect every failure in one place.
func MustParse(src string) *Module {
	m, err := Parse(src)
	if err != nil {
		return &Module{Errors: []*ParseError{{Msg: err.Error()}}}
	}
	return m
}

func TestParseAssignment(t *testing.T) {
	m := parseClean(t, "x = 1\n")
	if len(m.Body) != 1 {
		t.Fatalf("body len %d", len(m.Body))
	}
	as, ok := m.Body[0].(*Assign)
	if !ok {
		t.Fatalf("got %T, want *Assign", m.Body[0])
	}
	if n, ok := as.Targets[0].(*Name); !ok || n.ID != "x" {
		t.Errorf("target = %v", as.Targets[0])
	}
	if v, ok := as.Value.(*NumberLit); !ok || v.Text != "1" {
		t.Errorf("value = %v", as.Value)
	}
}

func TestParseChainedAssignment(t *testing.T) {
	m := parseClean(t, "a = b = 2\n")
	as := m.Body[0].(*Assign)
	if len(as.Targets) != 2 {
		t.Fatalf("targets = %d, want 2", len(as.Targets))
	}
}

func TestParseAugAndAnnAssign(t *testing.T) {
	m := parseClean(t, "x += 1\ny: int = 2\nz: str\n")
	if _, ok := m.Body[0].(*AugAssign); !ok {
		t.Errorf("stmt 0: %T", m.Body[0])
	}
	ann, ok := m.Body[1].(*AnnAssign)
	if !ok || ann.Value == nil {
		t.Errorf("stmt 1: %T", m.Body[1])
	}
	ann2, ok := m.Body[2].(*AnnAssign)
	if !ok || ann2.Value != nil {
		t.Errorf("stmt 2: %T", m.Body[2])
	}
}

func TestParseImports(t *testing.T) {
	src := "import os\nimport os.path as p, sys\nfrom flask import Flask, request\nfrom . import sibling\nfrom ..pkg import mod as m\nfrom typing import *\n"
	m := parseClean(t, src)
	im := m.Body[0].(*Import)
	if im.Names[0].Name != "os" {
		t.Errorf("import 0: %+v", im.Names)
	}
	im2 := m.Body[1].(*Import)
	if im2.Names[0].Name != "os.path" || im2.Names[0].AsName != "p" || im2.Names[1].Name != "sys" {
		t.Errorf("import 1: %+v", im2.Names)
	}
	fr := m.Body[2].(*ImportFrom)
	if fr.Module != "flask" || len(fr.Names) != 2 {
		t.Errorf("from: %+v", fr)
	}
	rel := m.Body[3].(*ImportFrom)
	if rel.Level != 1 || rel.Module != "" {
		t.Errorf("relative: %+v", rel)
	}
	rel2 := m.Body[4].(*ImportFrom)
	if rel2.Level != 2 || rel2.Module != "pkg" || rel2.Names[0].AsName != "m" {
		t.Errorf("relative 2: %+v", rel2)
	}
	star := m.Body[5].(*ImportFrom)
	if !star.Star {
		t.Errorf("star import: %+v", star)
	}
}

func TestParseFunctionDef(t *testing.T) {
	src := `def greet(name, greeting="hello", *args, **kwargs) -> str:
    return f"{greeting}, {name}"
`
	m := parseClean(t, src)
	fd := m.Body[0].(*FunctionDef)
	if fd.Name != "greet" || len(fd.Params) != 4 {
		t.Fatalf("fd = %+v", fd)
	}
	if fd.Params[1].Default == nil {
		t.Error("greeting should have default")
	}
	if !fd.Params[2].Star || !fd.Params[3].DoubleStar {
		t.Error("star params not recognized")
	}
	if fd.Returns == nil {
		t.Error("missing return annotation")
	}
	if _, ok := fd.Body[0].(*Return); !ok {
		t.Errorf("body[0] = %T", fd.Body[0])
	}
}

func TestParseDecoratedFunction(t *testing.T) {
	src := "@app.route(\"/users\", methods=[\"GET\", \"POST\"])\n@login_required\ndef users():\n    pass\n"
	m := parseClean(t, src)
	fd := m.Body[0].(*FunctionDef)
	if len(fd.Decorators) != 2 {
		t.Fatalf("decorators = %d", len(fd.Decorators))
	}
	call, ok := fd.Decorators[0].(*Call)
	if !ok {
		t.Fatalf("decorator 0 = %T", fd.Decorators[0])
	}
	if CallName(call) != "app.route" {
		t.Errorf("decorator call = %q", CallName(call))
	}
	if len(call.Keywords) != 1 || call.Keywords[0].Name != "methods" {
		t.Errorf("keywords = %+v", call.Keywords)
	}
}

func TestParseClassDef(t *testing.T) {
	src := "class User(Base, metaclass=Meta):\n    def __init__(self):\n        self.name = \"\"\n"
	m := parseClean(t, src)
	cd := m.Body[0].(*ClassDef)
	if cd.Name != "User" || len(cd.Bases) != 1 || len(cd.Keywords) != 1 {
		t.Fatalf("cd = %+v", cd)
	}
	if len(cd.Body) != 1 {
		t.Fatalf("class body = %d", len(cd.Body))
	}
}

func TestParseIfElifElse(t *testing.T) {
	src := "if a:\n    x = 1\nelif b:\n    x = 2\nelse:\n    x = 3\n"
	m := parseClean(t, src)
	ifs := m.Body[0].(*If)
	if len(ifs.Orelse) != 1 {
		t.Fatalf("orelse = %d", len(ifs.Orelse))
	}
	nested, ok := ifs.Orelse[0].(*If)
	if !ok {
		t.Fatalf("elif not nested: %T", ifs.Orelse[0])
	}
	if len(nested.Orelse) != 1 {
		t.Errorf("else missing: %+v", nested)
	}
}

func TestParseLoops(t *testing.T) {
	src := "for k, v in items.items():\n    print(k)\nelse:\n    done()\nwhile x < 10:\n    x += 1\n"
	m := parseClean(t, src)
	f := m.Body[0].(*For)
	if _, ok := f.Target.(*Tuple); !ok {
		t.Errorf("for target = %T", f.Target)
	}
	if len(f.Orelse) != 1 {
		t.Errorf("for-else missing")
	}
	w := m.Body[1].(*While)
	if _, ok := w.Cond.(*Compare); !ok {
		t.Errorf("while cond = %T", w.Cond)
	}
}

func TestParseTryExcept(t *testing.T) {
	src := `try:
    risky()
except ValueError as e:
    handle(e)
except (TypeError, KeyError):
    pass
except:
    bare()
else:
    ok()
finally:
    cleanup()
`
	m := parseClean(t, src)
	tr := m.Body[0].(*Try)
	if len(tr.Handlers) != 3 {
		t.Fatalf("handlers = %d", len(tr.Handlers))
	}
	if tr.Handlers[0].Name != "e" {
		t.Errorf("handler 0 name = %q", tr.Handlers[0].Name)
	}
	if tr.Handlers[2].Type != nil {
		t.Errorf("bare except should have nil type")
	}
	if len(tr.Orelse) != 1 || len(tr.Finally) != 1 {
		t.Errorf("else/finally missing")
	}
}

func TestParseWith(t *testing.T) {
	src := "with open(\"f\") as fh, lock:\n    data = fh.read()\n"
	m := parseClean(t, src)
	w := m.Body[0].(*With)
	if len(w.Items) != 2 {
		t.Fatalf("items = %d", len(w.Items))
	}
	if w.Items[0].Target == nil || w.Items[1].Target != nil {
		t.Errorf("as-targets wrong: %+v", w.Items)
	}
}

func TestParseCallShapes(t *testing.T) {
	src := "r = requests.get(url, timeout=5, verify=False)\nsubprocess.run(cmd, shell=True)\nf(*args, **kwargs)\n"
	m := parseClean(t, src)
	as := m.Body[0].(*Assign)
	call := as.Value.(*Call)
	if CallName(call) != "requests.get" {
		t.Errorf("call name = %q", CallName(call))
	}
	if v := KeywordArg(call, "verify"); v == nil || !IsConst(v, "False") {
		t.Errorf("verify kwarg = %v", v)
	}
	run := m.Body[1].(*ExprStmt).Value.(*Call)
	if v := KeywordArg(run, "shell"); v == nil || !IsConst(v, "True") {
		t.Errorf("shell kwarg = %v", v)
	}
	fcall := m.Body[2].(*ExprStmt).Value.(*Call)
	if len(fcall.Args) != 1 || len(fcall.Keywords) != 1 {
		t.Errorf("star args: %+v", fcall)
	}
	if _, ok := fcall.Args[0].(*Starred); !ok {
		t.Errorf("arg 0 = %T", fcall.Args[0])
	}
}

func TestParseExpressions(t *testing.T) {
	src := "x = a + b * c ** 2 - -d\nok = a and b or not c\ny = 1 if cond else 2\nz = lambda a, b=2: a + b\nw = a < b <= c\nv = x is not None and y not in xs\n"
	m := parseClean(t, src)
	if _, ok := m.Body[0].(*Assign).Value.(*BinOp); !ok {
		t.Errorf("arith: %T", m.Body[0].(*Assign).Value)
	}
	if bo, ok := m.Body[1].(*Assign).Value.(*BoolOp); !ok || bo.Op != "or" {
		t.Errorf("boolop: %v", m.Body[1].(*Assign).Value)
	}
	if _, ok := m.Body[2].(*Assign).Value.(*IfExp); !ok {
		t.Errorf("ifexp: %T", m.Body[2].(*Assign).Value)
	}
	if lam, ok := m.Body[3].(*Assign).Value.(*Lambda); !ok || len(lam.Params) != 2 {
		t.Errorf("lambda: %v", m.Body[3].(*Assign).Value)
	}
	cmp, ok := m.Body[4].(*Assign).Value.(*Compare)
	if !ok || len(cmp.Ops) != 2 {
		t.Errorf("chained compare: %v", m.Body[4].(*Assign).Value)
	}
	v := m.Body[5].(*Assign).Value.(*BoolOp)
	left := v.Values[0].(*Compare)
	if left.Ops[0] != "is not" {
		t.Errorf("is not: %v", left.Ops)
	}
	right := v.Values[1].(*Compare)
	if right.Ops[0] != "not in" {
		t.Errorf("not in: %v", right.Ops)
	}
}

func TestParseContainers(t *testing.T) {
	src := "a = [1, 2, 3]\nb = (1,)\nc = {1: 'x', **extra}\nd = {1, 2}\ne = []\nf = {}\ng = ()\n"
	m := parseClean(t, src)
	if l := m.Body[0].(*Assign).Value.(*List); len(l.Elts) != 3 {
		t.Errorf("list: %v", l)
	}
	if tu := m.Body[1].(*Assign).Value.(*Tuple); len(tu.Elts) != 1 {
		t.Errorf("tuple: %v", tu)
	}
	d := m.Body[2].(*Assign).Value.(*Dict)
	if len(d.Keys) != 2 || d.Keys[1] != nil {
		t.Errorf("dict with **: %v", d)
	}
	if s := m.Body[3].(*Assign).Value.(*Set); len(s.Elts) != 2 {
		t.Errorf("set: %v", s)
	}
	if _, ok := m.Body[4].(*Assign).Value.(*List); !ok {
		t.Errorf("empty list")
	}
	if _, ok := m.Body[5].(*Assign).Value.(*Dict); !ok {
		t.Errorf("empty dict")
	}
	if _, ok := m.Body[6].(*Assign).Value.(*Tuple); !ok {
		t.Errorf("empty tuple")
	}
}

func TestParseComprehensions(t *testing.T) {
	src := "a = [x*2 for x in xs if x > 0]\nb = {k: v for k, v in d.items()}\nc = {x for x in xs}\ng = sum(x for x in xs)\n"
	m := parseClean(t, src)
	lc := m.Body[0].(*Assign).Value.(*Comp)
	if lc.Kind != "list" || len(lc.Generators) != 1 || len(lc.Generators[0].Ifs) != 1 {
		t.Errorf("listcomp: %+v", lc)
	}
	dc := m.Body[1].(*Assign).Value.(*Comp)
	if dc.Kind != "dict" || dc.Value == nil {
		t.Errorf("dictcomp: %+v", dc)
	}
	sc := m.Body[2].(*Assign).Value.(*Comp)
	if sc.Kind != "set" {
		t.Errorf("setcomp: %+v", sc)
	}
	call := m.Body[3].(*Assign).Value.(*Call)
	if _, ok := call.Args[0].(*Comp); !ok {
		t.Errorf("genexp arg: %T", call.Args[0])
	}
}

func TestParseSubscriptsAndSlices(t *testing.T) {
	src := "a = xs[0]\nb = xs[1:5]\nc = xs[::2]\nd = m['key']\ne = grid[i][j]\n"
	m := parseClean(t, src)
	if _, ok := m.Body[0].(*Assign).Value.(*Subscript); !ok {
		t.Errorf("subscript")
	}
	sl := m.Body[1].(*Assign).Value.(*Subscript).Index.(*Slice)
	if sl.Lower == nil || sl.Upper == nil {
		t.Errorf("slice: %+v", sl)
	}
	sl2 := m.Body[2].(*Assign).Value.(*Subscript).Index.(*Slice)
	if sl2.Step == nil {
		t.Errorf("step slice: %+v", sl2)
	}
}

func TestParseStringConcatAndFString(t *testing.T) {
	src := "s = 'a' 'b' \"c\"\nt = f\"hello {name}!\"\n"
	m := parseClean(t, src)
	sl := m.Body[0].(*Assign).Value.(*StringLit)
	if sl.Raw != `'a' 'b' "c"` && sl.Raw != `'a''b'"c"` {
		t.Errorf("concat raw = %q", sl.Raw)
	}
	fs := m.Body[1].(*Assign).Value.(*StringLit)
	if !fs.FString {
		t.Error("f-string flag missing")
	}
}

func TestUnquote(t *testing.T) {
	cases := map[string]string{
		`'abc'`:       "abc",
		`"abc"`:       "abc",
		`'''abc'''`:   "abc",
		`"""a"b"""`:   `a"b`,
		`r'a\nb'`:     `a\nb`,
		`'a\nb'`:      "a\nb",
		`b'bytes'`:    "bytes",
		`f"hi {x}"`:   "hi {x}",
		`'esc\'d'`:    "esc'd",
		`'tab\there'`: "tab\there",
		`'unk\qesc'`:  `unk\qesc`,
	}
	for in, want := range cases {
		if got := Unquote(in); got != want {
			t.Errorf("Unquote(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseGlobalNonlocalDel(t *testing.T) {
	src := "global a, b\ndef f():\n    nonlocal c\n    del d, e[0]\n"
	m := parseClean(t, src)
	g := m.Body[0].(*Global)
	if len(g.Names) != 2 {
		t.Errorf("global: %v", g.Names)
	}
	fd := m.Body[1].(*FunctionDef)
	if _, ok := fd.Body[0].(*Nonlocal); !ok {
		t.Errorf("nonlocal: %T", fd.Body[0])
	}
	del := fd.Body[1].(*Del)
	if len(del.Targets) != 2 {
		t.Errorf("del: %v", del.Targets)
	}
}

func TestParseSemicolons(t *testing.T) {
	m := parseClean(t, "x = 1; y = 2; z = 3\n")
	if len(m.Body) != 3 {
		t.Fatalf("body = %d, want 3", len(m.Body))
	}
}

func TestParseInlineSuite(t *testing.T) {
	m := parseClean(t, "if x: y = 1\n")
	ifs := m.Body[0].(*If)
	if len(ifs.Body) != 1 {
		t.Fatalf("inline body = %d", len(ifs.Body))
	}
}

func TestParseAsyncDef(t *testing.T) {
	src := "async def fetch(url):\n    async with session.get(url) as r:\n        return await r.json()\n"
	m := parseClean(t, src)
	fd := m.Body[0].(*FunctionDef)
	if !fd.Async {
		t.Error("async flag missing")
	}
	w := fd.Body[0].(*With)
	if !w.Async {
		t.Error("async with flag missing")
	}
	ret := w.Body[0].(*Return)
	if _, ok := ret.Value.(*Await); !ok {
		t.Errorf("await: %T", ret.Value)
	}
}

func TestParseWalrus(t *testing.T) {
	src := "if (n := len(xs)) > 10:\n    pass\nwhile chunk := f.read():\n    pass\n"
	m := parseClean(t, src)
	ifs := m.Body[0].(*If)
	cmp := ifs.Cond.(*Compare)
	if bo, ok := cmp.Left.(*BinOp); !ok || bo.Op != ":=" {
		t.Errorf("walrus in if: %T", cmp.Left)
	}
	wh := m.Body[1].(*While)
	if bo, ok := wh.Cond.(*BinOp); !ok || bo.Op != ":=" {
		t.Errorf("walrus in while: %T", wh.Cond)
	}
}

func TestParseErrorRecovery(t *testing.T) {
	// Note the closed paren: an unclosed one would implicitly join the
	// next line, swallowing "y = 2" into the bad statement (as CPython's
	// tokenizer does too).
	src := "x = 1\ndef broken(:)\ny = 2\n"
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse should recover, got %v", err)
	}
	if len(m.Errors) == 0 {
		t.Fatal("expected recorded errors")
	}
	var goodAssigns int
	for _, s := range m.Body {
		if _, ok := s.(*Assign); ok {
			goodAssigns++
		}
	}
	if goodAssigns != 2 {
		t.Errorf("recovered assigns = %d, want 2 (x and y)", goodAssigns)
	}
}

func TestParseTruncatedSnippet(t *testing.T) {
	// AI generators frequently emit code cut mid-function; the parser must
	// produce a usable tree anyway.
	src := "def handler(request):\n    data = request.get_json()\n    query = \"SELECT * FROM users WHERE id = \" + data[\"id\"]\n    cursor.execute("
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(Functions(m)) != 1 {
		t.Errorf("functions = %d", len(Functions(m)))
	}
}

func TestWalkAndHelpers(t *testing.T) {
	src := `import hashlib
from flask import Flask

def f(x):
    h = hashlib.md5(x).hexdigest()
    return h
`
	m := parseClean(t, src)
	calls := Calls(m)
	var names []string
	for _, c := range calls {
		names = append(names, CallName(c))
	}
	joined := strings.Join(names, ",")
	if !strings.Contains(joined, "hashlib.md5") {
		t.Errorf("calls = %v", names)
	}
	mods := ImportedModules(m)
	if !mods["hashlib"] || !mods["flask"] {
		t.Errorf("imports = %v", mods)
	}
	var count int
	Walk(m, func(Node) bool { count++; return true })
	if count < 10 {
		t.Errorf("walk visited only %d nodes", count)
	}
}

func TestDottedName(t *testing.T) {
	m := parseClean(t, "x = a.b.c.d\ny = f().g\n")
	attr := m.Body[0].(*Assign).Value
	if DottedName(attr) != "a.b.c.d" {
		t.Errorf("dotted = %q", DottedName(attr))
	}
	mixed := m.Body[1].(*Assign).Value
	if DottedName(mixed) != "" {
		t.Errorf("call-rooted attr should give empty, got %q", DottedName(mixed))
	}
}

func TestParserNeverPanics(t *testing.T) {
	f := func(src string) bool {
		m, err := Parse(src)
		return err != nil || m != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestParserNeverPanicsOnPythonLike(t *testing.T) {
	fragments := []string{
		"def f(", "class C", "if x", "import", "from x import",
		"x = [1, 2", "try:\n  pass", "lambda", "@", "return return",
		"x = {", "f(a=", "for in:", "with as:", "x ** = 1",
		"async", "await", "yield from", "del", "raise from x",
	}
	for _, frag := range fragments {
		for _, suffix := range []string{"", "\n", "\n    pass\n", ")\n"} {
			src := frag + suffix
			m, err := Parse(src)
			if err == nil && m == nil {
				t.Errorf("%q: nil module without error", src)
			}
		}
	}
}

func BenchmarkParseRealistic(b *testing.B) {
	src := strings.Repeat(`from flask import Flask, request
import sqlite3

app = Flask(__name__)

@app.route("/user")
def get_user():
    uid = request.args.get("id", "")
    conn = sqlite3.connect("app.db")
    cur = conn.cursor()
    cur.execute("SELECT * FROM users WHERE id = " + uid)
    rows = cur.fetchall()
    return {"users": [dict(r) for r in rows]}

if __name__ == "__main__":
    app.run(debug=True)
`, 10)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

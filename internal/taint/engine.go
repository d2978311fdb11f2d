package taint

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dessertlab/patchitpy/internal/pyast"
)

// maxPasses bounds the fixpoint iteration as a backstop; the lattice is
// finite so convergence is guaranteed far earlier.
const maxPasses = 64

// SinkArg classifies one gated argument of a sink call.
type SinkArg struct {
	Index int    `json:"index"`
	Prov  string `json:"prov"` // "const" | "unknown" | "tainted"
	Steps []Step `json:"steps,omitempty"`
	prov  Prov
}

// SinkHit is one classified sink call site.
type SinkHit struct {
	Kind   string    `json:"kind"`
	Callee string    `json:"callee"`
	Line   int       `json:"line"`
	Func   string    `json:"func,omitempty"` // enclosing function; "" at module level
	Args   []SinkArg `json:"args"`
}

// Tainted reports whether any gated argument may carry source data.
func (h *SinkHit) Tainted() (SinkArg, bool) {
	for _, a := range h.Args {
		if a.prov == Tainted {
			return a, true
		}
	}
	return SinkArg{}, false
}

// Stats summarizes the analysis for observability and tests.
type Stats struct {
	Functions int
	Blocks    int
	BackEdges int
	Passes    int
	Degraded  bool // tokenizer failure: no analysis ran
}

// Analysis is the per-source result: every classified sink call site.
type Analysis struct {
	Sinks []SinkHit
	Stats Stats
}

// Analyze parses src and runs the taint analysis with the default spec.
// It never fails: on tokenizer errors it returns a degraded (empty)
// analysis, and recovered statement errors conservatively poison the
// affected scopes via BadStmt handling.
func Analyze(src string) *Analysis {
	m, err := pyast.Parse(src)
	if err != nil {
		return &Analysis{Stats: Stats{Degraded: true}}
	}
	return AnalyzeModule(m, defaultSpec)
}

// defaultSpec is the shipped spec shared by every Analyze call. The
// engine only reads its spec, so one value serves all callers; DefaultSpec
// still hands out fresh copies for callers that extend it.
var defaultSpec = DefaultSpec()

// AnalyzeWith is Analyze with a custom spec.
func AnalyzeWith(src string, spec *Spec) *Analysis {
	m, err := pyast.Parse(src)
	if err != nil {
		return &Analysis{Stats: Stats{Degraded: true}}
	}
	return AnalyzeModule(m, spec)
}

// AnalyzeModule runs the analysis over a parsed module with a custom spec.
func AnalyzeModule(m *pyast.Module, spec *Spec) *Analysis {
	eng := newEngine(m, spec)
	return eng.run()
}

// Verdict looks up the provenance of argument arg of a sink call of the
// given kind on the given line. ok is false when no such sink call was
// seen (no claim can be made). When several same-kind sinks share a line,
// the join of their verdicts is returned so a suppression needs every one
// of them proven Const.
func (a *Analysis) Verdict(line int, kind string, arg int) (Prov, bool) {
	found := false
	verdict := Const
	for i := range a.Sinks {
		h := &a.Sinks[i]
		if h.Line != line || h.Kind != kind {
			continue
		}
		p := Unknown // absent argument: nothing provable
		for _, sa := range h.Args {
			if sa.Index == arg {
				p = sa.prov
				break
			}
		}
		if !found {
			found = true
			verdict = p
		} else {
			verdict = joinProv(verdict, p)
		}
	}
	return verdict, found
}

// TaintedSinks returns hits with at least one tainted gated argument, in
// source order.
func (a *Analysis) TaintedSinks() []SinkHit {
	var out []SinkHit
	for _, h := range a.Sinks {
		if _, ok := h.Tainted(); ok {
			out = append(out, h)
		}
	}
	return out
}

// Suppressions counts sink arguments proven Const, a coarse gauge of how
// much the precision filter can act on this source.
func (a *Analysis) Suppressions() int {
	n := 0
	for _, h := range a.Sinks {
		for _, sa := range h.Args {
			if sa.prov == Const {
				n++
			}
		}
	}
	return n
}

// ---- engine ----

type engine struct {
	spec    *Spec
	aliases map[string]string // local name -> full dotted path (imports)

	srcCalls []string // call-mode source patterns
	srcObjs  []string // object-mode source patterns
	taintPar bool     // a param-mode source is present

	globalJoin     Env             // join of every module-level binding of each name
	writtenGlobals map[string]bool // names any function declares global and assigns

	sinks        []SinkHit
	stats        Stats
	module       *pyast.Module
	fstringCache map[*pyast.StringLit][]pyast.Expr
}

func newEngine(m *pyast.Module, spec *Spec) *engine {
	eng := &engine{
		spec:           spec,
		aliases:        map[string]string{},
		globalJoin:     Env{},
		writtenGlobals: map[string]bool{},
		module:         m,
	}
	for _, s := range spec.Sources {
		switch s.Mode {
		case ModeCall:
			eng.srcCalls = append(eng.srcCalls, s.Pattern)
		case ModeObject:
			eng.srcObjs = append(eng.srcObjs, s.Pattern)
		case ModeParam:
			eng.taintPar = true
		}
	}
	pyast.Walk(m, func(n pyast.Node) bool {
		switch s := n.(type) {
		case *pyast.Import:
			for _, a := range s.Names {
				local := a.AsName
				if local == "" {
					local = rootSegment(a.Name)
					eng.aliases[local] = local
				} else {
					eng.aliases[local] = a.Name
				}
			}
		case *pyast.ImportFrom:
			for _, a := range s.Names {
				local := a.AsName
				if local == "" {
					local = a.Name
				}
				if s.Module != "" {
					eng.aliases[local] = s.Module + "." + a.Name
				}
			}
		case *pyast.Global:
			// Recorded per enclosing function below; here we only need
			// the conservative "assigned anywhere" set.
			for _, name := range s.Names {
				eng.writtenGlobals[name] = true
			}
		}
		return true
	})
	return eng
}

func rootSegment(dotted string) string {
	if i := strings.IndexByte(dotted, '.'); i >= 0 {
		return dotted[:i]
	}
	return dotted
}

func (eng *engine) run() *Analysis {
	// Module-level code first: it seeds globalJoin, the entry environment
	// of every function.
	eng.analyzeBody("", eng.module.Body, nil, true)
	for _, f := range pyast.Functions(eng.module) {
		entry := Env{}
		for name, v := range eng.globalJoin {
			if eng.writtenGlobals[name] {
				continue // mutated via `global` somewhere: unprovable
			}
			entry[name] = v
		}
		if eng.taintPar {
			for _, p := range f.Params {
				if p.Name == "" || p.Name == "self" || p.Name == "cls" {
					continue
				}
				entry[p.Name] = taintedVal(f.Position.Line,
					fmt.Sprintf("source: parameter %s of %s()", p.Name, f.Name))
			}
		} else {
			for _, p := range f.Params {
				if p.Name != "" {
					entry[p.Name] = unknownVal()
				}
			}
		}
		eng.analyzeBody(f.Name, f.Body, entry, false)
		eng.stats.Functions++
	}
	sort.SliceStable(eng.sinks, func(i, j int) bool {
		if eng.sinks[i].Line != eng.sinks[j].Line {
			return eng.sinks[i].Line < eng.sinks[j].Line
		}
		return eng.sinks[i].Callee < eng.sinks[j].Callee
	})
	return &Analysis{Sinks: eng.sinks, Stats: eng.stats}
}

// analyzeBody builds the CFG for one scope, runs the fixpoint, and then a
// final collect pass that records sink hits with the stable environments.
func (eng *engine) analyzeBody(funcName string, body []pyast.Stmt, entry Env, moduleLevel bool) {
	g := buildCFG(body)
	eng.stats.Blocks += len(g.Blocks)
	eng.stats.BackEdges += g.BackEdges()

	in := make([]Env, len(g.Blocks))
	if entry == nil {
		entry = Env{}
	}
	in[g.Entry] = cloneEnv(entry)

	fa := &scopeAnalysis{eng: eng, funcName: funcName, moduleLevel: moduleLevel}
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for _, blk := range g.Blocks {
			if in[blk.ID] == nil {
				continue // unreachable (so far)
			}
			env := cloneEnv(in[blk.ID])
			for i := range blk.Items {
				if blk.Exc >= 0 {
					if joinInto(&in[blk.Exc], env) {
						changed = true
					}
				}
				fa.transfer(&blk.Items[i], env)
			}
			if blk.Exc >= 0 {
				if joinInto(&in[blk.Exc], env) {
					changed = true
				}
			}
			for _, s := range blk.Succs {
				if joinInto(&in[s], env) {
					changed = true
				}
			}
		}
		eng.stats.Passes++
		if !changed {
			break
		}
	}

	// Collect pass: stable in-environments, sinks recorded exactly once.
	fa.collect = true
	for _, blk := range g.Blocks {
		if in[blk.ID] == nil {
			continue
		}
		env := cloneEnv(in[blk.ID])
		for i := range blk.Items {
			fa.transfer(&blk.Items[i], env)
		}
	}
}

// scopeAnalysis carries per-scope transfer state.
type scopeAnalysis struct {
	eng         *engine
	funcName    string
	moduleLevel bool
	collect     bool
	noRecord    bool // inside an f-string placeholder mini-parse
}

func (fa *scopeAnalysis) transfer(it *Item, env Env) {
	switch {
	case it.Cond != nil:
		fa.eval(it.Cond, env)
	case it.For != nil:
		v := fa.eval(it.For.Iter, env)
		v = withStep(v, it.For.Position.Line, "loop element")
		fa.bindTarget(it.For.Target, v, env)
	case it.With != nil:
		v := fa.eval(it.With.Context, env)
		if it.With.Target != nil {
			fa.bindTarget(it.With.Target, v, env)
		}
	case it.Bind != "":
		env[it.Bind] = unknownVal()
	case it.Stmt != nil:
		fa.transferStmt(it.Stmt, env)
	}
}

func (fa *scopeAnalysis) transferStmt(s pyast.Stmt, env Env) {
	switch n := s.(type) {
	case *pyast.Assign:
		fa.assign(n, env)
	case *pyast.AugAssign:
		v := fa.eval(n.Value, env)
		if name, ok := n.Target.(*pyast.Name); ok {
			old, exists := env[name.ID]
			if !exists {
				old = unknownVal()
			}
			nv := joinVal(old, v)
			nv = withStep(nv, n.Position.Line, fmt.Sprintf("%s %s ...", name.ID, n.Op))
			env[name.ID] = nv
			fa.noteGlobal(name.ID, nv)
			return
		}
		fa.bindTarget(n.Target, v, env)
	case *pyast.AnnAssign:
		if n.Value != nil {
			fa.bindTarget(n.Target, fa.eval(n.Value, env), env)
		} else if name, ok := n.Target.(*pyast.Name); ok {
			env[name.ID] = unknownVal()
		}
	case *pyast.ExprStmt:
		fa.eval(n.Value, env)
	case *pyast.Return:
		fa.eval(n.Value, env)
	case *pyast.Raise:
		fa.eval(n.Exc, env)
		fa.eval(n.Cause, env)
	case *pyast.Assert:
		fa.eval(n.Test, env)
		fa.eval(n.Msg, env)
	case *pyast.Del:
		for _, t := range n.Targets {
			if name, ok := t.(*pyast.Name); ok {
				delete(env, name.ID)
			} else {
				fa.eval(t, env)
			}
		}
	case *pyast.Global:
		for _, name := range n.Names {
			env[name] = unknownVal()
		}
	case *pyast.Nonlocal:
		for _, name := range n.Names {
			env[name] = unknownVal()
		}
	case *pyast.FunctionDef:
		env[n.Name] = unknownVal()
	case *pyast.ClassDef:
		env[n.Name] = unknownVal()
	case *pyast.Import, *pyast.ImportFrom:
		// Callee resolution goes through the alias table; the bound
		// module/function objects themselves are neutral.
	case *pyast.BadStmt:
		// A statement we failed to parse may have assigned anything:
		// nothing already bound can stay proven-Const.
		for k, v := range env {
			if v.P == Const {
				env[k] = unknownVal()
			}
		}
	}
}

func (fa *scopeAnalysis) assign(n *pyast.Assign, env Env) {
	// Pairwise tuple unpacking keeps per-element precision when the RHS is
	// a literal display of matching arity.
	if len(n.Targets) == 1 {
		if tgt, ok := targetElts(n.Targets[0]); ok {
			if src, ok := displayElts(n.Value); ok && len(src) == len(tgt) && !hasStarred(tgt) {
				for i := range tgt {
					fa.bindTarget(tgt[i], fa.eval(src[i], env), env)
				}
				return
			}
		}
	}
	v := fa.eval(n.Value, env)
	for _, t := range n.Targets {
		fa.bindTarget(t, v, env)
	}
}

func targetElts(e pyast.Expr) ([]pyast.Expr, bool) {
	switch t := e.(type) {
	case *pyast.Tuple:
		return t.Elts, len(t.Elts) > 0
	case *pyast.List:
		return t.Elts, len(t.Elts) > 0
	}
	return nil, false
}

func displayElts(e pyast.Expr) ([]pyast.Expr, bool) {
	switch t := e.(type) {
	case *pyast.Tuple:
		return t.Elts, true
	case *pyast.List:
		return t.Elts, true
	}
	return nil, false
}

func hasStarred(elts []pyast.Expr) bool {
	for _, e := range elts {
		if _, ok := e.(*pyast.Starred); ok {
			return true
		}
	}
	return false
}

// bindTarget writes v into an assignment target. Attribute and subscript
// targets join into their root variable (coarse container element-taint).
func (fa *scopeAnalysis) bindTarget(t pyast.Expr, v Value, env Env) {
	switch n := t.(type) {
	case *pyast.Name:
		nv := withStep(v, n.Position.Line, fmt.Sprintf("assigned to %s", n.ID))
		env[n.ID] = nv
		fa.noteGlobal(n.ID, nv)
	case *pyast.Tuple:
		for _, e := range n.Elts {
			fa.bindTarget(e, v, env)
		}
	case *pyast.List:
		for _, e := range n.Elts {
			fa.bindTarget(e, v, env)
		}
	case *pyast.Starred:
		fa.bindTarget(n.Value, v, env)
	case *pyast.Attribute:
		if root := rootName(n); root != "" {
			old, ok := env[root]
			if !ok {
				old = unknownVal()
			}
			env[root] = joinVal(old, v)
		}
		fa.eval(n.Value, env)
	case *pyast.Subscript:
		fa.eval(n.Index, env)
		if root := rootName(n); root != "" {
			old, ok := env[root]
			if !ok {
				old = unknownVal()
			}
			env[root] = joinVal(old, v)
		}
	}
}

// noteGlobal accumulates module-level bindings into globalJoin during the
// module collect pass: the entry environment of every function joins every
// value a module variable ever held, which stays sound regardless of when
// the function is called relative to the assignments.
func (fa *scopeAnalysis) noteGlobal(name string, v Value) {
	if !fa.moduleLevel || !fa.collect {
		return
	}
	old, ok := fa.eng.globalJoin[name]
	if !ok {
		fa.eng.globalJoin[name] = v
		return
	}
	fa.eng.globalJoin[name] = joinVal(old, v)
}

func rootName(e pyast.Expr) string {
	for {
		switch n := e.(type) {
		case *pyast.Name:
			return n.ID
		case *pyast.Attribute:
			e = n.Value
		case *pyast.Subscript:
			e = n.Value
		default:
			return ""
		}
	}
}

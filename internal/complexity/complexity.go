// Package complexity computes McCabe cyclomatic complexity for Python
// source, following the same counting rules as radon (the tool the paper
// uses for Fig. 3): a base complexity of 1 per block plus one for every
// decision point.
package complexity

import (
	"sort"

	"github.com/dessertlab/patchitpy/internal/pyast"
)

// BlockScore is the complexity of one function (or the module body).
type BlockScore struct {
	// Name is the function name, or "<module>" for top-level code.
	Name string
	// Line is the 1-based line where the block starts.
	Line int
	// Score is the cyclomatic complexity (>= 1).
	Score int
}

// Analyze parses src and returns the complexity of every function plus the
// module body. Parse errors are tolerated (the recovered tree is scored).
func Analyze(src string) ([]BlockScore, error) {
	mod, err := pyast.Parse(src)
	if err != nil {
		return nil, err
	}
	return AnalyzeModule(mod), nil
}

// AnalyzeModule scores an already-parsed module.
func AnalyzeModule(mod *pyast.Module) []BlockScore {
	var out []BlockScore
	var topLevel []pyast.Stmt
	var visit func(stmts []pyast.Stmt)

	scoreFunc := func(fd *pyast.FunctionDef) {
		out = append(out, BlockScore{
			Name:  fd.Name,
			Line:  fd.Pos().Line,
			Score: 1 + decisions(fd.Body),
		})
	}

	visit = func(stmts []pyast.Stmt) {
		for _, s := range stmts {
			switch n := s.(type) {
			case *pyast.FunctionDef:
				scoreFunc(n)
				visit(n.Body) // nested defs get their own blocks
			case *pyast.ClassDef:
				visit(n.Body)
			}
		}
	}

	for _, s := range mod.Body {
		switch s.(type) {
		case *pyast.FunctionDef, *pyast.ClassDef:
		default:
			topLevel = append(topLevel, s)
		}
	}
	visit(mod.Body)
	out = append(out, BlockScore{
		Name:  "<module>",
		Line:  1,
		Score: 1 + decisions(topLevel),
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

// Program returns the whole-program cyclomatic complexity of src: one plus
// every decision point in the file (V(G) = E - N + 2 for the single
// connected program graph). This is the per-sample scalar aggregated in
// the paper's Fig. 3. Unparseable samples score 1.
func Program(src string) float64 {
	blocks, err := Analyze(src)
	if err != nil || len(blocks) == 0 {
		return 1
	}
	total := 1
	for _, b := range blocks {
		total += b.Score - 1 // each block contributes its decision points
	}
	return float64(total)
}

// decisions counts the decision points in a statement list, excluding
// nested function bodies (each function is scored separately).
func decisions(stmts []pyast.Stmt) int {
	count := 0
	for _, s := range stmts {
		count += stmtDecisions(s)
	}
	return count
}

func stmtDecisions(s pyast.Stmt) int {
	switch n := s.(type) {
	case *pyast.FunctionDef:
		return 0 // scored separately
	case *pyast.ClassDef:
		return 0 // methods scored separately
	case *pyast.If:
		c := 1 + exprDecisions(n.Cond) + decisions(n.Body)
		// an elif chain is nested Ifs inside Orelse and counts per branch;
		// a plain else adds nothing
		c += decisions(n.Orelse)
		return c
	case *pyast.For:
		return 1 + exprDecisions(n.Iter) + decisions(n.Body) + decisions(n.Orelse)
	case *pyast.While:
		return 1 + exprDecisions(n.Cond) + decisions(n.Body) + decisions(n.Orelse)
	case *pyast.Try:
		c := decisions(n.Body) + decisions(n.Orelse) + decisions(n.Finally)
		for _, h := range n.Handlers {
			c += 1 + decisions(h.Body)
		}
		return c
	case *pyast.With:
		c := decisions(n.Body)
		for _, it := range n.Items {
			c += exprDecisions(it.Context)
		}
		return c
	case *pyast.Assert:
		return 1 + exprDecisions(n.Test)
	case *pyast.Return:
		return exprDecisions(n.Value)
	case *pyast.Assign:
		return exprDecisions(n.Value)
	case *pyast.AugAssign:
		return exprDecisions(n.Value)
	case *pyast.AnnAssign:
		return exprDecisions(n.Value)
	case *pyast.ExprStmt:
		return exprDecisions(n.Value)
	case *pyast.Raise:
		return exprDecisions(n.Exc)
	}
	return 0
}

// exprDecisions counts boolean operators, ternaries and comprehension
// clauses inside an expression (radon's rules).
func exprDecisions(e pyast.Expr) int {
	if e == nil {
		return 0
	}
	count := 0
	pyast.Walk(e, func(n pyast.Node) bool {
		switch x := n.(type) {
		case *pyast.BoolOp:
			count += len(x.Values) - 1
		case *pyast.IfExp:
			count++
		case *pyast.Comp:
			for _, g := range x.Generators {
				count += 1 + len(g.Ifs)
			}
		case *pyast.Lambda:
			// lambda bodies count within the enclosing block in radon
		}
		return true
	})
	return count
}

// Distribution summarizes a set of per-sample complexity values.
type Distribution struct {
	Mean   float64
	Median float64
	Q1     float64
	Q3     float64
	IQR    float64
	Min    float64
	Max    float64
	N      int
}

// Summarize computes the distribution statistics used in Fig. 3.
func Summarize(values []float64) Distribution {
	if len(values) == 0 {
		return Distribution{}
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	d := Distribution{
		Mean:   sum / float64(len(sorted)),
		Median: percentile(sorted, 0.50),
		Q1:     percentile(sorted, 0.25),
		Q3:     percentile(sorted, 0.75),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		N:      len(sorted),
	}
	d.IQR = d.Q3 - d.Q1
	return d
}

// percentile computes the p-quantile with linear interpolation (the same
// method as numpy's default).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	h := p * float64(len(sorted)-1)
	lo := int(h)
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

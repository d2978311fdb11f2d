package detect

import (
	"regexp/syntax"

	"github.com/dessertlab/patchitpy/internal/rules"
)

// Rule locality classification for incremental re-scanning. After an edit,
// the rescan wants to avoid re-running regexes whose matches provably
// cannot have changed. Each rule is classified once, at Detector build,
// into one of three classes by analyzing its parsed regexes:
//
//   - classPureLocal: the pattern cannot consume '\n' (every match lies on
//     a single line), is not \A/\z-anchored, and the rule has no
//     Requires/Excludes gate. Rescans re-match only the dirty line window
//     (with one byte of left context for \b and (?m)^) and replay every
//     finding outside it — no affectedness check needed.
//
//   - classAnalyzable: matches may span lines, but every atom that can
//     consume '\n' matches only whitespace, the number of such gaps per
//     match is finitely bounded, and the pattern (and each present gate)
//     carries a mandatory-literal set. Any match overlapping the dirty
//     window then provably places one of the rule's literals inside a
//     bounded "zone" around the window, so a literal scan of the zone
//     decides affectedness: affected rules re-run in full, unaffected
//     rules replay all previous findings shifted by the edit delta.
//
//   - classGlobal: everything else (unbounded multi-line reach, atoms
//     that let '\n' ride inside non-whitespace text, or no usable literal
//     set). These re-run in full on every rescan; the candidate bitset
//     still prefilters them.
type ruleClass uint8

const (
	classGlobal ruleClass = iota
	classPureLocal
	classAnalyzable
)

// maxWsSegments bounds how many whitespace gaps an analyzable match may
// contain; beyond it the zone would grow past any practical window and
// the rule is cheaper to just re-run (classGlobal).
const maxWsSegments = 15

// locality is one rule's class plus, for analyzable rules, its reach: the
// number of non-blank-line hops a match may extend beyond the lines it
// shares with the dirty window.
type locality struct {
	class ruleClass
	reach int
}

// exprInfo summarizes one parsed regex for locality classification.
type exprInfo struct {
	ok        bool // every '\n'-capable atom matches only whitespace
	segs      int  // upper bound on '\n'-capable gaps per match
	pureWS    bool // every matched string consists solely of whitespace
	anchored  bool // contains \A or \z
	nlCapable bool // a match may contain '\n'
	parseOK   bool
}

// segInf is the "unbounded" segment count; any sum or product saturates
// at it so arithmetic cannot overflow.
const segInf = 1 << 20

func satAdd(a, b int) int {
	if s := a + b; s < segInf {
		return s
	}
	return segInf
}

func satMul(a, b int) int {
	if a == 0 || b == 0 {
		return 0
	}
	if p := a * b; p/a == b && p < segInf {
		return p
	}
	return segInf
}

// wsRune reports whether r is one of the whitespace bytes a "whitespace
// gap" may consume. This must stay a superset of every character class
// the analysis treats as whitespace-only, and the blank-line test in
// zoneBounds must use the same set.
func wsRune(r rune) bool {
	return r == '\t' || r == '\n' || r == '\v' || r == '\f' || r == '\r' || r == ' '
}

// classWSOnly reports whether a char class (rune-range pairs) matches only
// whitespace. The whitespace runes are 9..13 and 32, so each range must
// sit inside one of those two islands.
func classWSOnly(ranges []rune) bool {
	for i := 0; i+1 < len(ranges); i += 2 {
		lo, hi := ranges[i], ranges[i+1]
		if !(lo >= 9 && hi <= 13) && !(lo == 32 && hi == 32) {
			return false
		}
	}
	return true
}

// classHasNL reports whether a char class can match '\n'.
func classHasNL(ranges []rune) bool {
	for i := 0; i+1 < len(ranges); i += 2 {
		if ranges[i] <= '\n' && '\n' <= ranges[i+1] {
			return true
		}
	}
	return false
}

// analyzeExpr parses expr and computes its locality summary.
func analyzeExpr(expr string) exprInfo {
	re, err := syntax.Parse(expr, syntax.Perl)
	if err != nil {
		return exprInfo{}
	}
	info := analyzeRe(re)
	info.parseOK = true
	return info
}

func analyzeRe(re *syntax.Regexp) exprInfo {
	switch re.Op {
	case syntax.OpEmptyMatch, syntax.OpNoMatch:
		return exprInfo{ok: true, pureWS: true}
	case syntax.OpBeginLine, syntax.OpEndLine, syntax.OpWordBoundary, syntax.OpNoWordBoundary:
		// Zero-width: consumes nothing.
		return exprInfo{ok: true, pureWS: true}
	case syntax.OpBeginText, syntax.OpEndText:
		return exprInfo{ok: true, pureWS: true, anchored: true}
	case syntax.OpLiteral:
		inf := exprInfo{ok: true, pureWS: true}
		for _, r := range re.Rune {
			if r == '\n' {
				inf.nlCapable = true
			}
			if !wsRune(r) {
				inf.pureWS = false
			}
		}
		if inf.nlCapable {
			inf.segs = 1
			// A literal that embeds '\n' amid non-whitespace would let a
			// match carry arbitrary text across lines outside the
			// whitespace-gap model.
			if !inf.pureWS {
				inf.ok = false
			}
		}
		return inf
	case syntax.OpCharClass:
		inf := exprInfo{ok: true}
		inf.pureWS = classWSOnly(re.Rune)
		if classHasNL(re.Rune) {
			inf.nlCapable = true
			inf.segs = 1
			if !inf.pureWS {
				inf.ok = false
			}
		}
		return inf
	case syntax.OpAnyChar:
		return exprInfo{nlCapable: true, segs: 1}
	case syntax.OpAnyCharNotNL:
		return exprInfo{ok: true}
	case syntax.OpCapture:
		return analyzeRe(re.Sub[0])
	case syntax.OpConcat:
		out := exprInfo{ok: true, pureWS: true}
		for _, sub := range re.Sub {
			s := analyzeRe(sub)
			out.ok = out.ok && s.ok
			out.pureWS = out.pureWS && s.pureWS
			out.anchored = out.anchored || s.anchored
			out.nlCapable = out.nlCapable || s.nlCapable
			out.segs = satAdd(out.segs, s.segs)
		}
		return out
	case syntax.OpAlternate:
		out := exprInfo{ok: true, pureWS: true}
		for _, sub := range re.Sub {
			s := analyzeRe(sub)
			out.ok = out.ok && s.ok
			out.pureWS = out.pureWS && s.pureWS
			out.anchored = out.anchored || s.anchored
			out.nlCapable = out.nlCapable || s.nlCapable
			if s.segs > out.segs {
				out.segs = s.segs
			}
		}
		return out
	case syntax.OpStar, syntax.OpPlus, syntax.OpQuest:
		s := analyzeRe(re.Sub[0])
		if re.Op == syntax.OpQuest {
			return s
		}
		if s.segs > 0 {
			if s.pureWS {
				// Repeating a pure-whitespace subtree yields one contiguous
				// whitespace run: still a single gap.
				s.segs = 1
			} else {
				s.segs = segInf
			}
		}
		return s
	case syntax.OpRepeat:
		s := analyzeRe(re.Sub[0])
		if s.segs > 0 {
			switch {
			case s.pureWS:
				s.segs = 1
			case re.Max < 0:
				s.segs = segInf
			default:
				s.segs = satMul(s.segs, re.Max)
			}
		}
		return s
	default:
		// Unknown op: refuse to reason about it.
		return exprInfo{nlCapable: true, segs: segInf}
	}
}

// classifyRules computes each rule's locality and the catalog-wide zone
// reach (the max reach over analyzable rules, in non-blank-line hops).
// excludesLits[i] is the mandatory-literal set of rule i's Excludes gate
// (nil when absent or unusable), mirroring filters[i] for the other two
// regexes.
func classifyRules(rs []*rules.Rule, filters []ruleFilter, excludesLits [][]Literal) ([]locality, int) {
	out := make([]locality, len(rs))
	zoneReach := 0
	for i, r := range rs {
		pi := analyzeExpr(r.Pattern.String())
		if !pi.parseOK {
			continue // classGlobal
		}
		if !pi.nlCapable && !pi.anchored && r.Requires == nil && r.Excludes == nil {
			out[i] = locality{class: classPureLocal}
			continue
		}
		// Analyzable needs the whitespace-gap property and a literal set
		// (checked on the shared automata's zone scan) for the pattern and
		// every present gate.
		loc := locality{class: classAnalyzable}
		segs := 0
		check := func(info exprInfo, lits []Literal) bool {
			if !info.parseOK || !info.ok || info.segs > maxWsSegments || lits == nil {
				return false
			}
			segs = max(segs, info.segs)
			return true
		}
		okA := check(pi, filters[i].patternLits)
		if okA && r.Requires != nil {
			okA = check(analyzeExpr(r.Requires.String()), filters[i].requiresLits)
		}
		if okA && r.Excludes != nil {
			okA = check(analyzeExpr(r.Excludes.String()), excludesLits[i])
		}
		if !okA {
			continue // classGlobal
		}
		loc.reach = segs + 1 // one hop of margin over the gap count
		out[i] = loc
		if loc.reach > zoneReach {
			zoneReach = loc.reach
		}
	}
	return out, zoneReach
}

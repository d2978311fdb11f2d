package detect

import (
	"regexp/syntax"

	"github.com/dessertlab/patchitpy/internal/rules"
)

// ruleFilter is the per-rule literal prefilter. A scan may skip the rule's
// regexes entirely when the source is guaranteed not to match:
//
//   - patternLits, when non-nil, is a set of literal strings such that any
//     match of the rule's Pattern must contain at least one of them;
//   - requiresLits, when non-nil, is the same for the rule's Requires gate
//     (which must also match the source for the rule to fire).
//
// A nil slice means no usable literal could be extracted for that regex,
// so it cannot be prefiltered and the regex always runs.
type ruleFilter struct {
	patternLits  []string
	requiresLits []string
}

// maxAlternatives caps how many literal alternatives a filter may carry:
// past that, checking the literals costs more than it saves.
const maxAlternatives = 12

// buildFilters extracts a ruleFilter for every rule, in slice order.
func buildFilters(rs []*rules.Rule) []ruleFilter {
	out := make([]ruleFilter, len(rs))
	for i, r := range rs {
		out[i].patternLits = requiredLiterals(r.Pattern.String())
		if r.Requires != nil {
			out[i].requiresLits = requiredLiterals(r.Requires.String())
		}
	}
	return out
}

// requiredLiterals parses expr and returns literal strings such that any
// match of expr must contain at least one of them, or nil when no useful
// set exists (the regex then always runs — the prefilter is conservative,
// never lossy).
func requiredLiterals(expr string) []string {
	re, err := syntax.Parse(expr, syntax.Perl)
	if err != nil {
		return nil
	}
	lits, ok := literalAlternatives(re)
	if !ok || len(lits) == 0 || len(lits) > maxAlternatives {
		return nil
	}
	for _, lit := range lits {
		// Single-byte literals match nearly every source; the literal
		// check would almost never skip, so drop the filter entirely.
		if len(lit) < 2 {
			return nil
		}
	}
	return lits
}

// literalAlternatives computes, for a parsed regex, a set of literals of
// which at least one must appear in any match. ok is false when no such
// set can be proven (optional subtrees, char classes, case folding, ...).
func literalAlternatives(re *syntax.Regexp) ([]string, bool) {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase != 0 {
			// A folded literal matches in any case mix; a plain Contains
			// probe would be unsound, so refuse to filter on it.
			return nil, false
		}
		return []string{string(re.Rune)}, true
	case syntax.OpCapture, syntax.OpPlus:
		// The subtree must match (at least once, for Plus).
		return literalAlternatives(re.Sub[0])
	case syntax.OpRepeat:
		if re.Min >= 1 {
			return literalAlternatives(re.Sub[0])
		}
		return nil, false
	case syntax.OpConcat:
		// Every part matches in sequence, so any single part's literal set
		// is mandatory for the whole. Pick the strongest one: the set whose
		// shortest literal is longest (rarest in typical source).
		var best []string
		for _, sub := range re.Sub {
			lits, ok := literalAlternatives(sub)
			if !ok {
				continue
			}
			if best == nil || minLen(lits) > minLen(best) {
				best = lits
			}
		}
		return best, best != nil
	case syntax.OpAlternate:
		// A match satisfies one branch, so every branch must contribute a
		// literal set; the union is the requirement.
		var union []string
		for _, sub := range re.Sub {
			lits, ok := literalAlternatives(sub)
			if !ok {
				return nil, false
			}
			union = append(union, lits...)
		}
		return union, true
	default:
		// Char classes, anchors, word boundaries, stars, etc. guarantee no
		// fixed literal.
		return nil, false
	}
}

func minLen(lits []string) int {
	m := int(^uint(0) >> 1)
	for _, l := range lits {
		if len(l) < m {
			m = len(l)
		}
	}
	return m
}

package detect

import (
	"regexp/syntax"
	"unicode"
	"unicode/utf8"

	"github.com/dessertlab/patchitpy/internal/rules"
)

// Literal is one mandatory literal of the prefilter. An exact literal must
// occur in the source byte for byte. A folded literal comes from a
// case-insensitive regex and may occur in any mix of case: its Text is the
// fold-normal form (ASCII lower case) that the automaton's fold walk reads
// the source as, with A-Z lowered, ſ (U+017F) read as s and the Kelvin
// sign K (U+212A) read as k.
type Literal struct {
	Text string
	Fold bool
}

// ruleFilter is the per-rule literal prefilter. A scan may skip the rule's
// regexes entirely when the source is guaranteed not to match:
//
//   - patternLits, when non-nil, is a set of literals such that any match
//     of the rule's Pattern must contain at least one of them;
//   - requiresLits, when non-nil, is the same for the rule's Requires gate
//     (which must also match the source for the rule to fire).
//
// A nil slice means no usable literal could be extracted for that regex,
// so it cannot be prefiltered and the regex always runs.
type ruleFilter struct {
	patternLits  []Literal
	requiresLits []Literal
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

// requiredLiterals parses expr and returns literals such that any match
// of expr must contain at least one of them, or nil when no useful set
// exists (the regex then always runs — the prefilter is conservative,
// never lossy).
func requiredLiterals(expr string) []Literal {
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
		if len(lit.Text) < 2 {
			return nil
		}
	}
	return lits
}

// literalAlternatives computes, for a parsed regex, a set of literals of
// which at least one must appear in any match. ok is false when no such
// set can be proven (optional subtrees, char classes, case folding the
// fold walk cannot follow, ...).
func literalAlternatives(re *syntax.Regexp) ([]Literal, bool) {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase != 0 {
			lit, ok := foldedLiteral(re.Rune)
			if !ok {
				return nil, false
			}
			return []Literal{lit}, true
		}
		return []Literal{{Text: string(re.Rune)}}, true
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
		var best []Literal
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
		var union []Literal
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

func minLen(lits []Literal) int {
	m := int(^uint(0) >> 1)
	for _, l := range lits {
		if len(l.Text) < m {
			m = len(l.Text)
		}
	}
	return m
}

// foldedLiteral converts the runes of a case-folded regex literal to a
// folded Literal. Soundness rests on the fold walk reading every member of
// each rune's simple-fold orbit (the set (?i) matches it against) as one
// and the same byte, so the orbits are walked here with unicode.SimpleFold:
// a rune with a member the walk reads as another byte, or as more than
// one, refuses the literal (false).
func foldedLiteral(rs []rune) (Literal, bool) {
	norm := make([]byte, len(rs))
	for i, r := range rs {
		n, ok := foldByte(r)
		if !ok {
			return Literal{}, false
		}
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if m, ok := foldByte(f); !ok || m != n {
				return Literal{}, false
			}
		}
		norm[i] = n
	}
	return Literal{Text: string(norm), Fold: true}, true
}

// The two runes outside ASCII the fold walk maps: ſ and the Kelvin sign,
// the only such members of an ASCII letter's simple-fold orbit.
const (
	longS  = '\u017f' // UTF-8 C5 BF, folds with s and S
	kelvin = '\u212a' // UTF-8 E2 84 AA, folds with k and K
)

// maxFoldBytes is the longest source sequence the fold walk reads as one
// byte (the Kelvin sign), so a folded literal of n bytes covers at most
// maxFoldBytes*n source bytes.
const maxFoldBytes = len(string(kelvin))

// foldByte is the byte the fold walk reads rune r as, and false when the
// walk does not read r as a single byte (any rune outside ASCII other
// than ſ and K).
func foldByte(r rune) (byte, bool) {
	switch {
	case r >= 'A' && r <= 'Z':
		return byte(r - 'A' + 'a'), true
	case r < utf8.RuneSelf:
		return byte(r), true
	case r == longS:
		return 's', true
	case r == kelvin:
		return 'k', true
	}
	return 0, false
}

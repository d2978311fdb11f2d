package detect

import "github.com/dessertlab/patchitpy/internal/rules"

// This file exports the literal prefilter's per-rule view for catalog
// vetting (internal/rulecheck). The scan path never uses these accessors;
// they introspect the same extraction and automaton the scan builds, so a
// vet verdict about prefilter coverage is a verdict about the real thing.

// LiteralSets is the prefilter's view of one rule: the mandatory-literal
// alternatives extracted from its Pattern and Requires expressions. A nil
// slice means no usable literal set exists for that expression, so it can
// never be prefiltered and its regex always runs.
type LiteralSets struct {
	// Pattern holds literals of which at least one must appear in any
	// match of the rule's Pattern.
	Pattern []Literal
	// Requires holds the same for the rule's Requires gate; nil when the
	// rule has no gate or the gate yields no usable set.
	Requires []Literal
}

// Prefilterable reports whether the prefilter can ever skip the rule: at
// least one of the two literal sets must exist. A rule with neither
// defeats the prefilter entirely — its regexes run on every scanned
// source regardless of content.
func (ls LiteralSets) Prefilterable() bool {
	return ls.Pattern != nil || ls.Requires != nil
}

// PrefilterLiterals returns the literal sets the prefilter extracts for r
// — exactly what buildFilters computes for the scan path.
func PrefilterLiterals(r *rules.Rule) LiteralSets {
	ls := LiteralSets{Pattern: requiredLiterals(r.Pattern.String())}
	if r.Requires != nil {
		ls.Requires = requiredLiterals(r.Requires.String())
	}
	return ls
}

// Candidates returns, in catalog order, the IDs of the rules the literal
// automaton admits for src — the set whose regexes would run on a scan of
// src. A rule whose Pattern matches src but whose ID is absent here would
// be unsoundly skipped by the prefilter; rulecheck asserts this never
// happens for any rule's witness.
func (d *Detector) Candidates(src string) []string {
	cand := d.Prepare(src).candidates()
	var out []string
	for i, r := range d.rules {
		if cand.has(i) {
			out = append(out, r.ID)
		}
	}
	return out
}

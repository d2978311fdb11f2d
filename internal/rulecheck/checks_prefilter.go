package rulecheck

import (
	"strings"

	"github.com/dessertlab/patchitpy/internal/detect"
)

// Prefilter coverage: every rule should ideally contribute a
// mandatory-literal set to the scan automaton (a rule with none runs its
// regexes on every source), and the set the extractor produces must be
// sound — a source matching the rule must always be admitted by the
// automaton. Soundness is checked by executing the real automaton on the
// rule's synthesized witness, not by re-deriving the literal logic.

func (ck *checker) checkPrefilter() {
	for i, r := range ck.rs {
		ls := detect.PrefilterLiterals(r)
		if !ls.Prefilterable() {
			ck.add(SeverityWarning, "prefilter-empty", i,
				"no mandatory literal could be extracted from pattern or gate (rule runs on every source; usually caused by too-short literals)")
		}

		wit := ck.wits[i]
		if !wit.ok {
			ck.add(SeverityWarning, "witness-failure", i,
				"could not synthesize a matching witness: %s (differential checks skipped for this rule)", wit.reason)
			continue
		}
		if !containsID(ck.det.Candidates(wit.full), r.ID) {
			ck.add(SeverityError, "prefilter-unsound", i,
				"the literal automaton does not admit the rule on its own witness %q — the prefilter would skip a real match", truncate(wit.full, 80))
		}
	}
}

func containsID(ids []string, id string) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// truncate shortens s for display inside one-line messages.
func truncate(s string, n int) string {
	s = strings.ReplaceAll(s, "\n", `\n`)
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

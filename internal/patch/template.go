package patch

import (
	"regexp"
	"strconv"
)

// This file exposes the fix-template surface the catalog vetting engine
// (internal/rulecheck) inspects: the capture-group references a template
// expands, so a template referencing a group its pattern does not capture
// is detectable statically instead of silently expanding to the empty
// string at patch time.

// groupRefRe matches the $n and ${n} capture references of
// regexp.Regexp.Expand syntax. $$ escapes are not part of the template
// language the catalog uses.
var groupRefRe = regexp.MustCompile(`\$(\d+|\{\d+\})`)

// GroupRefs returns the capture-group numbers a fix template references,
// in order of appearance (duplicates preserved).
func GroupRefs(template string) []int {
	var out []int
	for _, m := range groupRefRe.FindAllStringSubmatch(template, -1) {
		ref := m[1]
		if ref[0] == '{' {
			ref = ref[1 : len(ref)-1]
		}
		n, err := strconv.Atoi(ref)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	return out
}

package detect

// The literal prefilter's one-pass engine: an Aho-Corasick automaton built
// once per catalog over every rule's mandatory literals. Probing each
// (rule, literal) pair with strings.Contains would cost O(rules × literals
// × n) per scan. The automaton walks the source exactly once, marking
// which literals occur, and the per-rule admit decision then reads those
// marks: O(n + matches) per scan regardless of catalog size.

// bitset is a fixed-size bit vector over rule indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// acAutomaton is a byte-level Aho-Corasick automaton compiled to a dense
// DFA: next[s][b] is the state after reading byte b in state s, with
// failure transitions already folded in, and emit[s] lists the IDs of
// every literal that ends at state s (including proper-suffix matches).
// It is immutable after build and safe for concurrent scans.
type acAutomaton struct {
	next [][256]int32
	emit [][]int32
	// numLiterals is the size of the `seen` scratch slice scans need.
	numLiterals int
}

// buildAutomaton compiles the automaton over lits; literal i gets ID i.
// Literals must be non-empty.
func buildAutomaton(lits []string) *acAutomaton {
	a := &acAutomaton{numLiterals: len(lits)}
	newNode := func() int32 {
		var row [256]int32
		for i := range row {
			row[i] = -1
		}
		a.next = append(a.next, row)
		a.emit = append(a.emit, nil)
		return int32(len(a.next) - 1)
	}
	newNode() // root = state 0

	// Phase 1: trie insertion.
	for id, lit := range lits {
		s := int32(0)
		for i := 0; i < len(lit); i++ {
			b := lit[i]
			if a.next[s][b] < 0 {
				a.next[s][b] = newNode()
			}
			s = a.next[s][b]
		}
		a.emit[s] = append(a.emit[s], int32(id))
	}

	// Phase 2: breadth-first failure links, folded directly into next so
	// scanning never consults them, and emit sets merged along the links
	// so suffix matches surface without chasing chains at scan time.
	fail := make([]int32, len(a.next))
	queue := make([]int32, 0, len(a.next))
	for b := 0; b < 256; b++ {
		if v := a.next[0][b]; v < 0 {
			a.next[0][b] = 0
		} else {
			fail[v] = 0
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for b := 0; b < 256; b++ {
			v := a.next[u][b]
			if v < 0 {
				a.next[u][b] = a.next[fail[u]][b]
				continue
			}
			fail[v] = a.next[fail[u]][b]
			a.emit[v] = append(a.emit[v], a.emit[fail[v]]...)
			queue = append(queue, v)
		}
	}
	return a
}

// scan walks src once, setting seen[id] for every literal that occurs.
// seen must have length numLiterals and arrive zeroed.
func (a *acAutomaton) scan(src string, seen []bool) {
	s := int32(0)
	for i := 0; i < len(src); i++ {
		s = a.next[s][src[i]]
		if es := a.emit[s]; len(es) != 0 {
			for _, id := range es {
				seen[id] = true
			}
		}
	}
}

// literalIndex interns the literal strings of every rule filter and builds
// the shared automaton plus the per-rule literal-ID views the candidate
// computation reads.
type literalIndex struct {
	ac *acAutomaton
	// patternIDs[i] / requiresIDs[i] are the literal IDs of rule i's
	// pattern / requires filter; nil mirrors ruleFilter semantics (no
	// usable literal set — the rule cannot be prefiltered).
	patternIDs  [][]int32
	requiresIDs [][]int32
	// excludesIDs[i] are the literal IDs of rule i's Excludes gate. They
	// never join the candidate computation (an excludes match suppresses
	// rather than enables a rule); incremental rescans read them to decide
	// whether an edit could have flipped the gate.
	excludesIDs [][]int32
	// maxLit is the longest interned literal in bytes; incremental zone
	// scans widen their span by maxLit-1 so no occurrence straddles out.
	maxLit int
}

// buildLiteralIndex interns pattern + requires literals from filters and
// the per-rule excludes literal sets (aligned with filters, nil entries
// allowed) into one shared automaton.
func buildLiteralIndex(filters []ruleFilter, excludesLits [][]string) *literalIndex {
	ix := &literalIndex{
		patternIDs:  make([][]int32, len(filters)),
		requiresIDs: make([][]int32, len(filters)),
		excludesIDs: make([][]int32, len(filters)),
	}
	var lits []string
	ids := map[string]int32{}
	intern := func(set []string) []int32 {
		if set == nil {
			return nil
		}
		out := make([]int32, len(set))
		for i, lit := range set {
			id, ok := ids[lit]
			if !ok {
				id = int32(len(lits))
				ids[lit] = id
				lits = append(lits, lit)
			}
			out[i] = id
		}
		return out
	}
	for i, f := range filters {
		ix.patternIDs[i] = intern(f.patternLits)
		ix.requiresIDs[i] = intern(f.requiresLits)
		ix.excludesIDs[i] = intern(excludesLits[i])
	}
	ix.ac = buildAutomaton(lits)
	for _, lit := range lits {
		if len(lit) > ix.maxLit {
			ix.maxLit = len(lit)
		}
	}
	return ix
}

// candidates runs the one-pass literal scan and derives the rule bitset: a
// rule is a candidate iff at least one of its pattern literals occurred
// and (when a requires filter exists) at least one requires literal
// occurred — exactly the decision per-literal strings.Contains probes
// would make, proven literal-by-literal in one pass. seen is caller-
// provided scratch of length ac.numLiterals, zeroed on entry and left
// dirty on return.
func (ix *literalIndex) candidates(src string, seen []bool, numRules int) bitset {
	ix.ac.scan(src, seen)
	bits := newBitset(numRules)
	anySeen := func(ids []int32) bool {
		if ids == nil {
			return true
		}
		for _, id := range ids {
			if seen[id] {
				return true
			}
		}
		return false
	}
	for i := 0; i < numRules; i++ {
		if anySeen(ix.patternIDs[i]) && anySeen(ix.requiresIDs[i]) {
			bits.set(i)
		}
	}
	return bits
}

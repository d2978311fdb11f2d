package detect

import "unicode/utf8"

// The literal prefilter's engine: Aho-Corasick automata built once per
// catalog over every rule's mandatory literals. Probing each (rule,
// literal) pair with strings.Contains would cost O(rules × literals × n)
// per scan. The exact automaton walks the source once, and the fold
// automaton (case-insensitive literals) once more through the fold walk,
// marking which literals occur; the per-rule admit decision then reads
// those marks: O(n + matches) per scan regardless of catalog size.

// bitset is a fixed-size bit vector over rule indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// acAutomaton is a byte-level Aho-Corasick automaton compiled to a dense
// DFA over byte classes: class[b] is the input class of byte b (0 for
// every byte no literal contains), next[s*classes+c] is the state after
// reading a byte of class c in state s, with failure transitions already
// folded in, and emit[s] lists the IDs of every literal that ends at
// state s (including proper-suffix matches). Classing the bytes keeps
// each state's row as wide as the literals' alphabet instead of 256.
// It is immutable after build and safe for concurrent scans.
type acAutomaton struct {
	class   [256]uint16
	classes int
	next    []int32
	emit    [][]int32
}

// buildAutomaton compiles the automaton over lits; literal i gets ID
// ids[i]. Literals must be non-empty. With fold set, the literals must be
// in fold-normal form and A-Z share the classes of a-z, which is the
// ASCII half of the fold walk (scanFolded does the rest).
func buildAutomaton(lits []string, ids []int32, fold bool) *acAutomaton {
	a := &acAutomaton{classes: 1}
	for _, lit := range lits {
		for i := 0; i < len(lit); i++ {
			if b := lit[i]; a.class[b] == 0 {
				a.class[b] = uint16(a.classes)
				a.classes++
			}
		}
	}
	if fold {
		for b := 'A'; b <= 'Z'; b++ {
			a.class[b] = a.class[b-'A'+'a']
		}
	}
	row := func(s int32) []int32 {
		return a.next[int(s)*a.classes : (int(s)+1)*a.classes]
	}
	newNode := func() int32 {
		for c := 0; c < a.classes; c++ {
			a.next = append(a.next, -1)
		}
		a.emit = append(a.emit, nil)
		return int32(len(a.emit) - 1)
	}
	newNode() // root = state 0

	// Phase 1: trie insertion.
	for k, lit := range lits {
		s := int32(0)
		for i := 0; i < len(lit); i++ {
			c := a.class[lit[i]]
			if row(s)[c] < 0 {
				v := newNode()
				row(s)[c] = v
			}
			s = row(s)[c]
		}
		a.emit[s] = append(a.emit[s], ids[k])
	}

	// Phase 2: breadth-first failure links, folded directly into next so
	// scanning never consults them, and emit sets merged along the links
	// so suffix matches surface without chasing chains at scan time.
	fail := make([]int32, len(a.emit))
	queue := make([]int32, 0, len(a.emit))
	for c, v := range row(0) {
		if v < 0 {
			row(0)[c] = 0
		} else {
			fail[v] = 0
			queue = append(queue, v)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for c, v := range row(u) {
			if v < 0 {
				row(u)[c] = row(fail[u])[c]
				continue
			}
			fail[v] = row(fail[u])[c]
			a.emit[v] = append(a.emit[v], a.emit[fail[v]]...)
			queue = append(queue, v)
		}
	}
	return a
}

// scan walks src once, setting seen[id] for every literal that occurs.
func (a *acAutomaton) scan(src string, seen []bool) {
	s := int32(0)
	for i := 0; i < len(src); i++ {
		s = a.next[int(s)*a.classes+int(a.class[src[i]])]
		if es := a.emit[s]; len(es) != 0 {
			for _, id := range es {
				seen[id] = true
			}
		}
	}
}

// scanFolded is the fold walk: scan over src as read in fold-normal form,
// with ſ (C5 BF) read as s and K (E2 84 AA) as k, and A-Z read as a-z
// through the classes buildAutomaton shared. Both sequences start with a
// UTF-8 lead byte, so the walk and Go's regexp decoding agree on where
// they start. The automaton must have been built with fold set.
func (a *acAutomaton) scanFolded(src string, seen []bool) {
	s := int32(0)
	for i := 0; i < len(src); i++ {
		b := src[i]
		if b >= utf8.RuneSelf {
			switch {
			case b == 0xc5 && i+1 < len(src) && src[i+1] == 0xbf:
				b = 's'
				i++
			case b == 0xe2 && i+2 < len(src) && src[i+1] == 0x84 && src[i+2] == 0xaa:
				b = 'k'
				i += 2
			}
		}
		s = a.next[int(s)*a.classes+int(a.class[b])]
		if es := a.emit[s]; len(es) != 0 {
			for _, id := range es {
				seen[id] = true
			}
		}
	}
}

// literalIndex interns the literals of every rule filter and builds the
// shared automata plus the per-rule literal-ID views the candidate
// computation reads. Exact and folded literals share one ID space, so a
// scan marks both in the same seen slice.
type literalIndex struct {
	exact *acAutomaton
	// fold holds the folded literals; nil when no rule has one.
	fold *acAutomaton
	// numLiterals is the size of the seen scratch slice scans need.
	numLiterals int
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
	// maxLit is the most source bytes one literal occurrence can cover;
	// incremental zone scans widen their span by maxLit-1 so no occurrence
	// straddles out.
	maxLit int
}

// buildLiteralIndex interns pattern + requires literals from filters and
// the per-rule excludes literal sets (aligned with filters, nil entries
// allowed) into the shared automata.
func buildLiteralIndex(filters []ruleFilter, excludesLits [][]Literal) *literalIndex {
	ix := &literalIndex{
		patternIDs:  make([][]int32, len(filters)),
		requiresIDs: make([][]int32, len(filters)),
		excludesIDs: make([][]int32, len(filters)),
	}
	var exact, folded []string
	var exactIDs, foldedIDs []int32
	ids := map[Literal]int32{}
	intern := func(set []Literal) []int32 {
		if set == nil {
			return nil
		}
		out := make([]int32, len(set))
		for i, lit := range set {
			id, ok := ids[lit]
			if !ok {
				id = int32(len(ids))
				ids[lit] = id
				cover := len(lit.Text)
				if lit.Fold {
					folded, foldedIDs = append(folded, lit.Text), append(foldedIDs, id)
					cover *= maxFoldBytes
				} else {
					exact, exactIDs = append(exact, lit.Text), append(exactIDs, id)
				}
				ix.maxLit = max(ix.maxLit, cover)
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
	ix.numLiterals = len(ids)
	ix.exact = buildAutomaton(exact, exactIDs, false)
	if len(folded) > 0 {
		ix.fold = buildAutomaton(folded, foldedIDs, true)
	}
	return ix
}

// scan walks src for every literal, exact and folded, setting seen[id]
// for each that occurs. seen must have length numLiterals; scan
// allocates nothing.
func (ix *literalIndex) scan(src string, seen []bool) {
	ix.exact.scan(src, seen)
	if ix.fold != nil {
		ix.fold.scanFolded(src, seen)
	}
}

// candidates runs the literal scan and derives the rule bitset: a rule is
// a candidate iff at least one of its pattern literals occurred and (when
// a requires filter exists) at least one requires literal occurred —
// exactly the decision per-literal strings.Contains probes would make,
// over the fold-normal source for folded literals. seen is caller-
// provided scratch of length numLiterals, zeroed on entry and left dirty
// on return.
func (ix *literalIndex) candidates(src string, seen []bool, numRules int) bitset {
	ix.scan(src, seen)
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

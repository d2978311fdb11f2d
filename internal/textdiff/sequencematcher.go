// Package textdiff ports the matching core of Python's difflib module —
// SequenceMatcher — to Go, operating over string slices (token sequences).
//
// The paper's rule-mining workflow (§II-A) uses difflib.SequenceMatcher to
// compare the common vulnerable pattern LCSv with the common safe pattern
// LCSs and extract the additional code present only in the safe version.
// This package reproduces the algorithm: longest matching blocks found
// recursively, with the same junk-free b2j index and the same opcode
// classification (equal / replace / delete / insert).
package textdiff

import "sort"

// Match describes a matching block: a[A:A+Size] == b[B:B+Size].
type Match struct {
	A, B, Size int
}

// OpTag classifies an opcode region.
type OpTag string

// Opcode tags, matching difflib's strings.
const (
	OpEqual   OpTag = "equal"
	OpReplace OpTag = "replace"
	OpDelete  OpTag = "delete"
	OpInsert  OpTag = "insert"
)

// OpCode describes how to turn a[I1:I2] into b[J1:J2].
type OpCode struct {
	Tag            OpTag
	I1, I2, J1, J2 int
}

// SequenceMatcher compares two sequences of strings. It mirrors
// difflib.SequenceMatcher with autojunk disabled (the sequences here are
// short token streams where the popularity heuristic would hurt).
type SequenceMatcher struct {
	a, b []string
	b2j  map[string][]int

	matchingBlocks []Match
	opCodes        []OpCode
}

// NewMatcher returns a SequenceMatcher comparing a to b.
func NewMatcher(a, b []string) *SequenceMatcher {
	m := &SequenceMatcher{a: a, b: b}
	m.chainB()
	return m
}

func (m *SequenceMatcher) chainB() {
	m.b2j = make(map[string][]int, len(m.b))
	for i, s := range m.b {
		m.b2j[s] = append(m.b2j[s], i)
	}
}

// FindLongestMatch finds the longest matching block in a[alo:ahi] and
// b[blo:bhi], preferring the earliest in a, then earliest in b, on ties —
// exactly difflib's tie-breaking.
func (m *SequenceMatcher) FindLongestMatch(alo, ahi, blo, bhi int) Match {
	besti, bestj, bestsize := alo, blo, 0
	j2len := make(map[int]int)
	for i := alo; i < ahi; i++ {
		newj2len := make(map[int]int)
		for _, j := range m.b2j[m.a[i]] {
			if j < blo {
				continue
			}
			if j >= bhi {
				break
			}
			k := j2len[j-1] + 1
			newj2len[j] = k
			if k > bestsize {
				besti, bestj, bestsize = i-k+1, j-k+1, k
			}
		}
		j2len = newj2len
	}
	// Extend the best match in both directions (difflib does this for
	// junk handling; with no junk it is a no-op but kept for parity).
	for besti > alo && bestj > blo && m.a[besti-1] == m.b[bestj-1] {
		besti, bestj, bestsize = besti-1, bestj-1, bestsize+1
	}
	for besti+bestsize < ahi && bestj+bestsize < bhi && m.a[besti+bestsize] == m.b[bestj+bestsize] {
		bestsize++
	}
	return Match{A: besti, B: bestj, Size: bestsize}
}

// GetMatchingBlocks returns the list of matching blocks, ending with a
// zero-length sentinel at (len(a), len(b)).
func (m *SequenceMatcher) GetMatchingBlocks() []Match {
	if m.matchingBlocks != nil {
		return m.matchingBlocks
	}
	type quad struct{ alo, ahi, blo, bhi int }
	queue := []quad{{0, len(m.a), 0, len(m.b)}}
	var matched []Match
	for len(queue) > 0 {
		q := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		match := m.FindLongestMatch(q.alo, q.ahi, q.blo, q.bhi)
		if match.Size == 0 {
			continue
		}
		matched = append(matched, match)
		if q.alo < match.A && q.blo < match.B {
			queue = append(queue, quad{q.alo, match.A, q.blo, match.B})
		}
		if match.A+match.Size < q.ahi && match.B+match.Size < q.bhi {
			queue = append(queue, quad{match.A + match.Size, q.ahi, match.B + match.Size, q.bhi})
		}
	}
	sort.Slice(matched, func(i, j int) bool {
		if matched[i].A != matched[j].A {
			return matched[i].A < matched[j].A
		}
		return matched[i].B < matched[j].B
	})

	// Coalesce adjacent blocks.
	var blocks []Match
	i1, j1, k1 := 0, 0, 0
	for _, m2 := range matched {
		if i1+k1 == m2.A && j1+k1 == m2.B {
			k1 += m2.Size
			continue
		}
		if k1 > 0 {
			blocks = append(blocks, Match{A: i1, B: j1, Size: k1})
		}
		i1, j1, k1 = m2.A, m2.B, m2.Size
	}
	if k1 > 0 {
		blocks = append(blocks, Match{A: i1, B: j1, Size: k1})
	}
	blocks = append(blocks, Match{A: len(m.a), B: len(m.b), Size: 0})
	m.matchingBlocks = blocks
	return blocks
}

// GetOpCodes returns the edit script turning a into b.
func (m *SequenceMatcher) GetOpCodes() []OpCode {
	if m.opCodes != nil {
		return m.opCodes
	}
	var ops []OpCode
	i, j := 0, 0
	for _, block := range m.GetMatchingBlocks() {
		var tag OpTag
		switch {
		case i < block.A && j < block.B:
			tag = OpReplace
		case i < block.A:
			tag = OpDelete
		case j < block.B:
			tag = OpInsert
		}
		if tag != "" {
			ops = append(ops, OpCode{Tag: tag, I1: i, I2: block.A, J1: j, J2: block.B})
		}
		i, j = block.A+block.Size, block.B+block.Size
		if block.Size > 0 {
			ops = append(ops, OpCode{Tag: OpEqual, I1: block.A, I2: i, J1: block.B, J2: j})
		}
	}
	m.opCodes = ops
	return ops
}

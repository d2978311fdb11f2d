package textdiff

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func words(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Fields(s)
}

func TestIdenticalSequences(t *testing.T) {
	a := words("def f ( ) : return 1")
	m := NewMatcher(a, a)
	ops := m.GetOpCodes()
	if len(ops) != 1 || ops[0].Tag != OpEqual {
		t.Errorf("ops = %+v", ops)
	}
}

func TestDisjointSequences(t *testing.T) {
	m := NewMatcher(words("a b c"), words("x y z"))
	ops := m.GetOpCodes()
	if len(ops) != 1 || ops[0].Tag != OpReplace {
		t.Errorf("ops = %+v", ops)
	}
}

// TestDifflibParity checks opcodes against values computed with CPython's
// difflib for the same inputs.
func TestDifflibParity(t *testing.T) {
	// python3: SequenceMatcher(None, "qabxcd", "abycdf").get_opcodes()
	a := strings.Split("qabxcd", "")
	b := strings.Split("abycdf", "")
	m := NewMatcher(a, b)
	want := []OpCode{
		{OpDelete, 0, 1, 0, 0},
		{OpEqual, 1, 3, 0, 2},
		{OpReplace, 3, 4, 2, 3},
		{OpEqual, 4, 6, 3, 5},
		{OpInsert, 6, 6, 5, 6},
	}
	got := m.GetOpCodes()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("opcodes = %+v, want %+v", got, want)
	}
}

func TestMatchingBlocksSentinel(t *testing.T) {
	m := NewMatcher(words("a b"), words("b c"))
	blocks := m.GetMatchingBlocks()
	last := blocks[len(blocks)-1]
	if last.Size != 0 || last.A != 2 || last.B != 2 {
		t.Errorf("sentinel = %+v", last)
	}
}

func TestFindLongestMatch(t *testing.T) {
	// difflib doc example: " abcd" vs "abcd abcd" -> a=0, b=4, size=5
	a := strings.Split(" abcd", "")
	b := strings.Split("abcd abcd", "")
	m := NewMatcher(a, b)
	got := m.FindLongestMatch(0, 5, 0, 9)
	if got.A != 0 || got.B != 4 || got.Size != 5 {
		t.Errorf("match = %+v, want {0 4 5}", got)
	}
}

func TestInsertionsExtractsSafeAdditions(t *testing.T) {
	// The paper's TABLE I example in miniature: the safe pattern adds
	// escape( ... ) and changes debug=True to debug=False. The inserted
	// and replacing runs of the opcodes are the "additional parts of
	// code" rule mining extracts.
	vuln := words("return f < p > { var0 } < / p > debug = True")
	safe := words("return f < p > { escape ( var0 ) } < / p > debug = False")
	var added []string
	for _, op := range NewMatcher(vuln, safe).GetOpCodes() {
		if op.Tag == OpInsert || op.Tag == OpReplace {
			added = append(added, safe[op.J1:op.J2]...)
		}
	}
	flat := strings.Join(added, " ")
	if !strings.Contains(flat, "escape") || !strings.Contains(flat, "False") {
		t.Errorf("insertions = %v", added)
	}
	// The unchanged material must not be reported.
	if strings.Contains(flat, "return") {
		t.Errorf("equal tokens leaked into insertions: %v", added)
	}
}

// Property: opcodes tile both sequences exactly, in order, with no gaps.
func TestOpCodesTile(t *testing.T) {
	f := func(a, b []string) bool {
		m := NewMatcher(a, b)
		i, j := 0, 0
		for _, op := range m.GetOpCodes() {
			if op.I1 != i || op.J1 != j {
				return false
			}
			if op.I2 < op.I1 || op.J2 < op.J1 {
				return false
			}
			i, j = op.I2, op.J2
		}
		return i == len(a) && j == len(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: applying the opcodes to a reconstructs b.
func TestOpCodesReconstruct(t *testing.T) {
	f := func(a, b []string) bool {
		m := NewMatcher(a, b)
		var out []string
		for _, op := range m.GetOpCodes() {
			switch op.Tag {
			case OpEqual:
				out = append(out, a[op.I1:op.I2]...)
			case OpReplace, OpInsert:
				out = append(out, b[op.J1:op.J2]...)
			case OpDelete:
				// nothing
			}
		}
		return reflect.DeepEqual(out, b) || (len(out) == 0 && len(b) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkOpCodes(b *testing.B) {
	a := strings.Split(strings.Repeat("from flask import Flask request escape app route def return ", 5), " ")
	c := strings.Split(strings.Repeat("from flask import Flask request app route def comments return escape var0 ", 5), " ")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewMatcher(a, c).GetOpCodes()
	}
}

// Package editor reproduces the editor-integration layer of the paper's
// VS Code extension: Position/Range/TextEdit types modelled on the VS Code
// Extension API, an edit applier equivalent to editBuilder.replace(), and
// a line-oriented JSON session protocol (served by `patchitpy serve`) that
// mirrors the extension's detect → popup → patch interaction.
package editor

import (
	"fmt"
	"sort"
	"strings"

	"github.com/dessertlab/patchitpy/internal/lineindex"
)

// Position is a zero-based line/character location, as in the VS Code API.
type Position struct {
	Line      int `json:"line"`
	Character int `json:"character"`
}

// Range is a half-open [Start, End) span.
type Range struct {
	Start Position `json:"start"`
	End   Position `json:"end"`
}

// TextEdit replaces the text in Range with NewText.
type TextEdit struct {
	Range   Range  `json:"range"`
	NewText string `json:"newText"`
}

// WorkspaceEdit is an ordered set of edits to one document.
type WorkspaceEdit struct {
	Edits []TextEdit `json:"edits"`
}

// PosMapper converts between byte offsets and Positions of one document
// through a shared line index: build it once, then every conversion is
// O(log lines). The package-level OffsetToPosition builds a throwaway
// index per call (O(n)); anything converting more than one position of
// the same document should use a PosMapper — the old
// strings.Count/IndexByte loops made such callers quadratic.
type PosMapper struct {
	src string
	ix  lineindex.Index
}

// NewPosMapper indexes src for repeated position conversions.
func NewPosMapper(src string) PosMapper {
	return PosMapper{src: src, ix: lineindex.New(src)}
}

// MapperFor wraps an already-built line index of src. The index must have
// been built from exactly this source.
func MapperFor(src string, ix lineindex.Index) PosMapper {
	return PosMapper{src: src, ix: ix}
}

// OffsetToPosition converts a byte offset to a Position. Offsets past the
// end of the source clamp to the end.
func (m PosMapper) OffsetToPosition(offset int) Position {
	if offset > len(m.src) {
		offset = len(m.src)
	}
	line, col := m.ix.Position(offset)
	return Position{Line: line, Character: col}
}

// PositionToOffset converts a Position to a byte offset. Positions past
// the end of a line clamp to the line end; lines past the end clamp to
// len(src).
func (m PosMapper) PositionToOffset(pos Position) int {
	if pos.Line < 0 {
		pos.Line = 0
	}
	if pos.Line >= m.ix.NumLines() {
		return len(m.src)
	}
	start := m.ix.LineStart(pos.Line)
	end := len(m.src)
	if pos.Line+1 < m.ix.NumLines() {
		end = m.ix.LineStart(pos.Line+1) - 1 // exclude the '\n'
	}
	col := pos.Character
	if col > end-start {
		col = end - start
	}
	if col < 0 {
		col = 0
	}
	return start + col
}

// Resolve converts a Range to byte offsets.
func (m PosMapper) Resolve(r Range) (start, end int) {
	return m.PositionToOffset(r.Start), m.PositionToOffset(r.End)
}

// OffsetToPosition converts a byte offset in src to a Position.
func OffsetToPosition(src string, offset int) Position {
	return NewPosMapper(src).OffsetToPosition(offset)
}

// SpanEdit builds a TextEdit replacing src[start:end] with newText.
func SpanEdit(src string, start, end int, newText string) TextEdit {
	return TextEdit{
		Range: Range{
			Start: OffsetToPosition(src, start),
			End:   OffsetToPosition(src, end),
		},
		NewText: newText,
	}
}

// ApplyEdits applies the edits to src — the equivalent of the extension's
// editBuilder.replace() loop. Overlapping edits are an error.
func ApplyEdits(src string, edits []TextEdit) (string, error) {
	type offsetEdit struct {
		start, end int
		text       string
	}
	m := NewPosMapper(src)
	resolved := make([]offsetEdit, 0, len(edits))
	for _, e := range edits {
		start, end := m.Resolve(e.Range)
		if end < start {
			return "", fmt.Errorf("edit range inverted: %+v", e.Range)
		}
		resolved = append(resolved, offsetEdit{start, end, e.NewText})
	}
	sort.Slice(resolved, func(i, j int) bool { return resolved[i].start < resolved[j].start })
	for i := 1; i < len(resolved); i++ {
		if resolved[i].start < resolved[i-1].end {
			return "", fmt.Errorf("overlapping edits at offset %d", resolved[i].start)
		}
	}
	var b strings.Builder
	b.Grow(len(src))
	last := 0
	for _, e := range resolved {
		b.WriteString(src[last:e.start])
		b.WriteString(e.text)
		last = e.end
	}
	b.WriteString(src[last:])
	return b.String(), nil
}

package editor

import (
	"testing"
	"testing/quick"
)

const sample = "line one\nline two\nline three\n"

func TestOffsetToPosition(t *testing.T) {
	cases := []struct {
		offset int
		want   Position
	}{
		{0, Position{0, 0}},
		{4, Position{0, 4}},
		{9, Position{1, 0}},
		{14, Position{1, 5}},
		{18, Position{2, 0}},
		{len(sample), Position{3, 0}},
		{len(sample) + 100, Position{3, 0}}, // clamps
	}
	for _, tc := range cases {
		if got := OffsetToPosition(sample, tc.offset); got != tc.want {
			t.Errorf("OffsetToPosition(%d) = %+v, want %+v", tc.offset, got, tc.want)
		}
	}
}

func TestPositionToOffset(t *testing.T) {
	cases := []struct {
		pos  Position
		want int
	}{
		{Position{0, 0}, 0},
		{Position{1, 0}, 9},
		{Position{1, 5}, 14},
		{Position{0, 999}, 8}, // clamps to line end
		{Position{99, 0}, len(sample)},
	}
	for _, tc := range cases {
		if got := NewPosMapper(sample).PositionToOffset(tc.pos); got != tc.want {
			t.Errorf("PositionToOffset(%+v) = %d, want %d", tc.pos, got, tc.want)
		}
	}
}

func TestRoundTripOffsets(t *testing.T) {
	f := func(src string, rawOffset uint16) bool {
		offset := int(rawOffset) % (len(src) + 1)
		pos := OffsetToPosition(src, offset)
		back := NewPosMapper(src).PositionToOffset(pos)
		return back == offset
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestApplyEditsSingle(t *testing.T) {
	src := "app.run(debug=True)\n"
	edit := SpanEdit(src, 8, 18, "debug=False, use_reloader=False")
	got, err := ApplyEdits(src, []TextEdit{edit})
	if err != nil {
		t.Fatal(err)
	}
	want := "app.run(debug=False, use_reloader=False)\n"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestApplyEditsMultiple(t *testing.T) {
	src := "a = md5(x)\nb = md5(y)\n"
	edits := []TextEdit{
		SpanEdit(src, 4, 7, "sha256"),
		SpanEdit(src, 15, 18, "sha256"),
	}
	got, err := ApplyEdits(src, edits)
	if err != nil {
		t.Fatal(err)
	}
	want := "a = sha256(x)\nb = sha256(y)\n"
	if got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

func TestApplyEditsOutOfOrder(t *testing.T) {
	src := "aaa bbb ccc\n"
	edits := []TextEdit{
		SpanEdit(src, 8, 11, "C"),
		SpanEdit(src, 0, 3, "A"),
	}
	got, err := ApplyEdits(src, edits)
	if err != nil {
		t.Fatal(err)
	}
	if got != "A bbb C\n" {
		t.Errorf("got %q", got)
	}
}

func TestApplyEditsOverlapRejected(t *testing.T) {
	src := "abcdef\n"
	edits := []TextEdit{
		SpanEdit(src, 0, 4, "X"),
		SpanEdit(src, 2, 6, "Y"),
	}
	if _, err := ApplyEdits(src, edits); err == nil {
		t.Error("overlapping edits accepted")
	}
}

func TestApplyEditsInsertion(t *testing.T) {
	src := "def f():\n    pass\n"
	edits := []TextEdit{SpanEdit(src, 0, 0, "import os\n")}
	got, err := ApplyEdits(src, edits)
	if err != nil {
		t.Fatal(err)
	}
	if got != "import os\ndef f():\n    pass\n" {
		t.Errorf("got %q", got)
	}
}

func TestApplyEditsEmpty(t *testing.T) {
	got, err := ApplyEdits(sample, nil)
	if err != nil || got != sample {
		t.Errorf("no-op failed: %q, %v", got, err)
	}
}

// slowOffsetToPosition is the pre-index reference implementation.
func slowOffsetToPosition(src string, offset int) Position {
	if offset > len(src) {
		offset = len(src)
	}
	line, col := 0, 0
	for i := 0; i < offset; i++ {
		if src[i] == '\n' {
			line++
			col = 0
		} else {
			col++
		}
	}
	return Position{Line: line, Character: col}
}

// slowPositionToOffset is the pre-index reference implementation.
func slowPositionToOffset(src string, pos Position) int {
	offset := 0
	for line := 0; line < pos.Line; line++ {
		nl := -1
		for i := offset; i < len(src); i++ {
			if src[i] == '\n' {
				nl = i - offset
				break
			}
		}
		if nl < 0 {
			return len(src)
		}
		offset += nl + 1
	}
	lineEnd := -1
	for i := offset; i < len(src); i++ {
		if src[i] == '\n' {
			lineEnd = i - offset
			break
		}
	}
	if lineEnd < 0 {
		lineEnd = len(src) - offset
	}
	col := pos.Character
	if col > lineEnd {
		col = lineEnd
	}
	return offset + col
}

func TestPosMapperMatchesReference(t *testing.T) {
	srcs := []string{
		"",
		"no newline",
		"\n",
		"a\nbb\nccc",
		"a\nbb\nccc\n",
		"\n\n\n",
		"crlf\r\nlines\r\n",
		sample,
	}
	for _, src := range srcs {
		m := NewPosMapper(src)
		for off := 0; off <= len(src)+2; off++ {
			if got, want := m.OffsetToPosition(off), slowOffsetToPosition(src, off); got != want {
				t.Fatalf("OffsetToPosition(%d) in %q = %+v, want %+v", off, src, got, want)
			}
		}
		for line := 0; line <= len(src)+2; line++ {
			for ch := 0; ch <= len(src)+2; ch++ {
				pos := Position{Line: line, Character: ch}
				if got, want := m.PositionToOffset(pos), slowPositionToOffset(src, pos); got != want {
					t.Fatalf("PositionToOffset(%+v) in %q = %d, want %d", pos, src, got, want)
				}
			}
		}
	}
}

package detect

import (
	"context"
	"fmt"
	"sort"
	"time"

	"github.com/dessertlab/patchitpy/internal/editor"
	"github.com/dessertlab/patchitpy/internal/lineindex"
	"github.com/dessertlab/patchitpy/internal/pytoken"
	"github.com/dessertlab/patchitpy/internal/rules"
)

// Incremental re-scanning. ApplyEdit splices the source of a Prepared in
// place and records a merged "dirty window" of whole lines; RescanEdited
// then re-runs only the rules the edits could have affected and replays
// every other finding from the previous scan, shifted through the new
// line index. The result is byte-identical to a from-scratch scan — the
// randomized equivalence suite in incremental_test.go is the gate.
//
// Three mechanisms make that equivalence cheap to maintain:
//
//  1. Per-rule locality classes (locality.go). Pure-local rules re-match
//     just the dirty window; analyzable rules re-run only when a literal
//     of theirs occurs in a bounded zone around the window, in the old
//     or the new text; everything else re-runs in full.
//
//  2. The tokenization-artifact splice (tier 1). When the window swap
//     provably cannot change how the prefix or suffix tokenizes — entry
//     at bracket depth zero on a fresh logical line, equal exit depth,
//     no continuation across the boundary, equal indent profiles — the
//     comment mask, string spans and line-depth table are spliced rather
//     than rebuilt. Otherwise the rescan retokenizes (tier 2) and, if
//     the mask changed outside the window, falls back to a full scan
//     (tier 3).
//
//  3. The candidate bitset is refreshed from the same zone literal scan,
//     monotonically: stale extra bits only cost regex runs that find
//     nothing, never findings.

// tokArtifacts bundles what one tokenization pass yields: the comment
// mask, the spans of string literals that cross a physical line, and the
// bracket depth at each line start. tokOK records whether the pass was
// clean; on error the tables are best-effort up to the error.
type tokArtifacts struct {
	mask      []span
	strs      []span
	lineDepth []int32
	tokOK     bool
}

// buildArtifacts tokenizes src and derives the artifact tables, reading
// the token stream as it is produced rather than materializing it. ix
// must index src.
func buildArtifacts(src string, ix lineindex.Index) tokArtifacts {
	a := tokArtifacts{tokOK: true, lineDepth: make([]int32, ix.NumLines())}
	depth := int32(0)
	k := 0
	for tz := pytoken.New(src); ; {
		t, err := tz.Next()
		if err != nil {
			a.tokOK = false
			break
		}
		if t.Kind == pytoken.KindEOF {
			break
		}
		off := t.Pos.Offset
		for k < ix.NumLines() && ix.LineStart(k) <= off {
			a.lineDepth[k] = depth
			k++
		}
		switch t.Kind {
		case pytoken.KindOp:
			// Mirror the tokenizer's parenDepth exactly, including the
			// silent clamp of an unmatched closer.
			switch t.Text {
			case "(", "[", "{":
				depth++
			case ")", "]", "}":
				if depth > 0 {
					depth--
				}
			}
		case pytoken.KindComment:
			a.mask = append(a.mask, span{off, off + len(t.Text)})
		case pytoken.KindString:
			if multilineText(t.Text) {
				a.strs = append(a.strs, span{off, off + len(t.Text)})
			}
		}
	}
	for ; k < ix.NumLines(); k++ {
		a.lineDepth[k] = depth
	}
	return a
}

func multilineText(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' || s[i] == '\r' {
			return true
		}
	}
	return false
}

// winInfo summarizes a standalone tokenization of a window's text, as
// entered at bracket depth 0, outside any string, at a line start.
type winInfo struct {
	ok         bool
	mask       []span  // window-local offsets
	strs       []span  // window-local offsets
	lineDepths []int32 // depth at each window line start (first is 0)
	endDepth   int32
	endCont    bool  // text ends in a backslash line continuation
	profile    []int // indent columns handleLineStart would process
}

// analyzeWindow tokenizes text on its own and reports whether the result
// can stand in for the same bytes inside a larger document (given the
// entry-state preconditions spliceArtifacts checks). ok is false when the
// text does not tokenize cleanly in isolation or contains a lone '\r'
// (a newline to the tokenizer but not to the line index).
func analyzeWindow(text string) winInfo {
	var w winInfo
	for i := 0; i < len(text); i++ {
		if text[i] == '\r' && (i+1 >= len(text) || text[i+1] != '\n') {
			return w
		}
	}
	ix := lineindex.New(text)
	nLines := ix.NumLines()
	if len(text) > 0 && text[len(text)-1] == '\n' {
		// The empty "line" after a trailing newline belongs to whatever
		// follows the window, not to it.
		nLines--
	}
	w.lineDepths = make([]int32, nLines)
	depth := int32(0)
	k := 0
	starts := []int{0}
	for tz := pytoken.New(text); ; {
		t, err := tz.Next()
		if err != nil {
			return winInfo{}
		}
		if t.Kind == pytoken.KindEOF {
			break
		}
		off := t.Pos.Offset
		for k < nLines && ix.LineStart(k) <= off {
			w.lineDepths[k] = depth
			k++
		}
		switch t.Kind {
		case pytoken.KindOp:
			switch t.Text {
			case "(", "[", "{":
				depth++
			case ")", "]", "}":
				if depth > 0 {
					depth--
				}
			}
		case pytoken.KindComment:
			w.mask = append(w.mask, span{off, off + len(t.Text)})
		case pytoken.KindString:
			if multilineText(t.Text) {
				w.strs = append(w.strs, span{off, off + len(t.Text)})
			}
		case pytoken.KindNewline, pytoken.KindNL:
			// Newline tokens only appear at bracket depth 0, so the
			// offsets after them are exactly the tokenizer's
			// handleLineStart entry points.
			starts = append(starts, t.End.Offset)
		}
	}
	for ; k < nLines; k++ {
		w.lineDepths[k] = depth
	}
	w.endDepth = depth
	w.endCont = endsInContinuation(text)
	for _, o := range starts {
		if col, code := measureIndent(text, o); code {
			w.profile = append(w.profile, col)
		}
	}
	w.ok = true
	return w
}

// endsInContinuation reports whether text's final newline is escaped by a
// backslash. Conservative: a backslash that is really inside a comment
// also reports true, which only forces a fallback, never a wrong splice.
func endsInContinuation(text string) bool {
	n := len(text)
	if n >= 2 && text[n-1] == '\n' {
		if text[n-2] == '\\' {
			return true
		}
		if n >= 3 && text[n-2] == '\r' && text[n-3] == '\\' {
			return true
		}
	}
	return false
}

// measureIndent mirrors handleLineStart's indentation measurement at
// offset o of text: spaces count 1, tabs expand to the next multiple of
// 8, and blank or comment-only lines (and end of text) carry no indent
// event (code false).
func measureIndent(text string, o int) (col int, code bool) {
	i := o
loop:
	for i < len(text) {
		switch text[i] {
		case ' ':
			col++
			i++
		case '\t':
			col += 8 - col%8
			i++
		default:
			break loop
		}
	}
	if i >= len(text) {
		return 0, false
	}
	switch text[i] {
	case '\n', '\r', '#':
		return 0, false
	}
	return col, true
}

// lineWindow returns the whole-line dirty window covering bytes
// [start, end] of the indexed source: from the start of the line
// containing start to the start of the line after the one containing end
// (or EOF).
func lineWindow(ix lineindex.Index, srcLen, start, end int) (int, int) {
	sLine, _ := ix.Position(start)
	eLine, _ := ix.Position(end)
	ws := ix.LineStart(sLine)
	weOld := srcLen
	if eLine+1 < ix.NumLines() {
		weOld = ix.LineStart(eLine + 1)
	}
	return ws, weOld
}

// widenToStrings grows the window until every multi-line string span it
// intersects lies fully inside it, re-aligned to line boundaries. Growing
// can swallow further spans, so it iterates to a fixpoint.
func widenToStrings(ix lineindex.Index, srcLen, ws, weOld int, strs []span) (int, int) {
	for {
		changed := false
		for _, s := range strs {
			if s.start >= weOld || s.end <= ws {
				continue
			}
			if s.start < ws {
				l, _ := ix.Position(s.start)
				if v := ix.LineStart(l); v < ws {
					ws = v
					changed = true
				}
			}
			if s.end > weOld {
				l, _ := ix.Position(s.end - 1)
				v := srcLen
				if l+1 < ix.NumLines() {
					v = ix.LineStart(l + 1)
				}
				if v > weOld {
					weOld = v
					changed = true
				}
			}
		}
		if !changed {
			return ws, weOld
		}
	}
}

// zoneBounds widens the window [ws, we) to the affectedness zone: hops
// extra non-blank lines in each direction — skipping whitespace-only
// lines, which an analyzable match's gaps may cross freely — plus slop
// bytes so no literal occurrence straddles the boundary.
func zoneBounds(src string, ix lineindex.Index, ws, we, hops, slop int) (int, int) {
	blank := func(k int) bool {
		end := len(src)
		if k+1 < ix.NumLines() {
			end = ix.LineStart(k + 1)
		}
		for i := ix.LineStart(k); i < end; i++ {
			switch src[i] {
			case ' ', '\t', '\n', '\v', '\f', '\r':
			default:
				return false
			}
		}
		return true
	}
	lo := ws
	if lo > 0 {
		k, _ := ix.Position(lo)
		j := k - 1
		for h := 0; h < hops && j >= 0; h++ {
			for j >= 0 && blank(j) {
				j--
			}
			if j < 0 {
				break
			}
			lo = ix.LineStart(j)
			j--
		}
		if j < 0 {
			lo = 0
		}
	}
	hi := we
	if hi < len(src) {
		k, _ := ix.Position(hi)
		j := k
		for h := 0; h < hops && j < ix.NumLines(); h++ {
			for j < ix.NumLines() && blank(j) {
				j++
			}
			if j >= ix.NumLines() {
				break
			}
			if j+1 < ix.NumLines() {
				hi = ix.LineStart(j + 1)
			} else {
				hi = len(src)
			}
			j++
		}
		if j >= ix.NumLines() {
			hi = len(src)
		}
	}
	if lo -= slop; lo < 0 {
		lo = 0
	}
	if hi += slop; hi > len(src) {
		hi = len(src)
	}
	return lo, hi
}

// pendingEdit accumulates the state of an edit sequence between the first
// ApplyEdit and the RescanEdited that consumes it.
type pendingEdit struct {
	ws         int    // merged window start; the prefix before it is untouched
	weNew      int    // merged window end, in current-source coordinates
	totalDelta int    // len(current) - len(pre-sequence source)
	seenOld    []bool // literals seen in any per-edit old-text zone
	maskStale  bool   // an artifact splice failed; tok artifacts dropped
	oldMask    []span // pre-sequence comment mask, for tier-2 comparison
}

// ApplyEdit applies one edit to the document: the source is spliced, the
// line index shifted through lineindex.Splice, and the tokenization
// artifacts spliced in place when the edit is provably tokenizer-safe.
// The edit's Range is resolved against the current source. The dirty
// window accumulates so a later RescanEdited re-runs only affected
// rules. Requires external write exclusivity (see the Prepared comment).
func (p *Prepared) ApplyEdit(e editor.TextEdit) error {
	m := editor.MapperFor(p.src, p.Lines())
	start, end := m.Resolve(e.Range)
	if end < start {
		return fmt.Errorf("edit range inverted: %+v", e.Range)
	}
	p.applySpan(start, end, e.NewText)
	return nil
}

// ApplyEdits applies a batch of edits whose ranges all refer to the
// current source — the editor.ApplyEdits convention, not sequential
// application. Overlapping edits are an error; the document is unchanged
// on error.
func (p *Prepared) ApplyEdits(edits []editor.TextEdit) error {
	if len(edits) == 0 {
		return nil
	}
	type offsetEdit struct {
		start, end int
		text       string
	}
	m := editor.MapperFor(p.src, p.Lines())
	resolved := make([]offsetEdit, 0, len(edits))
	for _, e := range edits {
		start, end := m.Resolve(e.Range)
		if end < start {
			return fmt.Errorf("edit range inverted: %+v", e.Range)
		}
		resolved = append(resolved, offsetEdit{start, end, e.NewText})
	}
	sort.Slice(resolved, func(i, j int) bool { return resolved[i].start < resolved[j].start })
	for i := 1; i < len(resolved); i++ {
		if resolved[i].start < resolved[i-1].end {
			return fmt.Errorf("overlapping edits at offset %d", resolved[i].start)
		}
	}
	// Back to front, so earlier offsets stay valid as the text shifts.
	for i := len(resolved) - 1; i >= 0; i-- {
		r := resolved[i]
		p.applySpan(r.start, r.end, r.text)
	}
	return nil
}

// applySpan replaces src[start:end] with repl and maintains every
// artifact the Prepared carries.
func (p *Prepared) applySpan(start, end int, repl string) {
	defer p.gen.Add(1)
	if start == end && repl == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	d := p.d
	ix := p.linesLocked()
	src := p.src

	// Materialize the pre-edit artifacts while the old text is still
	// here: the string spans widen the window, the mask seeds the tier-2
	// snapshot, and the old-text zone must be literal-scanned before the
	// splice destroys it.
	stale := p.pending != nil && p.pending.maskStale
	var tok tokArtifacts
	if !stale {
		tok = p.tokLocked()
	}
	if p.haveCand {
		p.candStale = true
	}
	// The taint analysis has no incremental path; recompute after edits.
	p.haveTaint = false
	p.taintA = nil

	ws, weOld := lineWindow(ix, len(src), start, end)
	if !stale {
		ws, weOld = widenToStrings(ix, len(src), ws, weOld, tok.strs)
	}

	if p.pending == nil {
		p.pending = &pendingEdit{
			ws:      -1,
			seenOld: make([]bool, d.lits.numLiterals),
			oldMask: tok.mask,
		}
	}
	pd := p.pending

	// Literal scan of the old-text zone around this edit's window; with
	// the new-text zone scanned at rescan time, it decides affectedness.
	slop := d.lits.maxLit - 1
	if slop < 0 {
		slop = 0
	}
	lo, hi := zoneBounds(src, ix, ws, weOld, d.zoneReach, slop)
	d.lits.scan(src[lo:hi], pd.seenOld)

	delta := len(repl) - (end - start)
	weNew := weOld + delta

	if !pd.maskStale {
		newWin := src[ws:start] + repl + src[end:weOld]
		if spliced, ok := spliceArtifacts(tok, ix, src, ws, weOld, delta, newWin); ok {
			p.tok = spliced
			p.haveTok = true
		} else {
			pd.maskStale = true
			p.haveTok = false
			p.tok = tokArtifacts{}
		}
	}

	p.src = src[:start] + repl + src[end:]
	p.lines = ix.Splice(start, end, repl)
	p.haveLines = true

	// Merge this edit's window into the pending one. The previous end
	// maps through this edit's shift; an end inside this window clamps
	// to its new end.
	if pd.ws < 0 {
		pd.ws, pd.weNew, pd.totalDelta = ws, weNew, delta
		return
	}
	mapped := pd.weNew
	if mapped >= weOld {
		mapped += delta
	} else if mapped > ws {
		mapped = weNew
	}
	if weNew > mapped {
		mapped = weNew
	}
	if ws < pd.ws {
		pd.ws = ws
	}
	pd.weNew = mapped
	pd.totalDelta += delta
}

// spliceArtifacts computes the artifacts of the document that results
// from replacing the whole-line window [ws, weOld) with newWin, without
// retokenizing the rest. It succeeds only when the swap provably cannot
// change how anything outside the window tokenizes:
//
//   - the old run was clean (tokOK) and the window begins a fresh
//     logical line at bracket depth 0 (no enclosing bracket, no
//     backslash continuation gluing it to the prefix; multi-line
//     strings were already widened into the window);
//   - both window texts tokenize cleanly standalone (which, with the
//     depth-0 entry, makes the standalone run equal the in-context run
//     up to the unknown shared indent stack);
//   - when a suffix exists: both windows exit at the suffix's recorded
//     bracket depth, neither ends in a continuation, and both have the
//     same indent profile, so the unknown entry indent stack evolves
//     identically and the suffix retokenizes byte-for-byte.
func spliceArtifacts(tok tokArtifacts, ix lineindex.Index, src string, ws, weOld, delta int, newWin string) (tokArtifacts, bool) {
	if !tok.tokOK {
		return tokArtifacts{}, false
	}
	wsLine, _ := ix.Position(ws)
	if int(tok.lineDepth[wsLine]) != 0 {
		return tokArtifacts{}, false
	}
	if ws >= 2 && src[ws-1] == '\n' {
		if src[ws-2] == '\\' || (ws >= 3 && src[ws-2] == '\r' && src[ws-3] == '\\') {
			return tokArtifacts{}, false
		}
	}
	oldWin := analyzeWindow(src[ws:weOld])
	if !oldWin.ok {
		return tokArtifacts{}, false
	}
	newInfo := analyzeWindow(newWin)
	if !newInfo.ok {
		return tokArtifacts{}, false
	}
	if weOld < len(src) {
		sufLine, _ := ix.Position(weOld)
		if newInfo.endDepth != tok.lineDepth[sufLine] || oldWin.endDepth != tok.lineDepth[sufLine] {
			return tokArtifacts{}, false
		}
		if oldWin.endCont || newInfo.endCont {
			return tokArtifacts{}, false
		}
		if len(oldWin.profile) != len(newInfo.profile) {
			return tokArtifacts{}, false
		}
		for i := range oldWin.profile {
			if oldWin.profile[i] != newInfo.profile[i] {
				return tokArtifacts{}, false
			}
		}
	}

	out := tokArtifacts{tokOK: true}
	out.mask = spliceSpans(tok.mask, ws, weOld, delta, newInfo.mask)
	out.strs = spliceSpans(tok.strs, ws, weOld, delta, newInfo.strs)

	sufStart := ix.NumLines()
	if weOld < len(src) {
		sufStart, _ = ix.Position(weOld)
	}
	out.lineDepth = make([]int32, 0, wsLine+len(newInfo.lineDepths)+(ix.NumLines()-sufStart)+1)
	out.lineDepth = append(out.lineDepth, tok.lineDepth[:wsLine]...)
	out.lineDepth = append(out.lineDepth, newInfo.lineDepths...)
	if weOld < len(src) {
		out.lineDepth = append(out.lineDepth, tok.lineDepth[sufStart:]...)
	} else if len(newWin) > 0 && newWin[len(newWin)-1] == '\n' {
		// The new document ends with a newline: the empty final line.
		out.lineDepth = append(out.lineDepth, newInfo.endDepth)
	}
	return out, true
}

// spliceSpans splices sorted, window-disjoint spans: prefix spans kept,
// window spans rebased from window-local offsets, suffix spans shifted.
func spliceSpans(old []span, ws, weOld, delta int, win []span) []span {
	pfx := sort.Search(len(old), func(i int) bool { return old[i].end > ws })
	sfx := sort.Search(len(old), func(i int) bool { return old[i].start >= weOld })
	out := make([]span, 0, pfx+len(win)+(len(old)-sfx))
	out = append(out, old[:pfx]...)
	for _, s := range win {
		out = append(out, span{s.start + ws, s.end + ws})
	}
	for _, s := range old[sfx:] {
		out = append(out, span{s.start + delta, s.end + delta})
	}
	return out
}

// masksEqualOutside reports whether the old and new comment masks agree
// outside the merged window: prefix spans identical and suffix spans
// identical after shifting by delta. Comments never span lines and the
// window is line-aligned, so every span falls cleanly on one side.
func masksEqualOutside(oldMask, newMask []span, ws, weOld, weNew, delta int) bool {
	oldPfx := sort.Search(len(oldMask), func(i int) bool { return oldMask[i].end > ws })
	newPfx := sort.Search(len(newMask), func(i int) bool { return newMask[i].end > ws })
	if oldPfx != newPfx {
		return false
	}
	for i := 0; i < oldPfx; i++ {
		if oldMask[i] != newMask[i] {
			return false
		}
	}
	oldSfx := sort.Search(len(oldMask), func(i int) bool { return oldMask[i].start >= weOld })
	newSfx := sort.Search(len(newMask), func(i int) bool { return newMask[i].start >= weNew })
	if len(oldMask)-oldSfx != len(newMask)-newSfx {
		return false
	}
	for i, j := oldSfx, newSfx; i < len(oldMask); i, j = i+1, j+1 {
		if oldMask[i].start+delta != newMask[j].start || oldMask[i].end+delta != newMask[j].end {
			return false
		}
	}
	return true
}

// anySeenIn reports whether any of ids is marked in seen. Unlike the
// candidate computation, a nil ids means "no such gate" and contributes
// false.
func anySeenIn(seen []bool, ids []int32) bool {
	for _, id := range ids {
		if seen[id] {
			return true
		}
	}
	return false
}

// RescanStats describes how an incremental rescan resolved.
type RescanStats struct {
	// Full is true when the rescan fell back to a from-scratch scan:
	// no pending edits, or the comment mask changed outside the window.
	Full bool
	// MaskSpliced is true when every edit's artifact splice succeeded
	// (tier 1). False with Full false means the mask was retokenized but
	// verified unchanged outside the window (tier 2).
	MaskSpliced bool
	// DirtyBytes is the merged dirty-window size in the new source.
	DirtyBytes int
	// RulesRerun counts rules whose regexes ran in full; RulesReplayed
	// counts admitted rules that replayed previous findings instead
	// (pure-local rules, whose window re-match is O(window), included).
	RulesRerun, RulesReplayed int
}

// RescanEdited computes the findings of the current (edited) source,
// given prev — the complete findings of the source as it was before the
// pending edits, scanned with the same opt. Rules the edits provably
// cannot affect replay their previous findings shifted through the new
// line index; the rest re-run. The output is byte-identical to a
// from-scratch scan of the current source (the randomized equivalence
// suite is the gate). With no pending edits it degrades to a plain
// uncached scan. Requires external write exclusivity, like ApplyEdit.
func (d *Detector) RescanEdited(p *Prepared, prev []Finding, opt Options) ([]Finding, RescanStats) {
	return d.RescanEditedContext(context.Background(), p, prev, opt)
}

// RescanEditedContext is RescanEdited with a caller context, which
// carries the tracing span tree and any context-scoped obs registry
// through rule re-runs and full-scan fallbacks.
func (d *Detector) RescanEditedContext(ctx context.Context, p *Prepared, prev []Finding, opt Options) ([]Finding, RescanStats) {
	m := d.met
	timed := m != nil && m.reg.Enabled()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}
	p.mu.Lock()
	pd := p.pending
	if pd == nil {
		p.mu.Unlock()
		return d.scanPrepared(ctx, p, opt), RescanStats{Full: true}
	}
	p.pending = nil
	ws, weNew, totalDelta := pd.ws, pd.weNew, pd.totalDelta
	weOld := weNew - totalDelta
	stats := RescanStats{DirtyBytes: weNew - ws, MaskSpliced: !pd.maskStale}

	ix := p.linesLocked()
	src := p.src

	if pd.maskStale {
		// Tier 2: retokenize in full, then verify the mask is unchanged
		// outside the merged window. A difference there — say an inserted
		// quote turning suffix comments into string content — invalidates
		// replay entirely (tier 3).
		p.tok = buildArtifacts(src, ix)
		p.haveTok = true
		if !masksEqualOutside(pd.oldMask, p.tok.mask, ws, weOld, weNew, totalDelta) {
			p.mu.Unlock()
			stats.Full = true
			out := d.scanPrepared(ctx, p, opt)
			if timed {
				d.recordRescan(stats, time.Since(t0))
			}
			return out, stats
		}
	}
	mask := p.tokLocked().mask

	// New-text zone literal scan: together with the per-edit old-text
	// scans it decides affectedness, and it refreshes the candidate
	// bitset monotonically (extra bits only cost regex runs).
	seenPtr := d.seenPool.Get().(*[]bool)
	seenNew := *seenPtr
	for i := range seenNew {
		seenNew[i] = false
	}
	slop := d.lits.maxLit - 1
	if slop < 0 {
		slop = 0
	}
	lo, hi := zoneBounds(src, ix, ws, weNew, d.zoneReach, slop)
	d.lits.scan(src[lo:hi], seenNew)
	if p.haveCand && p.candStale {
		for i := range d.rules {
			if !p.cand.has(i) && (anySeenIn(seenNew, d.lits.patternIDs[i]) || anySeenIn(seenNew, d.lits.requiresIDs[i])) {
				p.cand.set(i)
			}
		}
		p.candStale = false
	}
	cand := p.candidatesLocked()
	p.mu.Unlock()

	fp := opt.fingerprint()
	admit := d.admitBits(opt, fp)
	prefPass := func(i int) bool { return opt.NoPrefilter || cand.has(i) }
	affected := func(i int) bool {
		return anySeenIn(pd.seenOld, d.lits.patternIDs[i]) || anySeenIn(seenNew, d.lits.patternIDs[i]) ||
			anySeenIn(pd.seenOld, d.lits.requiresIDs[i]) || anySeenIn(seenNew, d.lits.requiresIDs[i]) ||
			anySeenIn(pd.seenOld, d.lits.excludesIDs[i]) || anySeenIn(seenNew, d.lits.excludesIDs[i])
	}

	rerun := make([]bool, len(d.rules))
	admitted := 0
	for i := range d.rules {
		if !admit.has(i) {
			continue
		}
		admitted++
		switch d.loc[i].class {
		case classPureLocal:
		case classAnalyzable:
			if affected(i) {
				rerun[i] = true
			}
		default:
			rerun[i] = true
		}
	}

	// Replay previous findings of non-rerun rules: keep the prefix,
	// shift the suffix, drop whatever the window swallowed (pure-local
	// window re-matching re-finds those).
	var out []Finding
	for _, f := range prev {
		i := d.ruleIdx[f.Rule]
		if rerun[i] || !admit.has(i) {
			continue
		}
		if f.End > ws && f.Start < weOld {
			continue
		}
		if f.Start >= weOld {
			f.Start += totalDelta
			f.End += totalDelta
			gs := make([]int, len(f.Groups))
			for k, g := range f.Groups {
				if g >= 0 {
					g += totalDelta
				}
				gs[k] = g
			}
			f.Groups = gs
			f.Line = ix.Line(f.Start)
		}
		// Re-slice the snippet from the current source so replayed
		// findings never pin a previous generation's string in memory.
		f.Snippet = src[f.Start:f.End]
		out = append(out, f)
	}

	rerunCount := 0
	for i, rule := range d.rules {
		if !admit.has(i) {
			continue
		}
		if d.loc[i].class == classPureLocal {
			if prefPass(i) {
				d.windowScan(rule, src, ix, mask, ws, weNew, &out)
			}
		} else if rerun[i] && prefPass(i) {
			rerunCount++
			d.matchRule(rule, p, &out)
		}
	}
	d.seenPool.Put(seenPtr)

	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Rule.ID < out[j].Rule.ID
	})
	stats.RulesRerun = rerunCount
	stats.RulesReplayed = admitted - rerunCount
	if timed {
		d.recordRescan(stats, time.Since(t0))
	}
	return out, stats
}

// windowScan runs a pure-local rule's pattern over the dirty window only:
// [ws, weNew) plus one byte of left context so \b and (?m)^ see the
// preceding newline. Matches starting outside the window are the
// replay's responsibility and are discarded.
func (d *Detector) windowScan(rule *rules.Rule, src string, ix lineindex.Index, mask []span, ws, weNew int, out *[]Finding) {
	lo := ws
	if lo > 0 {
		lo--
	}
	seg := src[lo:weNew]
	for _, idx := range rule.Pattern.FindAllStringSubmatchIndex(seg, -1) {
		start := idx[0] + lo
		if start < ws || start >= weNew {
			continue
		}
		if inMask(mask, start) {
			continue
		}
		gs := make([]int, len(idx))
		for k, g := range idx {
			if g >= 0 {
				g += lo
			}
			gs[k] = g
		}
		*out = append(*out, Finding{
			Rule:    rule,
			Start:   start,
			End:     idx[1] + lo,
			Line:    ix.Line(start),
			Snippet: src[start : idx[1]+lo],
			Groups:  gs,
		})
	}
}

package detect

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/dessertlab/patchitpy/internal/lineindex"
	"github.com/dessertlab/patchitpy/internal/taint"
)

// Prepared carries the per-source artifacts every rule of a scan shares:
// the comment mask (plus the string-span and bracket-depth tables the
// incremental path needs), the newline-offset line index, and the literal
// automata's candidate-rule bitset. Each artifact is computed at most
// once per source version and only when first needed.
//
// Since the incremental-scanning refactor a Prepared is a mutable,
// versioned document rather than an immutable string wrapper: ApplyEdit
// and ApplyEdits splice the source in place, shift the line index by the
// edit delta, and record the dirty window so RescanEdited can re-run only
// the rules the edit could have affected. Gen returns the version; every
// applied edit increments it.
//
// A Prepared is bound to the Detector that created it and may be reused
// across any number of ScanPrepared calls only while the source is
// unchanged — core.Fix shares one between the detection scan and the
// patch phase's edit-position computation. After an ApplyEdit, earlier
// scan results describe a previous generation; rescan (RescanEdited, or
// any Scan* entry point) before using positions against the new source.
//
// Concurrency: concurrent readers (ScanPrepared and the accessors) are
// safe with each other — lazy artifacts are mutex-guarded. Mutations
// (ApplyEdit, ApplyEdits, RescanEdited) demand external write
// exclusivity: no other goroutine may use the Prepared concurrently with
// them. docsession enforces that with a per-session lock.
type Prepared struct {
	d   *Detector
	src string

	// gen counts applied edits; read it with Gen.
	gen atomic.Uint64

	// mu guards every lazy field below and the pending edit state.
	mu sync.Mutex

	haveLines bool
	lines     lineindex.Index

	haveTok bool
	tok     tokArtifacts

	haveCand  bool
	candStale bool // cand predates pending edits; see candidatesLocked
	cand      bitset

	haveTaint bool
	taintA    *taint.Analysis

	pending *pendingEdit
}

// Prepare wraps src for repeated scanning by this detector. The expensive
// artifacts (comment mask, line index, candidate bitset) are computed
// lazily on first use.
func (d *Detector) Prepare(src string) *Prepared {
	return &Prepared{d: d, src: src}
}

// Source returns the current source text.
func (p *Prepared) Source() string { return p.src }

// Gen returns the document generation: how many edits have been applied
// since Prepare. Findings are only valid against the generation they were
// scanned at.
func (p *Prepared) Gen() uint64 { return p.gen.Load() }

// Lines returns the source's line index, computing it on first call.
func (p *Prepared) Lines() lineindex.Index {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.linesLocked()
}

func (p *Prepared) linesLocked() lineindex.Index {
	if !p.haveLines {
		p.lines = lineindex.New(p.src)
		p.haveLines = true
	}
	return p.lines
}

// commentSpans returns the comment mask, tokenizing on first call.
func (p *Prepared) commentSpans() []span {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.tokLocked().mask
}

func (p *Prepared) tokLocked() tokArtifacts {
	if !p.haveTok {
		p.tok = buildArtifacts(p.src, p.linesLocked())
		p.haveTok = true
	}
	return p.tok
}

// TaintAnalysis returns the source's taint analysis (internal/taint),
// computing it on first call and caching it until the next edit. The
// returned duration is the wall time of the computation that ran here;
// zero means the cached analysis was served.
func (p *Prepared) TaintAnalysis() (*taint.Analysis, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.haveTaint {
		return p.taintA, 0
	}
	t0 := time.Now()
	p.taintA = taint.Analyze(p.src)
	p.haveTaint = true
	return p.taintA, time.Since(t0)
}

// candidates returns the automata's candidate-rule bitset, running the
// literal scan on first call.
func (p *Prepared) candidates() bitset {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.candidatesLocked()
}

// candidatesLocked returns an exact candidate bitset for the current
// source. candStale marks a bitset that predates pending edits; rescans
// normally refresh it cheaply from the dirty-zone literal scan
// (RescanEdited), but if a plain scan arrives first the bitset is
// recomputed from scratch here so no entry point can read stale bits.
func (p *Prepared) candidatesLocked() bitset {
	if !p.haveCand || p.candStale {
		d := p.d
		seen := d.seenPool.Get().(*[]bool)
		s := *seen
		for i := range s {
			s[i] = false
		}
		p.cand = d.lits.candidates(p.src, s, len(d.rules))
		d.seenPool.Put(seen)
		p.haveCand = true
		p.candStale = false
	}
	return p.cand
}

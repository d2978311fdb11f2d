// Package workload generates the benchmark's inputs: the seeded op lists
// of the serve workloads (hot-replay, cold-docs, edit-stream) and the
// expected outputs they are checked against. It imports only the
// standard library, so the load generator that uses it stays a client of
// the server under test and can drive a server built from any commit.
package workload

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"
)

// Sample is one corpus entry of the expected-output file: the input code
// and what the server must answer for it.
type Sample struct {
	Code string `json:"code"`
	// Detect and Taint are the findings of a detect request without and
	// with "taint": true, as the protocol encodes them.
	Detect json.RawMessage `json:"detect"`
	Taint  json.RawMessage `json:"taint"`
	// Patched is the patch verb's output text.
	Patched string `json:"patched"`
}

// Corpus is the expected-output file's content.
type Corpus struct {
	Samples []Sample `json:"samples"`
}

// LoadCorpus reads an expected-output file.
func LoadCorpus(path string) (*Corpus, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Corpus
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(c.Samples) == 0 {
		return nil, fmt.Errorf("%s holds no samples", path)
	}
	return &c, nil
}

// Config is the per-workload load shape, read from the benchmark's
// config file.
type Config struct {
	// Rate is the open-loop arrival rate in ops per second (hot-replay,
	// cold-docs).
	Rate float64 `json:"rate"`
	// SLOMs is the latency limit within_slo_ratio counts against.
	SLOMs float64 `json:"slo_ms"`
	// EditIntervalMs paces each edit session; EditsPerOpen is the
	// number of edits after which a session closes and reopens
	// (edit-stream).
	EditIntervalMs float64 `json:"edit_interval_ms"`
	EditsPerOpen   int     `json:"edits_per_open"`
	// MaxLagMs is the generator lateness (p99) beyond which a run is
	// invalid: the generator, not the server, fell behind the schedule.
	MaxLagMs float64 `json:"max_lag_ms"`
	// ReplayPerClass caps how many ops per class the traced run replays
	// in process.
	ReplayPerClass int `json:"replay_per_class"`
}

// LoadConfig reads the benchmark's config file: workload name -> Config.
func LoadConfig(path string) (map[string]Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m map[string]Config
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return m, nil
}

// Size classes of cold-docs documents.
var (
	SizeNames = []string{"1k", "4k", "16k", "64k"}
	SizeBytes = []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}
)

// Verbs of the serve workloads. VerbTaint is a detect request with
// "taint": true.
const (
	VerbDetect  = "detect"
	VerbSuggest = "suggest"
	VerbPatch   = "patch"
	VerbTaint   = "taint"
	VerbOpen    = "open"
	VerbEdit    = "edit"
	VerbClose   = "close"
)

// Op is one request of an open-loop workload.
type Op struct {
	ID int `json:"id"`
	// Due is when the op is scheduled, relative to the start of load.
	Due time.Duration `json:"due"`
	// Verb selects the endpoint and the expected output.
	Verb string `json:"verb"`
	// Sample indexes the corpus entry the op carries.
	Sample int `json:"sample"`
	// Size is the size class (cold-docs), -1 for raw corpus code.
	Size int `json:"size"`
	// Code is the source text sent.
	Code string `json:"code"`
}

// Path returns the endpoint the op is sent to.
func (o Op) Path() string {
	if o.Verb == VerbTaint {
		return "/v1/detect"
	}
	return "/v1/" + o.Verb
}

// Body returns the request body.
func (o Op) Body() []byte {
	req := struct {
		Code  string `json:"code"`
		Taint bool   `json:"taint,omitempty"`
	}{Code: o.Code, Taint: o.Verb == VerbTaint}
	b, _ := json.Marshal(req) // a struct of strings always encodes
	return b
}

// arrivals returns n Poisson arrival times spread over d: exponential
// gaps, scaled so the n+1 gaps fill d exactly. This is a Poisson process
// conditioned on its count, so the offered rate is exact in every run.
func arrivals(rng *rand.Rand, n int, d time.Duration) []time.Duration {
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	out := make([]time.Duration, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += gaps[i]
		out[i] = time.Duration(acc / total * float64(d))
	}
	return out
}

// HotOps is the hot-replay op list: Poisson arrivals at rate over d,
// each a detect, suggest or patch of a corpus sample drawn uniformly.
func HotOps(c *Corpus, seed int64, rate float64, d time.Duration) []Op {
	rng := rand.New(rand.NewSource(seed))
	due := arrivals(rng, int(rate*d.Seconds()), d)
	verbs := []string{VerbDetect, VerbSuggest, VerbPatch}
	deck := newDeck(rng, len(verbs))
	ops := make([]Op, len(due))
	for i := range ops {
		s := rng.Intn(len(c.Samples))
		ops[i] = Op{ID: i, Due: due[i], Verb: verbs[deck.next()], Sample: s, Size: -1, Code: c.Samples[s].Code}
	}
	return ops
}

// deck deals the classes 0..n-1 in seeded random order, reshuffling
// after every n deals, so every run holds each class in the same share
// and only the order differs between seeds.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

func newDeck(rng *rand.Rand, n int) *deck {
	d := &deck{rng: rng, cards: make([]int, n), pos: n}
	for i := range d.cards {
		d.cards[i] = i
	}
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// HotWarmup lists every (sample, verb) pair hot-replay draws from, so a
// warm-up pass leaves the response cache holding every answer.
func HotWarmup(c *Corpus) []Op {
	var ops []Op
	for s := range c.Samples {
		for _, v := range []string{VerbDetect, VerbSuggest, VerbPatch} {
			ops = append(ops, Op{ID: len(ops), Verb: v, Sample: s, Size: -1, Code: c.Samples[s].Code})
		}
	}
	return ops
}

// ColdOps is the cold-docs op list: Poisson arrivals at rate over d, each
// a corpus sample at the top of seeded padding up to a size class, sent
// as detect, patch or taint-filtered detect. Sizes take turns, so two
// 64 KiB documents are never adjacent in the schedule and a run's tail
// depends less on how its arrivals happened to bunch; each size deals
// its verbs from its own deck, so every (size, verb) pair takes the same
// share. The padding names the seed and the op, so no two ops share a
// source.
func ColdOps(c *Corpus, seed int64, rate float64, d time.Duration) []Op {
	rng := rand.New(rand.NewSource(seed))
	due := arrivals(rng, int(rate*d.Seconds()), d)
	return coldOps(c, rng, fmt.Sprintf("%x", uint64(seed)), due)
}

// ColdWarmup is n cold-docs ops, the same in every run and disjoint from
// every ColdOps list, for warming the server before the measured load.
func ColdWarmup(c *Corpus, n int) []Op {
	return coldOps(c, rand.New(rand.NewSource(0)), "warm", make([]time.Duration, n))
}

func coldOps(c *Corpus, rng *rand.Rand, tag string, due []time.Duration) []Op {
	verbs := []string{VerbDetect, VerbPatch, VerbTaint}
	decks := make([]*deck, len(SizeBytes))
	for i := range decks {
		decks[i] = newDeck(rng, len(verbs))
	}
	ops := make([]Op, len(due))
	for i := range ops {
		s := rng.Intn(len(c.Samples))
		size := i % len(SizeBytes)
		ops[i] = Op{
			ID: i, Due: due[i], Verb: verbs[decks[size].next()], Sample: s, Size: size,
			Code: c.Samples[s].Code + Padding(rng, fmt.Sprintf("%s_%d", tag, i), SizeBytes[size]-len(c.Samples[s].Code)),
		}
	}
	return ops
}

// Padding returns about n bytes of finding-free Python: small functions
// built only from arithmetic, loops and comparisons — no imports, calls
// into libraries or string literals, so no rule can fire on it and the
// patcher has nothing to insert or remove. tag makes every function name
// unique to one document.
func Padding(rng *rand.Rand, tag string, n int) string {
	var b strings.Builder
	b.WriteString("\n")
	for j := 0; b.Len() < n; j++ {
		k := rng.Intn(1000)
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "def pad_%s_%d(value):\n    total = value + %d\n    return total\n\n", tag, j, k)
		case 1:
			fmt.Fprintf(&b, "def pad_%s_%d(items):\n    acc = %d\n    for item in items:\n        if item > acc:\n            acc = item\n    return acc\n\n", tag, j, k)
		default:
			fmt.Fprintf(&b, "class Pad_%s_%d:\n    def __init__(self, size):\n        self.size = size * %d\n\n    def grow(self, step):\n        self.size = self.size + step\n        return self.size\n\n", tag, j, k)
		}
	}
	return b.String()
}

// EditOp is one request of an edit session.
type EditOp struct {
	Due  time.Duration `json:"due"`
	Verb string        `json:"verb"` // open, edit or close
	// Code is the buffer sent by an open.
	Code string `json:"code,omitempty"`
	// Start, End and Text are an edit's byte span and replacement
	// against the buffer before it; Line/Col are the span's positions.
	Start     int    `json:"start"`
	End       int    `json:"end"`
	Text      string `json:"text"`
	StartLine int    `json:"startLine"`
	StartCol  int    `json:"startCol"`
	EndLine   int    `json:"endLine"`
	EndCol    int    `json:"endCol"`
	// After is the buffer text after the op, kept only for the ops whose
	// findings the run checks against a from-scratch detect.
	After string `json:"after,omitempty"`
	// Check marks the ops whose findings are checked.
	Check bool `json:"check,omitempty"`
}

// Body returns the request body of an open, edit or close; sid is the
// session ID the server assigned at open.
func (e EditOp) Body(sid string) []byte {
	type pos struct {
		Line      int `json:"line"`
		Character int `json:"character"`
	}
	type edit struct {
		Range struct {
			Start pos `json:"start"`
			End   pos `json:"end"`
		} `json:"range"`
		NewText string `json:"newText"`
	}
	req := struct {
		Code    string `json:"code,omitempty"`
		Session string `json:"session,omitempty"`
		Edits   []edit `json:"edits,omitempty"`
	}{Code: e.Code, Session: sid}
	if e.Verb == VerbEdit {
		var te edit
		te.Range.Start = pos{e.StartLine, e.StartCol}
		te.Range.End = pos{e.EndLine, e.EndCol}
		te.NewText = e.Text
		req.Edits = []edit{te}
	}
	b, _ := json.Marshal(req) // strings and ints always encode
	return b
}

// EditCheckEvery makes about one edit in this many a checked one, besides
// the last edit before each close.
const EditCheckEvery = 20

// EditSessions builds the edit-stream op lists: one ordered list per
// session. Each session opens a 16 KiB buffer (a corpus sample atop
// padding), sends perOpen edits paced every interval, closes, and
// reopens a new buffer, until d is over. About checkEvery-th edit, and
// the last edit before every close, are marked for the output check.
func EditSessions(c *Corpus, seed int64, sessions, perOpen int, interval, d time.Duration, checkEvery int) [][]EditOp {
	out := make([][]EditOp, sessions)
	for s := range out {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(s)))
		slot := time.Duration(0)
		// Stagger sessions across one interval, so their sends interleave.
		offset := interval * time.Duration(s) / time.Duration(sessions)
		for cycle := 0; ; cycle++ {
			if offset+slot >= d {
				break
			}
			smp := rng.Intn(len(c.Samples))
			code := c.Samples[smp].Code + Padding(rng, fmt.Sprintf("e%x_%d_%d", uint64(seed), s, cycle), 16<<10-len(c.Samples[smp].Code))
			ops := []EditOp{{Due: offset + slot, Verb: VerbOpen, Code: code}}
			slot += interval
			cur := code
			for k := 0; k < perOpen && offset+slot < d; k++ {
				start, end, repl := NextEdit(rng, cur)
				sl, sc := position(cur, start)
				el, ec := position(cur, end)
				cur = cur[:start] + repl + cur[end:]
				op := EditOp{Due: offset + slot, Verb: VerbEdit, Start: start, End: end, Text: repl,
					StartLine: sl, StartCol: sc, EndLine: el, EndCol: ec}
				if rng.Intn(checkEvery) == 0 {
					op.Check, op.After = true, cur
				}
				ops = append(ops, op)
				slot += interval
			}
			last := &ops[len(ops)-1]
			if last.Verb == VerbEdit {
				last.Check, last.After = true, cur
			}
			ops = append(ops, EditOp{Due: offset + slot, Verb: VerbClose})
			slot += interval
			out[s] = append(out[s], ops...)
		}
	}
	return out
}

// position converts a byte offset to a 0-based (line, byte column).
func position(s string, off int) (int, int) {
	line := strings.Count(s[:off], "\n")
	return line, off - (strings.LastIndexByte(s[:off], '\n') + 1)
}

// editKeystrokes are in-line single insertions, the dominant event in an
// editing stream.
var editKeystrokes = []string{"x", " ", "_", "0", "n", "v"}

// editSnippets are structural insertions that change line counts or
// indent profiles. All are quote-free, so the stream never opens a
// string it will not close.
var editSnippets = []string{
	"# note\n", "pass\n", "a = 1\n", "def f():\n    return 1\n",
}

// editVulnSnippets are finding-creating insertions, mixed in at a low
// rate (a new finding every ~60 edits).
var editVulnSnippets = []string{
	"os.system(cmd)\n", "h = hashlib.md5(data)\n", "cfg = yaml.load(s)\n",
}

// NextEdit picks the next edit against cur: mostly single keystrokes
// inside a line, with occasional snippet inserts and whole-line deletes.
// Edits are line-aware — snippets land at line starts, keystrokes and
// deletes avoid lines carrying quotes or continuations and never touch
// indentation — so the buffer stays tokenizable, as it does under
// coherent human editing. This is the keystroke model of cmd/loadgen's
// edit phase.
func NextEdit(rng *rand.Rand, cur string) (start, end int, repl string) {
	for try := 0; try < 8; try++ {
		off := rng.Intn(len(cur) + 1)
		ls, le := lineSpanAt(cur, off)
		switch {
		case rng.Intn(8) == 0 && len(cur) > 4<<10:
			if !quoteFree(cur[ls:le]) {
				continue
			}
			start, end = ls, le
			if end < len(cur) {
				end++ // take the newline with the line
			}
			return start, end, ""
		case rng.Intn(4) == 0:
			if rng.Intn(8) == 0 {
				return ls, ls, editVulnSnippets[rng.Intn(len(editVulnSnippets))]
			}
			return ls, ls, editSnippets[rng.Intn(len(editSnippets))]
		default:
			if !quoteFree(cur[ls:le]) {
				continue
			}
			ie := ls
			for ie < le && cur[ie] == ' ' {
				ie++
			}
			if ie == le && ie > ls {
				continue
			}
			if off < ie {
				off = ie
			}
			repl = editKeystrokes[rng.Intn(len(editKeystrokes))]
			if repl == " " && off <= ie {
				if ie == le {
					continue
				}
				off = ie + 1
			}
			return off, off, repl
		}
	}
	// Every probed line carried a quote; append a safe statement line.
	return len(cur), len(cur), "a = 1\n"
}

// lineSpanAt returns the [start, end) span of the line containing off,
// excluding the trailing newline.
func lineSpanAt(s string, off int) (int, int) {
	ls := strings.LastIndexByte(s[:off], '\n') + 1
	le := strings.IndexByte(s[off:], '\n')
	if le < 0 {
		le = len(s)
	} else {
		le += off
	}
	return ls, le
}

// quoteFree reports whether editing inside s cannot split a string
// delimiter or a backslash continuation.
func quoteFree(s string) bool {
	return !strings.ContainsAny(s, `'"\`)
}

// Subsample returns up to n ops of each class (as class(op) names it),
// keeping their order; the traced run's in-process replay uses it to
// bound its length.
func Subsample(ops []Op, n int, class func(Op) string) []Op {
	count := map[string]int{}
	var out []Op
	for _, o := range ops {
		k := class(o)
		if count[k] < n {
			count[k]++
			out = append(out, o)
		}
	}
	return out
}

// Package detect implements PatchitPy's detection engine: it runs the rule
// catalog's patterns over Python source and reports findings with precise
// spans, mirroring the first phase of the paper's workflow (Fig. 1).
//
// Three throughput features make the engine usable on large corpora and
// under server traffic: an Aho-Corasick literal prefilter built once per
// catalog (one walk of the source for exact literals and one through the
// fold walk for case-insensitive ones yield the candidate-rule bitset;
// non-candidate rules never run their regexes), a per-source
// Prepared artifact (comment mask, line index, candidate bitset — each
// computed at most once per source and shared by all rules), and a
// content-addressed result cache that makes repeated scans of identical
// sources a hash lookup. A Detector is safe for concurrent use: callers
// that scan a batch fan it across their own worker pool (workpool.Run)
// and share one Detector, and so its cache.
package detect

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dessertlab/patchitpy/internal/obs"
	"github.com/dessertlab/patchitpy/internal/resultcache"
	"github.com/dessertlab/patchitpy/internal/rules"
	"github.com/dessertlab/patchitpy/internal/taint"
)

// Finding is one detected vulnerability occurrence.
type Finding struct {
	// Rule is the rule that fired.
	Rule *rules.Rule
	// Start and End are byte offsets of the matched span in the source.
	Start, End int
	// Line is the 1-based line of the match start.
	Line int
	// Snippet is the matched source text.
	Snippet string
	// Groups holds the capture-group spans (pairs of offsets) needed by
	// the patch engine's template expansion.
	Groups []int
	// Suppressed marks a finding the taint precision filter demoted: the
	// rule fired, but the flow engine proved the flagged sink argument has
	// constant provenance. Suppressed findings stay in the result so
	// downstream layers can surface them as diagnostics rather than drop
	// them. Always false unless the scan ran with Options.TaintFilter.
	Suppressed bool
	// SuppressReason is the machine-readable suppression attribute (e.g.
	// "taint:clean"); empty when Suppressed is false.
	SuppressReason string
}

// CWE returns the finding's CWE identifier.
func (f Finding) CWE() string { return f.Rule.CWE }

// DefaultCacheBytes is the scan result cache budget a new Detector starts
// with; SetCacheBytes overrides it.
const DefaultCacheBytes = 32 << 20

// Detector scans source code with a rule catalog. It is safe for
// concurrent use: all state is immutable after construction except the
// scan statistics and the result cache, which are concurrency-safe.
type Detector struct {
	catalog *rules.Catalog
	rules   []*rules.Rule // catalog order, fetched once
	filters []ruleFilter  // aligned with rules; feeds the automaton
	lits    *literalIndex // shared Aho-Corasick automata over all literals
	allBits bitset        // admit bitset for the zero Options

	// loc classifies each rule for incremental rescans (see locality.go);
	// zoneReach is the max analyzable reach, in non-blank-line hops.
	loc       []locality
	zoneReach int
	// ruleIdx maps a rule back to its catalog index, so RescanEdited can
	// route previous findings to their rule's locality class.
	ruleIdx map[*rules.Rule]int

	// seenPool recycles the automaton's per-scan literal scratch slice.
	seenPool sync.Pool
	// admitCache maps an Options fingerprint to its admit bitset, so the
	// per-rule Options checks run once per distinct Options, not per scan.
	admitCache sync.Map // string -> bitset

	// cache memoizes scan results by (catalog, options, source); nil when
	// disabled.
	cache *resultcache.Cache[[]Finding]

	// met holds the observability handles attached by SetObs; nil means
	// detached (the library default), which keeps the scan loop free of
	// even the enabled-flag check.
	met *scanMetrics

	rulesConsidered atomic.Uint64
	rulesSkipped    atomic.Uint64
}

// scanMetrics bundles the detector's pre-registered obs handles so the
// hot loop records through plain pointers. Recording is skipped entirely
// unless the registry is enabled.
type scanMetrics struct {
	reg      *obs.Registry
	scans    *obs.Counter
	findings *obs.Counter
	scanDur  *obs.Histogram
	ruleDur  *obs.Histogram
	ruleRuns *obs.Vec
	ruleHits *obs.Vec
	ruleTime *obs.Vec

	// Incremental-rescan instrumentation (RescanEdited).
	incRescans   *obs.Counter
	incFull      *obs.Counter
	incMaskFall  *obs.Counter
	incDirty     *obs.Histogram
	incRerun     *obs.Counter
	incReplayed  *obs.Counter
	incRescanDur *obs.Histogram

	// Taint precision-filter instrumentation (Options.TaintFilter).
	taintRuns *obs.Counter
	taintSupp *obs.Counter
	taintDur  *obs.Histogram
}

// SetObs attaches an observability registry: per-scan and per-rule
// counters and latency histograms, plus pull-style exports of the
// prefilter accounting and the scan result cache. Pass nil to detach.
// Like SetCacheBytes, this is setup API — do not call it with scans in
// flight. Recording stays a no-op until reg is enabled.
func (d *Detector) SetObs(reg *obs.Registry) {
	if reg == nil {
		d.met = nil
		return
	}
	d.met = &scanMetrics{
		reg:      reg,
		scans:    reg.Counter(obs.MetricScans),
		findings: reg.Counter(obs.MetricScanFindings),
		scanDur:  reg.Histogram(obs.MetricScanDuration, nil),
		ruleDur:  reg.Histogram(obs.MetricRuleDuration, nil),
		ruleRuns: reg.CounterVec(obs.MetricRuleRuns, "rule"),
		ruleHits: reg.CounterVec(obs.MetricRuleFindings, "rule"),
		ruleTime: reg.DurationCounterVec(obs.MetricRuleTime, "rule"),

		incRescans:   reg.Counter(obs.MetricIncRescans),
		incFull:      reg.Counter(obs.MetricIncFullRescans),
		incMaskFall:  reg.Counter(obs.MetricIncMaskFallbacks),
		incDirty:     reg.Histogram(obs.MetricIncDirtyBytes, obs.SizeBuckets),
		incRerun:     reg.Counter(obs.MetricIncRulesRerun),
		incReplayed:  reg.Counter(obs.MetricIncRulesReplayed),
		incRescanDur: reg.Histogram(obs.MetricIncRescanTime, nil),

		taintRuns: reg.Counter(obs.MetricTaintAnalyses),
		taintSupp: reg.Counter(obs.MetricTaintSuppressed),
		taintDur:  reg.Histogram(obs.MetricTaintDuration, nil),
	}
	reg.CounterFunc(obs.MetricPrefilterConsidered, func() float64 { return float64(d.rulesConsidered.Load()) })
	reg.CounterFunc(obs.MetricPrefilterSkipped, func() float64 { return float64(d.rulesSkipped.Load()) })
	reg.GaugeFunc(obs.MetricPrefilterSkipRate, func() float64 { return d.Stats().SkipRate() })
	resultcache.RegisterObs(reg, "scan", func() *resultcache.Cache[[]Finding] { return d.cache })
}

// New returns a Detector over the given catalog; a nil catalog uses the
// built-in one. The literal prefilter automata are built here, once, and
// the result cache starts at DefaultCacheBytes.
func New(catalog *rules.Catalog) *Detector {
	if catalog == nil {
		catalog = rules.NewCatalog()
	}
	rs := catalog.Rules()
	d := &Detector{
		catalog: catalog,
		rules:   rs,
		filters: buildFilters(rs),
	}
	excludesLits := make([][]Literal, len(rs))
	for i, r := range rs {
		if r.Excludes != nil {
			excludesLits[i] = requiredLiterals(r.Excludes.String())
		}
	}
	d.lits = buildLiteralIndex(d.filters, excludesLits)
	d.loc, d.zoneReach = classifyRules(rs, d.filters, excludesLits)
	d.allBits = newBitset(len(rs))
	d.ruleIdx = make(map[*rules.Rule]int, len(rs))
	for i := range rs {
		d.allBits.set(i)
		d.ruleIdx[rs[i]] = i
	}
	n := d.lits.numLiterals
	d.seenPool.New = func() any {
		s := make([]bool, n)
		return &s
	}
	d.SetCacheBytes(DefaultCacheBytes)
	return d
}

// Catalog returns the detector's rule catalog.
func (d *Detector) Catalog() *rules.Catalog { return d.catalog }

// SetCacheBytes resizes the scan result cache to roughly n bytes; n <= 0
// disables caching. It replaces the cache (dropping cached entries and
// counters) and is meant for setup, not for concurrent use with scans in
// flight.
func (d *Detector) SetCacheBytes(n int64) {
	d.cache = resultcache.New(n, func(key string, fs []Finding) int64 {
		// The cache charges the key, which holds its own copy of the
		// source. Snippets are substrings of the scanned source, so any
		// finding pins a second full copy; len(key) bounds it from above.
		var c int64
		if len(fs) > 0 {
			c = int64(len(key))
		}
		for _, f := range fs {
			c += int64(8*len(f.Groups)) + 64
		}
		return c
	})
}

// CacheStats returns the scan cache's hit/miss/eviction counters.
func (d *Detector) CacheStats() resultcache.Stats { return d.cache.Stats() }

// ScanStats counts prefilter decisions across all scans so far. Cached
// scans never reach the prefilter, so they do not move these counters —
// CacheStats accounts for them.
type ScanStats struct {
	// RulesConsidered counts (rule, source) pairs that passed the Options
	// filter and reached the prefilter.
	RulesConsidered uint64
	// RulesSkipped counts how many of those the literal prefilter proved
	// could not match, so their regexes never ran.
	RulesSkipped uint64
}

// SkipRate is the fraction of considered rules the prefilter eliminated.
func (s ScanStats) SkipRate() float64 {
	if s.RulesConsidered == 0 {
		return 0
	}
	return float64(s.RulesSkipped) / float64(s.RulesConsidered)
}

// Stats returns a snapshot of the detector's cumulative scan statistics.
func (d *Detector) Stats() ScanStats {
	return ScanStats{
		RulesConsidered: d.rulesConsidered.Load(),
		RulesSkipped:    d.rulesSkipped.Load(),
	}
}

// Options narrows a scan to a subset of the catalog and tunes how the
// scan executes.
type Options struct {
	// MinSeverity drops findings below the given severity (zero = all).
	MinSeverity rules.Severity
	// Categories, when non-empty, keeps only rules in these OWASP
	// categories.
	Categories []rules.Category
	// RuleIDs, when non-empty, keeps only the named rules.
	RuleIDs []string
	// FixableOnly keeps only rules that carry a fix template.
	FixableOnly bool
	// NoPrefilter disables the literal prefilter, forcing every admitted
	// rule's regexes to run. Results are identical either way; this exists
	// for benchmarking the filter and as a correctness cross-check.
	NoPrefilter bool
	// TaintFilter enables the flow-sensitive precision filter: findings of
	// rules carrying a FlowGate are demoted to suppressed diagnostics when
	// the taint engine proves the gated sink argument constant at the
	// finding's line. Off (the default) the scan never touches the taint
	// engine and output is identical to earlier releases.
	TaintFilter bool
	// NoCache bypasses the scan result cache for this scan: the result is
	// neither looked up nor stored. Results are identical either way.
	NoCache bool
}

// optionSets is an Options normalized for per-rule testing: the slice
// filters become O(1) set lookups instead of linear walks per rule.
type optionSets struct {
	minSeverity rules.Severity
	fixableOnly bool
	categories  map[rules.Category]struct{} // nil = all categories
	ruleIDs     map[string]struct{}         // nil = all rules
}

func newOptionSets(o Options) optionSets {
	s := optionSets{minSeverity: o.MinSeverity, fixableOnly: o.FixableOnly}
	if len(o.Categories) > 0 {
		s.categories = make(map[rules.Category]struct{}, len(o.Categories))
		for _, c := range o.Categories {
			s.categories[c] = struct{}{}
		}
	}
	if len(o.RuleIDs) > 0 {
		s.ruleIDs = make(map[string]struct{}, len(o.RuleIDs))
		for _, id := range o.RuleIDs {
			s.ruleIDs[id] = struct{}{}
		}
	}
	return s
}

func (s optionSets) admits(r *rules.Rule) bool {
	if s.minSeverity != 0 && r.Severity < s.minSeverity {
		return false
	}
	if s.fixableOnly && !r.HasFix() {
		return false
	}
	if s.categories != nil {
		if _, ok := s.categories[r.Category]; !ok {
			return false
		}
	}
	if s.ruleIDs != nil {
		if _, ok := s.ruleIDs[r.ID]; !ok {
			return false
		}
	}
	return true
}

// fingerprint canonically serializes the result-affecting fields: two
// Options with the same fingerprint admit the same rules and take the same
// scan path. NoCache is excluded — it never changes results. NoPrefilter is included even though results are provably
// identical either way, so cross-check scans always do real work instead
// of reading what the prefiltered scan cached.
func (o Options) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "s%d|f%t|np%t", o.MinSeverity, o.FixableOnly, o.NoPrefilter)
	if o.TaintFilter {
		// Appended only when on, so every pre-taint fingerprint (and the
		// cache keys derived from it) is byte-identical to prior releases.
		b.WriteString("|tf")
	}
	if len(o.Categories) > 0 {
		cats := make([]int, len(o.Categories))
		for i, c := range o.Categories {
			cats[i] = int(c)
		}
		sort.Ints(cats)
		b.WriteString("|c")
		for _, c := range cats {
			fmt.Fprintf(&b, ",%d", c)
		}
	}
	if len(o.RuleIDs) > 0 {
		ids := append([]string(nil), o.RuleIDs...)
		sort.Strings(ids)
		b.WriteString("|r")
		for _, id := range ids {
			b.WriteByte(',')
			b.WriteString(id)
		}
	}
	return b.String()
}

// admitBits returns the bitset of rules opt admits, computing it once per
// distinct Options fingerprint and serving it from a lock-free map after.
func (d *Detector) admitBits(opt Options, fp string) bitset {
	if opt.MinSeverity == 0 && !opt.FixableOnly && len(opt.Categories) == 0 && len(opt.RuleIDs) == 0 {
		return d.allBits
	}
	if v, ok := d.admitCache.Load(fp); ok {
		return v.(bitset)
	}
	sets := newOptionSets(opt)
	bits := newBitset(len(d.rules))
	for i, r := range d.rules {
		if sets.admits(r) {
			bits.set(i)
		}
	}
	d.admitCache.Store(fp, bits)
	return bits
}

// Scan runs every applicable rule over src and returns the findings sorted
// by position then rule ID. Matches beginning inside comments are dropped.
func (d *Detector) Scan(src string) []Finding {
	return d.ScanWith(src, Options{})
}

// ScanWith runs the scan restricted by opt.
func (d *Detector) ScanWith(src string, opt Options) []Finding {
	return d.ScanPrepared(d.Prepare(src), opt)
}

// ScanWithContext is ScanWith with a context threaded through for span
// tracing: when ctx carries an active obs span (or an enabled registry),
// the scan records a "scan" span with prefilter/mask/rule-match child
// phases. Findings are identical to ScanWith.
func (d *Detector) ScanWithContext(ctx context.Context, src string, opt Options) []Finding {
	return d.ScanPreparedContext(ctx, d.Prepare(src), opt)
}

// ScanPrepared scans a prepared source, reusing whatever per-source
// artifacts p has already computed. p must have been created by this
// detector's Prepare. Identical (source, options) scans are answered from
// the result cache when it is enabled and opt.NoCache is false; concurrent
// identical misses are de-duplicated so the scan runs once.
func (d *Detector) ScanPrepared(p *Prepared, opt Options) []Finding {
	return d.ScanPreparedContext(context.Background(), p, opt)
}

// ScanPreparedContext is ScanPrepared with a context for span tracing
// (see ScanWithContext). A cached lookup marks the caller's span with a
// "cache.scan" attribute of "hit" or "miss".
func (d *Detector) ScanPreparedContext(ctx context.Context, p *Prepared, opt Options) []Finding {
	if d.cache == nil || opt.NoCache {
		return d.scanPrepared(ctx, p, opt)
	}
	key := resultcache.Key(d.catalog.Fingerprint(), opt.fingerprint(), p.src)
	out, hit := d.cache.GetOrCompute(key, func() []Finding {
		return d.scanPrepared(ctx, p, opt)
	})
	verdict := "miss"
	if hit {
		verdict = "hit"
	}
	obs.SpanFrom(ctx).SetAttr("cache.scan", verdict)
	return copyFindings(out)
}

// copyFindings returns a fresh top-level slice so callers mutating their
// result cannot corrupt the cached copy. The findings themselves point at
// immutable rule and source data.
func copyFindings(fs []Finding) []Finding {
	if fs == nil {
		return nil
	}
	out := make([]Finding, len(fs))
	copy(out, fs)
	return out
}

// scanPrepared is the uncached scan body. Observability is two-layered:
// with no registry attached (d.met == nil) the loop is exactly the
// uninstrumented PR 3 code path; with one attached but disabled, the
// only cost is one atomic flag load per scan; enabled, each rule that
// survives the prefilter is individually timed.
func (d *Detector) scanPrepared(ctx context.Context, p *Prepared, opt Options) []Finding {
	m := d.met
	timed := m != nil && m.reg.Enabled()
	var scanStart time.Time
	if timed {
		scanStart = time.Now()
	}
	ctx, scanSpan := obs.Start(ctx, "scan")

	fp := opt.fingerprint()
	admit := d.admitBits(opt, fp)
	var cand bitset
	if !opt.NoPrefilter {
		if scanSpan != nil {
			_, sp := obs.Start(ctx, "prefilter")
			cand = p.candidates()
			sp.End()
		} else {
			cand = p.candidates()
		}
	}
	if scanSpan != nil {
		// Under tracing, pay the (lazy, once-per-source) comment mask
		// eagerly so it shows up as its own phase instead of inflating the
		// first rule's span.
		_, sp := obs.Start(ctx, "mask")
		p.commentSpans()
		sp.End()
	}

	_, ruleSpan := obs.Start(ctx, "rule-match")
	var out []Finding
	var considered, skipped uint64
	for i, rule := range d.rules {
		if !admit.has(i) {
			continue
		}
		considered++
		if !opt.NoPrefilter && !cand.has(i) {
			skipped++
			continue
		}
		if !timed {
			d.matchRule(rule, p, &out)
			continue
		}
		t0 := time.Now()
		n := d.matchRule(rule, p, &out)
		el := time.Since(t0)
		m.ruleDur.Observe(el)
		m.ruleTime.AddDuration(rule.ID, el)
		m.ruleRuns.Add(rule.ID, 1)
		if n > 0 {
			m.ruleHits.Add(rule.ID, uint64(n))
			// Only rules that actually fired get a child span: per-rule
			// spans for all 85 rules would blow the span budget (and the
			// reader's patience) on every scan, while the firing rules are
			// exactly the ones a trace viewer needs to attribute time to.
			rsp := ruleSpan.RecordChild("rule."+rule.ID, t0, t0.Add(el))
			rsp.SetAttr("rule", rule.ID)
			rsp.SetAttr("findings", n)
		}
	}
	ruleSpan.SetAttr("rules.run", int(considered-skipped))
	ruleSpan.SetAttr("rules.skipped", int(skipped))
	ruleSpan.End()
	d.rulesConsidered.Add(considered)
	d.rulesSkipped.Add(skipped)
	if opt.TaintFilter {
		d.taintFilter(ctx, p, out, timed)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Rule.ID < out[j].Rule.ID
	})
	if timed {
		m.scans.Inc()
		m.findings.Add(uint64(len(out)))
		m.scanDur.ObserveExemplar(time.Since(scanStart), obs.TraceIDFrom(ctx))
	}
	scanSpan.SetAttr("bytes", len(p.src))
	scanSpan.SetAttr("findings", len(out))
	scanSpan.End()
	return out
}

// SuppressReasonClean is the attribute attached to findings the taint
// precision filter demotes: the flow engine proved the flagged sink
// argument is built entirely from constants.
const SuppressReasonClean = "taint:clean"

// taintFilter demotes findings of FlowGate-carrying rules whose gated
// sink argument the taint engine proves constant at the finding's line.
// Soundness stance: only a proven-Const verdict suppresses; Unknown (the
// engine couldn't tell) and Tainted leave the finding untouched, as does
// a line where the engine recorded no matching sink at all.
func (d *Detector) taintFilter(ctx context.Context, p *Prepared, out []Finding, timed bool) {
	gated := false
	for i := range out {
		if out[i].Rule.FlowGate != nil {
			gated = true
			break
		}
	}
	if !gated {
		return
	}
	_, sp := obs.Start(ctx, "taint-filter")
	a, computed := p.TaintAnalysis()
	if timed && computed > 0 {
		d.met.taintRuns.Inc()
		d.met.taintDur.Observe(computed)
	}
	var suppressed int
	for i := range out {
		g := out[i].Rule.FlowGate
		if g == nil {
			continue
		}
		if prov, ok := a.Verdict(out[i].Line, g.Sink, g.Arg); ok && prov == taint.Const {
			out[i].Suppressed = true
			out[i].SuppressReason = SuppressReasonClean
			suppressed++
		}
	}
	if timed && suppressed > 0 {
		d.met.taintSupp.Add(uint64(suppressed))
	}
	sp.SetAttr("suppressed", suppressed)
	sp.End()
}

// matchRule runs one admitted, prefilter-passed rule's regex phase over
// p, appending matches to out, and returns how many findings it added.
// The lazy artifacts are fetched once up front (not per match), which
// also means callers must not hold p.mu.
func (d *Detector) matchRule(rule *rules.Rule, p *Prepared, out *[]Finding) int {
	if rule.Requires != nil && !rule.Requires.MatchString(p.src) {
		return 0
	}
	if rule.Excludes != nil && rule.Excludes.MatchString(p.src) {
		return 0
	}
	idxs := rule.Pattern.FindAllStringSubmatchIndex(p.src, -1)
	if len(idxs) == 0 {
		return 0
	}
	mask := p.commentSpans()
	lines := p.Lines()
	n := 0
	for _, idx := range idxs {
		start, end := idx[0], idx[1]
		if inMask(mask, start) {
			continue
		}
		*out = append(*out, Finding{
			Rule:    rule,
			Start:   start,
			End:     end,
			Line:    lines.Line(start),
			Snippet: p.src[start:end],
			Groups:  append([]int(nil), idx...),
		})
		n++
	}
	return n
}

// recordRescan publishes one RescanEdited outcome to the attached
// registry. Callers check the enabled flag first.
func (d *Detector) recordRescan(st RescanStats, dur time.Duration) {
	m := d.met
	if st.Full {
		m.incFull.Inc()
	} else {
		m.incRescans.Inc()
	}
	if !st.MaskSpliced {
		m.incMaskFall.Inc()
	}
	m.incDirty.ObserveValue(float64(st.DirtyBytes))
	m.incRerun.Add(uint64(st.RulesRerun))
	m.incReplayed.Add(uint64(st.RulesReplayed))
	m.incRescanDur.Observe(dur)
}

// Vulnerable reports whether src triggers at least one rule — the binary
// per-sample judgement used by the paper's detection evaluation.
func (d *Detector) Vulnerable(src string) bool {
	return len(d.Scan(src)) > 0
}

// DistinctCWEs returns the sorted distinct CWE identifiers among findings.
func DistinctCWEs(findings []Finding) []string {
	seen := make(map[string]bool)
	for _, f := range findings {
		seen[f.Rule.CWE] = true
	}
	out := make([]string, 0, len(seen))
	for cwe := range seen {
		out = append(out, cwe)
	}
	sort.Strings(out)
	return out
}

// span is a half-open byte interval.
type span struct{ start, end int }

// inMask reports whether off falls inside any masked span, by binary
// search over the sorted, non-overlapping spans.
func inMask(mask []span, off int) bool {
	i := sort.Search(len(mask), func(i int) bool { return mask[i].end > off })
	return i < len(mask) && mask[i].start <= off
}

package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/dessertlab/patchitpy/internal/detect"
	"github.com/dessertlab/patchitpy/internal/diag"
	"github.com/dessertlab/patchitpy/internal/editor"
	"github.com/dessertlab/patchitpy/internal/obs"
	"github.com/dessertlab/patchitpy/internal/resultcache"
	"github.com/dessertlab/patchitpy/internal/rulecheck"
)

// The session protocol mirrors the VS Code extension's interaction: the
// editor sends the selected code, PatchitPy answers with findings and fix
// previews, and — if the user clicks "Yes" in the popup — the editor sends
// a patch request and receives the TextEdits plus the patched buffer.

// Request is one line of the JSON session protocol.
type Request struct {
	// Cmd is "detect", "suggest", "patch", "open", "edit", "close",
	// "rules", "vet", "stats", "ping" or "metrics".
	Cmd string `json:"cmd"`
	// Code is the selected Python code (detect/suggest/patch) or the
	// initial buffer text (open).
	Code string `json:"code,omitempty"`
	// Tools, when non-empty on a "detect" request, selects analyzers from
	// the registry attached with SetAnalyzers (matched case-insensitively)
	// and answers with one per-tool result instead of the native report.
	Tools []string `json:"tools,omitempty"`
	// Taint, on a native "detect" request, enables the taint precision
	// filter: flow-gated findings with proven-constant sink arguments are
	// returned with their suppressed bit set and excluded from the
	// vulnerable verdict. Ignored by the other verbs; absent means the
	// response is byte-identical to pre-taint protocol versions.
	Taint bool `json:"taint,omitempty"`
	// Session names the buffer session an "edit" or "close" targets (the
	// id a prior "open" response returned).
	Session string `json:"session,omitempty"`
	// Edits are the buffer changes of an "edit" request, applied
	// sequentially: each range is resolved against the text produced by
	// the previous edit, matching the order an editor's change events
	// arrive in.
	Edits []editor.TextEdit `json:"edits,omitempty"`
}

// ToolResultDTO is one analyzer's verdict in a multi-tool detect
// response: the unified diagnostics model serialized as-is.
type ToolResultDTO struct {
	Tool       string         `json:"tool"`
	Vulnerable bool           `json:"vulnerable"`
	Findings   []diag.Finding `json:"findings,omitempty"`
}

// CacheStatsDTO is one result cache's counters serialized for the editor
// (the "stats" verb).
type CacheStatsDTO struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hitRate"`
}

// StatsDTO is the "stats" verb payload: per-cache hit/miss/evict counters
// plus the detector's prefilter skip accounting.
type StatsDTO struct {
	Scan            CacheStatsDTO `json:"scan"`
	RulesConsidered uint64        `json:"rulesConsidered"`
	RulesSkipped    uint64        `json:"rulesSkipped"`
	PrefilterSkip   float64       `json:"prefilterSkipRate"`
}

// VetDTO is the "vet" verb payload: the catalog vetting report with its
// issues in the unified diagnostics shape.
type VetDTO struct {
	RuleCount   int            `json:"ruleCount"`
	Fingerprint string         `json:"fingerprint"`
	Errors      int            `json:"errors"`
	Warnings    int            `json:"warnings"`
	Infos       int            `json:"infos"`
	Findings    []diag.Finding `json:"findings,omitempty"`
}

// FixPreview shows one fix as a TextEdit against the submitted code, so
// the editor can render the popup's preview before the user accepts.
type FixPreview struct {
	RuleID      string          `json:"ruleId"`
	Note        string          `json:"note"`
	Edit        editor.TextEdit `json:"edit"`
	Replacement string          `json:"replacement"`
}

// IncStatsDTO describes the incremental work behind one "edit"
// response: how much of the buffer was treated as dirty and how the
// rule set split between re-running and replaying. Clients use it to
// report re-scan efficiency.
type IncStatsDTO struct {
	// Full is true when the edit fell back to a from-scratch scan.
	Full bool `json:"full"`
	// Spliced is true when the comment mask was updated in place
	// (tier-1 splice) rather than retokenized.
	Spliced bool `json:"spliced"`
	// DirtyBytes is the merged dirty-window size in the edited text.
	DirtyBytes int `json:"dirtyBytes"`
	// RulesRerun and RulesReplayed split the admitted rules between
	// regex re-execution and finding replay.
	RulesRerun    int `json:"rulesRerun"`
	RulesReplayed int `json:"rulesReplayed"`
}

// FindingDTO is a finding serialized for the editor.
type FindingDTO struct {
	RuleID   string `json:"ruleId"`
	CWE      string `json:"cwe"`
	Category string `json:"category"`
	Severity string `json:"severity"`
	Title    string `json:"title"`
	Line     int    `json:"line"`
	Snippet  string `json:"snippet"`
	FixNote  string `json:"fixNote,omitempty"`
	CanFix   bool   `json:"canFix"`
	// Suppressed and SuppressReason mark findings the taint precision
	// filter demoted (requests with "taint": true only).
	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppressReason,omitempty"`
}

// Response is one line of the JSON session protocol.
type Response struct {
	OK         bool         `json:"ok"`
	Error      string       `json:"error,omitempty"`
	Vulnerable bool         `json:"vulnerable,omitempty"`
	Findings   []FindingDTO `json:"findings,omitempty"`
	// TaintSuppressed counts findings the taint precision filter demoted
	// ("detect" with "taint": true); suppressed findings stay in Findings
	// but do not count toward Vulnerable.
	TaintSuppressed int          `json:"taintSuppressed,omitempty"`
	Patched         string       `json:"patched,omitempty"`
	Imports         []string     `json:"importsAdded,omitempty"`
	Previews        []FixPreview `json:"previews,omitempty"`
	RuleCount       int          `json:"ruleCount,omitempty"`
	CWEs            []string     `json:"cwes,omitempty"`
	Stats           *StatsDTO    `json:"stats,omitempty"`
	// Vet carries the catalog vetting report ("vet" verb).
	Vet *VetDTO `json:"vet,omitempty"`
	// Session and Gen identify a buffer session and its document
	// generation ("open"/"edit" responses).
	Session string `json:"session,omitempty"`
	Gen     uint64 `json:"gen,omitempty"`
	// Inc reports the incremental re-scan accounting of an "edit".
	Inc *IncStatsDTO `json:"inc,omitempty"`
	// Tools carries per-analyzer results for requests with a "tools" field.
	Tools []ToolResultDTO `json:"tools,omitempty"`
	// Version and UptimeMs answer the "ping" health check.
	Version  string `json:"version,omitempty"`
	UptimeMs int64  `json:"uptimeMs,omitempty"`
	// Metrics is the full observability snapshot ("metrics" verb; requires
	// SetObs).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Trace is the 128-bit trace ID of the span tree this request
	// recorded (hex, the W3C traceparent trace-id field), present only
	// when an enabled obs registry traced the request. Clients quote it
	// to correlate a response with /debug/traces, histogram exemplars
	// and log records. The HTTP front end leaves it out of the body and
	// sends it in the X-Patchitpy-Trace header instead.
	Trace string `json:"trace,omitempty"`
}

// MaxRequestBytes bounds one protocol request: the stdin loop's line
// buffer and the HTTP front end's body reader both enforce it, so a
// request that fits one transport fits the other.
const MaxRequestBytes = 4 * 1024 * 1024

// Serve reads newline-delimited JSON requests from r and writes one JSON
// response per line to w, until EOF. Malformed requests produce error
// responses; the session keeps running.
func (p *PatchitPy) Serve(r io.Reader, w io.Writer) error {
	return p.ServeContext(context.Background(), r, w)
}

// ServeContext is Serve with cancellation semantics matching the HTTP
// front end's graceful drain: when ctx is canceled (SIGINT/SIGTERM in
// `patchitpy serve`), the loop stops accepting new request lines, the
// request already being handled runs to completion and its response is
// written, and ServeContext returns nil. Lines are pulled by a reader
// goroutine so a cancellation is honored even while the session is idle,
// blocked on a read; the goroutine itself exits on the next line or EOF.
func (p *PatchitPy) ServeContext(ctx context.Context, r io.Reader, w io.Writer) error {
	type lineMsg struct {
		line    []byte
		tooLong bool
		err     error
	}
	lines := make(chan lineMsg)
	go func() {
		defer close(lines)
		br := bufio.NewReaderSize(r, 64*1024)
		for {
			line, tooLong, err := readLine(br, MaxRequestBytes)
			if err != nil && err != io.EOF {
				select {
				case lines <- lineMsg{err: err}:
				case <-ctx.Done():
				}
				return
			}
			if len(line) > 0 || tooLong {
				select {
				case lines <- lineMsg{line: line, tooLong: tooLong}:
				case <-ctx.Done():
					return
				}
			}
			if err == io.EOF {
				return
			}
		}
	}()
	enc := json.NewEncoder(w)
	for {
		// Cancellation wins over buffered input: once ctx is done no
		// further line is accepted, even if one is already waiting.
		if ctx.Err() != nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case msg, ok := <-lines:
			if !ok {
				return nil
			}
			if msg.err != nil {
				return msg.err
			}
			if msg.tooLong {
				// The same answer HTTP gives with its 413; the session
				// resumes at the next line.
				tooLarge := fmt.Sprintf("request body exceeds %d bytes", MaxRequestBytes)
				if p.logger != nil {
					p.logger.Warn("bad request", "transport", "stdio", "error", tooLarge)
				}
				if err := enc.Encode(Response{OK: false, Error: tooLarge}); err != nil {
					return fmt.Errorf("write response: %w", err)
				}
				continue
			}
			if len(msg.line) == 0 {
				continue
			}
			var req Request
			if err := json.Unmarshal(msg.line, &req); err != nil {
				if p.logger != nil {
					p.logger.Warn("bad request", "transport", "stdio", "error", err.Error())
				}
				if err := enc.Encode(Response{OK: false, Error: "bad request: " + err.Error()}); err != nil {
					return fmt.Errorf("write response: %w", err)
				}
				continue
			}
			start := time.Now()
			resp := p.Handle(context.Background(), req)
			if p.logger != nil {
				// The stdio transport's per-request log record, matching
				// the HTTP front end's shape: verb, outcome, duration,
				// trace ID.
				attrs := []any{
					"transport", "stdio",
					"cmd", req.Cmd,
					"ok", resp.OK,
					"durationMs", float64(time.Since(start)) / float64(time.Millisecond),
				}
				if resp.Trace != "" {
					attrs = append(attrs, "trace", resp.Trace)
				}
				if resp.OK {
					p.logger.Info("request", attrs...)
				} else {
					p.logger.Warn("request", append(attrs, "error", resp.Error)...)
				}
			}
			if err := enc.Encode(resp); err != nil {
				return fmt.Errorf("write response: %w", err)
			}
		}
	}
}

// readLine reads one line and returns it without its "\n" or "\r\n"
// ending. A line longer than limit is read through its newline without
// being kept, and reported as tooLong. At end of input it returns the
// unterminated last line, if any, with io.EOF.
func readLine(br *bufio.Reader, limit int) (line []byte, tooLong bool, err error) {
	for {
		var chunk []byte
		chunk, err = br.ReadSlice('\n')
		if !tooLong {
			line = append(line, chunk...)
			// The 2 spare bytes leave room for the line ending.
			if len(line) > limit+2 {
				line, tooLong = nil, true
			}
		}
		if err != bufio.ErrBufferFull {
			break
		}
	}
	line = bytes.TrimSuffix(line, []byte("\n"))
	line = bytes.TrimSuffix(line, []byte("\r"))
	if len(line) > limit {
		line, tooLong = nil, true
	}
	return line, tooLong, err
}

// Handle dispatches one protocol request and returns its response — the
// single verb implementation shared by every front end (the stdin line
// loop above and internal/serve's HTTP endpoints), which is what makes
// the front ends response-identical by construction. The verb handler is
// wrapped with the per-command request counter, latency histogram and a
// "serve.<cmd>" trace span when an enabled obs registry is attached;
// detached or disabled registries cost one nil-safe atomic load. ctx
// carries the caller's deadline through the scan and patch phases.
func (p *PatchitPy) Handle(ctx context.Context, req Request) Response {
	if !p.obsReg.Enabled() {
		return p.handleCmd(ctx, req)
	}
	cmd := req.Cmd
	if cmd == "" {
		cmd = "unknown"
	}
	ctx, span := obs.Start(obs.With(ctx, p.obsReg), "serve."+cmd)
	if req.Session != "" {
		span.SetAttr("session", req.Session)
	}
	start := time.Now()
	resp := p.handleCmd(ctx, req)
	// The exemplar ties this observation's latency bucket to the trace
	// ID, so a histogram outlier links back to its /debug/traces entry.
	p.serveDur.With(cmd).ObserveExemplar(time.Since(start), span.TraceID())
	p.serveReqs.Add(cmd, 1)
	if span != nil {
		if resp.Session != "" && req.Session == "" {
			span.SetAttr("session", resp.Session)
		}
		if len(resp.Findings) > 0 {
			span.SetAttr("findings", len(resp.Findings))
		}
		if !resp.OK {
			span.SetError(resp.Error)
		}
		if tid := span.TraceID(); !tid.IsZero() {
			resp.Trace = tid.String()
		}
	}
	span.End()
	return resp
}

func (p *PatchitPy) handleCmd(ctx context.Context, req Request) Response {
	switch req.Cmd {
	case "detect":
		if len(req.Tools) > 0 {
			return p.detectTools(ctx, req)
		}
		var report Report
		if req.Taint {
			report = p.AnalyzeTaintContext(ctx, req.Code)
		} else {
			report = p.AnalyzeContext(ctx, req.Code)
		}
		return Response{
			OK:              true,
			Vulnerable:      report.Vulnerable,
			Findings:        toDTOs(report.Findings),
			TaintSuppressed: report.Suppressed,
			CWEs:            report.CWEs,
		}
	case "suggest":
		outcome := p.FixContext(ctx, req.Code)
		previews := make([]FixPreview, 0, len(outcome.Result.Applied))
		for i, a := range outcome.Result.Applied {
			previews = append(previews, FixPreview{
				RuleID:      a.Finding.Rule.ID,
				Note:        a.Note,
				Edit:        outcome.Edits[i],
				Replacement: a.Replacement,
			})
		}
		return Response{
			OK:         true,
			Vulnerable: outcome.Report.Vulnerable,
			Findings:   toDTOs(outcome.Report.Findings),
			Previews:   previews,
			Imports:    outcome.Result.ImportsAdded,
			CWEs:       outcome.Report.CWEs,
		}
	case "patch":
		outcome := p.FixContext(ctx, req.Code)
		return Response{
			OK:         true,
			Vulnerable: outcome.Report.Vulnerable,
			Findings:   toDTOs(outcome.Report.Findings),
			Patched:    outcome.Result.Source,
			Imports:    outcome.Result.ImportsAdded,
			CWEs:       outcome.Report.CWEs,
		}
	case "open":
		res := p.sessions.Open(ctx, req.Code)
		return Response{
			OK:         true,
			Session:    res.ID,
			Gen:        res.Gen,
			Vulnerable: len(res.Findings) > 0,
			Findings:   toDTOs(res.Findings),
			CWEs:       detect.DistinctCWEs(res.Findings),
		}
	case "edit":
		res, err := p.sessions.Edit(ctx, req.Session, req.Edits)
		if err != nil {
			return Response{OK: false, Error: err.Error()}
		}
		return Response{
			OK:         true,
			Session:    res.ID,
			Gen:        res.Gen,
			Vulnerable: len(res.Findings) > 0,
			Findings:   toDTOs(res.Findings),
			CWEs:       detect.DistinctCWEs(res.Findings),
			Inc: &IncStatsDTO{
				Full:          res.Stats.Full,
				Spliced:       res.Stats.MaskSpliced,
				DirtyBytes:    res.Stats.DirtyBytes,
				RulesRerun:    res.Stats.RulesRerun,
				RulesReplayed: res.Stats.RulesReplayed,
			},
		}
	case "close":
		if err := p.sessions.Close(req.Session); err != nil {
			return Response{OK: false, Error: err.Error()}
		}
		return Response{OK: true, Session: req.Session}
	case "rules":
		return Response{OK: true, RuleCount: p.Catalog().Len(), CWEs: p.Catalog().CWEs()}
	case "vet":
		rep := rulecheck.Check(p.Catalog())
		return Response{OK: true, Vulnerable: rep.HasErrors(), Vet: &VetDTO{
			RuleCount:   rep.RuleCount,
			Fingerprint: rep.Fingerprint,
			Errors:      rep.Errors(),
			Warnings:    rep.Warnings(),
			Infos:       rep.Infos(),
			Findings:    rep.Findings(),
		}}
	case "stats":
		cs := p.CacheStats()
		toDTO := func(s resultcache.Stats) CacheStatsDTO {
			return CacheStatsDTO{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, HitRate: s.HitRate()}
		}
		return Response{OK: true, Stats: &StatsDTO{
			Scan:            toDTO(cs.Scan),
			RulesConsidered: cs.Prefilter.RulesConsidered,
			RulesSkipped:    cs.Prefilter.RulesSkipped,
			PrefilterSkip:   cs.Prefilter.SkipRate(),
		}}
	case "ping":
		return Response{
			OK:        true,
			Version:   Version,
			UptimeMs:  time.Since(processStart).Milliseconds(),
			RuleCount: p.Catalog().Len(),
		}
	case "metrics":
		if p.obsReg == nil {
			return Response{OK: false, Error: "metrics not available: no observability registry attached (see SetObs)"}
		}
		return Response{OK: true, Metrics: p.obsReg.Snapshot()}
	default:
		return Response{OK: false, Error: "unknown command " + req.Cmd}
	}
}

// detectTools answers a "detect" request that names analyzers: each named
// tool runs over the code and reports through the unified model. The
// aggregate Vulnerable bit is the OR across the selected tools.
func (p *PatchitPy) detectTools(ctx context.Context, req Request) Response {
	reg := p.analyzers
	if reg == nil {
		return Response{OK: false, Error: "tools not available: no analyzer registry attached"}
	}
	resp := Response{OK: true}
	for _, name := range req.Tools {
		a, ok := reg.Find(name)
		if !ok {
			return Response{OK: false, Error: fmt.Sprintf("unknown tool %q (available: %s)",
				name, strings.Join(reg.Names(), ", "))}
		}
		res, err := a.Analyze(ctx, req.Code)
		if err != nil {
			return Response{OK: false, Error: err.Error()}
		}
		resp.Tools = append(resp.Tools, ToolResultDTO{
			Tool:       a.Name(),
			Vulnerable: res.Vulnerable,
			Findings:   res.Findings,
		})
		resp.Vulnerable = resp.Vulnerable || res.Vulnerable
	}
	return resp
}

func toDTOs(findings []detect.Finding) []FindingDTO {
	out := make([]FindingDTO, 0, len(findings))
	for _, f := range findings {
		dto := FindingDTO{
			RuleID:   f.Rule.ID,
			CWE:      f.Rule.CWE,
			Category: f.Rule.Category.String(),
			Severity: f.Rule.Severity.String(),
			Title:    f.Rule.Title,
			Line:     f.Line,
			Snippet:  f.Snippet,
			CanFix:   f.Rule.HasFix(),
		}
		if f.Rule.Fix != nil {
			dto.FixNote = f.Rule.Fix.Note
		}
		dto.Suppressed = f.Suppressed
		dto.SuppressReason = f.SuppressReason
		out = append(out, dto)
	}
	return out
}

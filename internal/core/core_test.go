package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"github.com/dessertlab/patchitpy/internal/editor"
)

const vulnerableApp = `from flask import Flask, request
app = Flask(__name__)

@app.route("/comments")
def comments():
    comment = request.args.get("q", "")
    return f"<p>{comment}</p>"

if __name__ == "__main__":
    app.run(debug=True)
`

func TestAnalyzeVulnerable(t *testing.T) {
	p := New()
	report := p.Analyze(vulnerableApp)
	if !report.Vulnerable {
		t.Fatal("not flagged vulnerable")
	}
	joined := strings.Join(report.CWEs, ",")
	if !strings.Contains(joined, "CWE-079") || !strings.Contains(joined, "CWE-209") {
		t.Errorf("CWEs = %v", report.CWEs)
	}
}

func TestFixEndToEnd(t *testing.T) {
	p := New()
	outcome := p.Fix(vulnerableApp)
	src := outcome.Result.Source
	for _, want := range []string{"escape(comment)", "debug=False, use_reloader=False", "from markupsafe import escape"} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q:\n%s", want, src)
		}
	}
	// rescanning the patched source must be clean
	if rescan := p.Analyze(src); rescan.Vulnerable {
		t.Errorf("patched source still vulnerable: %v", rescan.CWEs)
	}
}

func TestFixEditsMatchPatches(t *testing.T) {
	p := New()
	outcome := p.Fix(vulnerableApp)
	if len(outcome.Edits) != len(outcome.Result.Applied) {
		t.Fatalf("edits = %d, applied = %d", len(outcome.Edits), len(outcome.Result.Applied))
	}
	// Applying the TextEdits to the original source must reproduce the
	// patched body (modulo the import insertion, which is separate).
	edited, err := editor.ApplyEdits(vulnerableApp, outcome.Edits)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(edited, "escape(comment)") {
		t.Errorf("edit application diverged:\n%s", edited)
	}
}

func TestAnalyzeClean(t *testing.T) {
	p := New()
	report := p.Analyze("def add(a, b):\n    return a + b\n")
	if report.Vulnerable || len(report.Findings) != 0 {
		t.Errorf("clean code flagged: %+v", report)
	}
}

func TestCatalogExposed(t *testing.T) {
	p := New()
	if p.Catalog().Len() != 85 {
		t.Errorf("catalog size = %d", p.Catalog().Len())
	}
}

func TestServeProtocol(t *testing.T) {
	p := New()
	var in bytes.Buffer
	reqs := []Request{
		{Cmd: "rules"},
		{Cmd: "detect", Code: vulnerableApp},
		{Cmd: "patch", Code: vulnerableApp},
		{Cmd: "nope"},
	}
	for _, r := range reqs {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		in.Write(b)
		in.WriteByte('\n')
	}
	var out bytes.Buffer
	if err := p.Serve(&in, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("responses = %d, want 4", len(lines))
	}
	var resp Response

	if err := json.Unmarshal([]byte(lines[0]), &resp); err != nil || !resp.OK || resp.RuleCount != 85 {
		t.Errorf("rules response: %+v (%v)", resp, err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &resp); err != nil || !resp.OK || !resp.Vulnerable || len(resp.Findings) == 0 {
		t.Errorf("detect response: %+v (%v)", resp, err)
	}
	for _, f := range resp.Findings {
		if f.RuleID == "" || f.CWE == "" || f.Severity == "" {
			t.Errorf("incomplete finding DTO: %+v", f)
		}
	}
	if err := json.Unmarshal([]byte(lines[2]), &resp); err != nil || !resp.OK || !strings.Contains(resp.Patched, "escape(") {
		t.Errorf("patch response: %+v (%v)", resp, err)
	}
	if err := json.Unmarshal([]byte(lines[3]), &resp); err != nil || resp.OK {
		t.Errorf("unknown-cmd response: %+v (%v)", resp, err)
	}
}

func TestServeMalformedLine(t *testing.T) {
	p := New()
	in := strings.NewReader("{not json}\n{\"cmd\":\"rules\"}\n")
	var out bytes.Buffer
	if err := p.Serve(in, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("responses = %d, want 2", len(lines))
	}
	if !strings.Contains(lines[0], "bad request") {
		t.Errorf("first response: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"ok":true`) {
		t.Errorf("session did not survive the bad line: %s", lines[1])
	}
}

// TestServeOversizedLine: a line over MaxRequestBytes gets the error
// HTTP's 413 carries, and the session keeps serving the lines after it.
func TestServeOversizedLine(t *testing.T) {
	p := New()
	big := `{"cmd":"detect","code":"` + strings.Repeat("x", 5<<20) + `"}`
	in := strings.NewReader(`{"cmd":"ping"}` + "\n" + big + "\n" + `{"cmd":"ping"}` + "\n")
	var out bytes.Buffer
	if err := p.Serve(in, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("responses = %d, want 3: %s", len(lines), out.String())
	}
	var resps [3]Response
	for i, l := range lines {
		if err := json.Unmarshal([]byte(l), &resps[i]); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
	}
	if !resps[0].OK || !resps[2].OK {
		t.Errorf("pings around the oversized line: %+v, %+v", resps[0], resps[2])
	}
	want := "request body exceeds 4194304 bytes"
	if resps[1].OK || resps[1].Error != want {
		t.Errorf("oversized line answered %+v, want error %q", resps[1], want)
	}
}

func TestReadLineLimit(t *testing.T) {
	br := bufio.NewReaderSize(strings.NewReader("abcd\r\nabcde\n\nab"), 16)
	for _, want := range []struct {
		line    string
		tooLong bool
		err     error
	}{
		{"abcd", false, nil}, // at the limit, CRLF trimmed
		{"", true, nil},      // one byte over
		{"", false, nil},     // empty line
		{"ab", false, io.EOF},
	} {
		line, tooLong, err := readLine(br, 4)
		if string(line) != want.line || tooLong != want.tooLong || err != want.err {
			t.Errorf("readLine = %q, %t, %v; want %q, %t, %v", line, tooLong, err, want.line, want.tooLong, want.err)
		}
	}
	// A line longer than the read buffer is reassembled from its chunks.
	long := strings.Repeat("x", 40)
	line, tooLong, err := readLine(bufio.NewReaderSize(strings.NewReader(long+"\n"), 16), 50)
	if string(line) != long || tooLong || err != nil {
		t.Errorf("multi-chunk readLine = %q, %t, %v", line, tooLong, err)
	}
}

func BenchmarkFixPipeline(b *testing.B) {
	p := New()
	b.SetBytes(int64(len(vulnerableApp)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Fix(vulnerableApp)
	}
}

func TestServeSuggestPreviews(t *testing.T) {
	p := New()
	in := strings.NewReader(`{"cmd":"suggest","code":"import hashlib\nh = hashlib.md5(x)\n"}` + "\n")
	var out bytes.Buffer
	if err := p.Serve(in, &out); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || !resp.Vulnerable || len(resp.Previews) != 1 {
		t.Fatalf("suggest response: %+v", resp)
	}
	pv := resp.Previews[0]
	if pv.RuleID != "PIP-CRY-001" || pv.Replacement != "hashlib.sha256(" || pv.Note == "" {
		t.Errorf("preview: %+v", pv)
	}
	if resp.Patched != "" {
		t.Error("suggest must not return patched code")
	}
	// applying the preview edit manually must reproduce the fix
	edited, err := editor.ApplyEdits("import hashlib\nh = hashlib.md5(x)\n", []editor.TextEdit{pv.Edit})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(edited, "hashlib.sha256(x)") {
		t.Errorf("edit application: %q", edited)
	}
}

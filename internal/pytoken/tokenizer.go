package pytoken

import (
	"fmt"
	"strings"
)

// SyntaxError describes a tokenization failure with its source position.
type SyntaxError struct {
	Msg string
	Pos Position
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("line %d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
}

// Tokenizer lexes Python source into tokens. Create one with New and call
// Next until it returns a token of KindEOF, or use Tokenize for the whole
// stream at once.
type Tokenizer struct {
	src       string
	pos       int // byte offset into src
	line      int // 1-based current line
	lineStart int // byte offset of the start of the current line

	indents     []int // indentation stack; always starts with [0]
	parenDepth  int   // >0 inside (), [] or {} -> implicit line joining
	atLineStart bool  // true when the next token begins a logical line
	pending     []Token
	eofSent     bool
}

// New returns a tokenizer over src. The source does not need to end with a
// newline.
func New(src string) *Tokenizer {
	return &Tokenizer{
		src:         src,
		line:        1,
		indents:     []int{0},
		atLineStart: true,
	}
}

// Tokenize lexes the entire source, excluding comments and NL tokens by
// default, and returns the token stream ending with an EOF token.
func Tokenize(src string) ([]Token, error) {
	return tokenizeFiltered(src, false)
}

// TokenizeAll lexes the entire source including comments and NL tokens.
func TokenizeAll(src string) ([]Token, error) {
	return tokenizeFiltered(src, true)
}

func tokenizeFiltered(src string, keepTrivia bool) ([]Token, error) {
	tz := New(src)
	// Python source runs at about 0.27-0.31 tokens per byte; starting
	// near that spares the slice its chain of doublings. The cap keeps a
	// sparse multi-megabyte input (one long string, say) from reserving
	// tens of megabytes it will never fill.
	out := make([]Token, 0, min(len(src)/4, 1<<16)+16)
	for {
		tok, err := tz.Next()
		if err != nil {
			return out, err
		}
		if !keepTrivia && (tok.Kind == KindComment || tok.Kind == KindNL) {
			continue
		}
		out = append(out, tok)
		if tok.Kind == KindEOF {
			return out, nil
		}
	}
}

func (t *Tokenizer) position() Position {
	return Position{Line: t.line, Col: t.pos - t.lineStart, Offset: t.pos}
}

func (t *Tokenizer) peekByte() byte {
	if t.pos >= len(t.src) {
		return 0
	}
	return t.src[t.pos]
}

func (t *Tokenizer) byteAt(i int) byte {
	if i >= len(t.src) {
		return 0
	}
	return t.src[i]
}

// Next returns the next token. After returning EOF it keeps returning EOF.
func (t *Tokenizer) Next() (Token, error) {
	if len(t.pending) > 0 {
		return t.popPending(), nil
	}
	if t.eofSent {
		return Token{Kind: KindEOF, Pos: t.position(), End: t.position()}, nil
	}

	if t.atLineStart && t.parenDepth == 0 {
		if tok, done, err := t.handleLineStart(); done || err != nil {
			return tok, err
		}
	}

	t.skipSpaces()

	if t.pos >= len(t.src) {
		return t.emitEOF()
	}

	c := t.peekByte()
	switch {
	case c == '#':
		return t.lexComment(), nil
	case c == '\n' || c == '\r':
		return t.lexNewline(), nil
	case c == '\\' && (t.byteAt(t.pos+1) == '\n' || t.byteAt(t.pos+1) == '\r'):
		t.consumeLineContinuation()
		return t.Next()
	case isIdentStart(c):
		return t.lexNameOrPrefixedString()
	case isDigit(c) || (c == '.' && isDigit(t.byteAt(t.pos+1))):
		return t.lexNumber(), nil
	case c == '\'' || c == '"':
		return t.lexString("")
	default:
		return t.lexOperator()
	}
}

// handleLineStart measures indentation and emits INDENT/DEDENT/NL tokens
// as needed. It returns (token, true, nil) when a token was produced.
func (t *Tokenizer) handleLineStart() (Token, bool, error) {
	for {
		indent := 0
		start := t.pos
		for t.pos < len(t.src) {
			switch t.src[t.pos] {
			case ' ':
				indent++
				t.pos++
			case '\t':
				indent += 8 - indent%8
				t.pos++
			default:
				goto measured
			}
		}
	measured:
		c := t.peekByte()
		// Blank or comment-only lines produce no indentation changes. End
		// of input is detected by position, not by peekByte's 0 sentinel —
		// a literal NUL byte in the source must fall through to the
		// regular lexing path (and its error) instead of looping here.
		if c == '\n' || c == '\r' || c == '#' || t.pos >= len(t.src) {
			if c == '#' {
				tok := t.lexComment()
				t.pending = append(t.pending, tok)
			}
			if t.pos >= len(t.src) {
				t.atLineStart = false
				if len(t.pending) > 0 {
					return t.popPending(), true, nil
				}
				tok, err := t.emitEOF()
				return tok, true, err
			}
			nl := t.lexPhysicalNewline(KindNL)
			t.pending = append(t.pending, nl)
			return t.popPending(), true, nil
		}

		t.atLineStart = false
		cur := t.indents[len(t.indents)-1]
		pos := Position{Line: t.line, Col: start - t.lineStart, Offset: start}
		switch {
		case indent > cur:
			t.indents = append(t.indents, indent)
			return Token{Kind: KindIndent, Pos: pos, End: t.position()}, true, nil
		case indent < cur:
			for len(t.indents) > 1 && t.indents[len(t.indents)-1] > indent {
				t.indents = t.indents[:len(t.indents)-1]
				t.pending = append(t.pending, Token{Kind: KindDedent, Pos: pos, End: pos})
			}
			if t.indents[len(t.indents)-1] != indent {
				return Token{}, false, &SyntaxError{Msg: "unindent does not match any outer indentation level", Pos: pos}
			}
			return t.popPending(), true, nil
		default:
			return Token{}, false, nil
		}
	}
}

// popPending dequeues the oldest pending token. Draining the queue
// rewinds it in place, so the one-token bursts of blank and comment
// lines reuse its array instead of allocating a new one each.
func (t *Tokenizer) popPending() Token {
	tok := t.pending[0]
	if len(t.pending) == 1 {
		t.pending = t.pending[:0]
	} else {
		t.pending = t.pending[1:]
	}
	return tok
}

func (t *Tokenizer) skipSpaces() {
	for t.pos < len(t.src) {
		c := t.src[t.pos]
		if c == ' ' || c == '\t' || c == '\f' {
			t.pos++
			continue
		}
		// Inside brackets, newlines are whitespace too.
		if t.parenDepth > 0 && (c == '\n' || c == '\r') {
			t.advanceNewline()
			continue
		}
		if c == '\\' && (t.byteAt(t.pos+1) == '\n' || t.byteAt(t.pos+1) == '\r') {
			t.consumeLineContinuation()
			continue
		}
		return
	}
}

func (t *Tokenizer) consumeLineContinuation() {
	t.pos++ // backslash
	t.advanceNewline()
}

// advanceNewline consumes a \n, \r or \r\n sequence and updates line
// accounting.
func (t *Tokenizer) advanceNewline() {
	if t.byteAt(t.pos) == '\r' {
		t.pos++
		if t.byteAt(t.pos) == '\n' {
			t.pos++
		}
	} else if t.byteAt(t.pos) == '\n' {
		t.pos++
	}
	t.line++
	t.lineStart = t.pos
}

func (t *Tokenizer) emitEOF() (Token, error) {
	pos := t.position()
	// Close any open indentation levels before EOF.
	if len(t.indents) > 1 {
		for len(t.indents) > 1 {
			t.indents = t.indents[:len(t.indents)-1]
			t.pending = append(t.pending, Token{Kind: KindDedent, Pos: pos, End: pos})
		}
		t.pending = append(t.pending, Token{Kind: KindEOF, Pos: pos, End: pos})
		t.eofSent = true
		return t.popPending(), nil
	}
	t.eofSent = true
	return Token{Kind: KindEOF, Pos: pos, End: pos}, nil
}

func (t *Tokenizer) lexComment() Token {
	start := t.position()
	begin := t.pos
	for t.pos < len(t.src) && t.src[t.pos] != '\n' && t.src[t.pos] != '\r' {
		t.pos++
	}
	return Token{Kind: KindComment, Text: t.src[begin:t.pos], Pos: start, End: t.position()}
}

func (t *Tokenizer) lexNewline() Token {
	return t.lexPhysicalNewline(KindNewline)
}

func (t *Tokenizer) lexPhysicalNewline(kind Kind) Token {
	start := t.position()
	begin := t.pos
	t.advanceNewline()
	t.atLineStart = true
	return Token{Kind: kind, Text: t.src[begin : begin+1], Pos: start, End: t.position()}
}

func (t *Tokenizer) lexNameOrPrefixedString() (Token, error) {
	start := t.position()
	begin := t.pos
	for t.pos < len(t.src) && isIdentPart(t.src[t.pos]) {
		t.pos++
	}
	text := t.src[begin:t.pos]
	// A string prefix (r, b, f, u and two-letter combos) immediately
	// followed by a quote starts a string literal.
	if len(text) <= 2 && isStringPrefix(text) && (t.peekByte() == '\'' || t.peekByte() == '"') {
		t.pos = begin // rewind; lexString re-consumes the prefix
		return t.lexString(text)
	}
	kind := KindName
	if IsKeyword(text) {
		kind = KindKeyword
	}
	return Token{Kind: kind, Text: text, Pos: start, End: t.position()}, nil
}

func isStringPrefix(s string) bool {
	switch strings.ToLower(s) {
	case "r", "b", "u", "f", "rb", "br", "rf", "fr":
		return true
	}
	return false
}

func (t *Tokenizer) lexString(prefix string) (Token, error) {
	start := t.position()
	begin := t.pos
	t.pos += len(prefix)
	quote := t.src[t.pos]
	raw := strings.ContainsAny(strings.ToLower(prefix), "r")

	triple := false
	if t.byteAt(t.pos+1) == quote && t.byteAt(t.pos+2) == quote {
		triple = true
		t.pos += 3
	} else {
		t.pos++
	}

	for t.pos < len(t.src) {
		c := t.src[t.pos]
		if c == '\\' && !raw && t.pos+1 < len(t.src) {
			if t.src[t.pos+1] == '\r' {
				t.pos += 2
				if t.byteAt(t.pos) == '\n' {
					t.pos++
				}
				t.line++
				t.lineStart = t.pos
				continue
			}
			if t.src[t.pos+1] == '\n' {
				t.pos += 2
				t.line++
				t.lineStart = t.pos
				continue
			}
			t.pos += 2
			continue
		}
		if c == '\\' && raw && t.pos+1 < len(t.src) && t.src[t.pos+1] != '\n' && t.src[t.pos+1] != '\r' {
			// In raw strings a backslash still escapes the quote
			// character for tokenization purposes.
			t.pos += 2
			continue
		}
		if c == quote {
			if triple {
				if t.byteAt(t.pos+1) == quote && t.byteAt(t.pos+2) == quote {
					t.pos += 3
					return Token{Kind: KindString, Text: t.src[begin:t.pos], Pos: start, End: t.position()}, nil
				}
				t.pos++
				continue
			}
			t.pos++
			return Token{Kind: KindString, Text: t.src[begin:t.pos], Pos: start, End: t.position()}, nil
		}
		if c == '\n' || c == '\r' {
			if !triple {
				return Token{}, &SyntaxError{Msg: "EOL while scanning string literal", Pos: start}
			}
			t.advanceNewline()
			continue
		}
		t.pos++
	}
	return Token{}, &SyntaxError{Msg: "EOF while scanning string literal", Pos: start}
}

func (t *Tokenizer) lexNumber() Token {
	start := t.position()
	begin := t.pos
	src := t.src

	if src[t.pos] == '0' && t.pos+1 < len(src) {
		switch src[t.pos+1] {
		case 'x', 'X':
			t.pos += 2
			for t.pos < len(src) && (isHexDigit(src[t.pos]) || src[t.pos] == '_') {
				t.pos++
			}
			return Token{Kind: KindNumber, Text: src[begin:t.pos], Pos: start, End: t.position()}
		case 'o', 'O':
			t.pos += 2
			for t.pos < len(src) && (src[t.pos] >= '0' && src[t.pos] <= '7' || src[t.pos] == '_') {
				t.pos++
			}
			return Token{Kind: KindNumber, Text: src[begin:t.pos], Pos: start, End: t.position()}
		case 'b', 'B':
			t.pos += 2
			for t.pos < len(src) && (src[t.pos] == '0' || src[t.pos] == '1' || src[t.pos] == '_') {
				t.pos++
			}
			return Token{Kind: KindNumber, Text: src[begin:t.pos], Pos: start, End: t.position()}
		}
	}

	digits := func() {
		for t.pos < len(src) && (isDigit(src[t.pos]) || src[t.pos] == '_') {
			t.pos++
		}
	}
	digits()
	if t.pos < len(src) && src[t.pos] == '.' {
		t.pos++
		digits()
	}
	if t.pos < len(src) && (src[t.pos] == 'e' || src[t.pos] == 'E') {
		save := t.pos
		t.pos++
		if t.pos < len(src) && (src[t.pos] == '+' || src[t.pos] == '-') {
			t.pos++
		}
		if t.pos < len(src) && isDigit(src[t.pos]) {
			digits()
		} else {
			t.pos = save
		}
	}
	if t.pos < len(src) && (src[t.pos] == 'j' || src[t.pos] == 'J') {
		t.pos++
	}
	return Token{Kind: KindNumber, Text: src[begin:t.pos], Pos: start, End: t.position()}
}

// operators, longest first within each starting byte, covering all Python 3
// operators and delimiters.
var operators = []string{
	"**=", "//=", ">>=", "<<=", "...", "!=", ">=", "<=", "==", "->", ":=",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "@=", "**", "//",
	"<<", ">>", "+", "-", "*", "/", "%", "@", "&", "|", "^", "~", "<",
	">", "(", ")", "[", "]", "{", "}", ",", ":", ".", ";", "=",
}

// operatorsByByte lists the operators by first byte, in the order of
// operators, so lexOperator tries only the few that can match.
var operatorsByByte = func() (idx [256][]string) {
	for _, op := range operators {
		idx[op[0]] = append(idx[op[0]], op)
	}
	return idx
}()

func (t *Tokenizer) lexOperator() (Token, error) {
	start := t.position()
	rest := t.src[t.pos:]
	for _, op := range operatorsByByte[rest[0]] {
		if strings.HasPrefix(rest, op) {
			t.pos += len(op)
			switch op {
			case "(", "[", "{":
				t.parenDepth++
			case ")", "]", "}":
				if t.parenDepth > 0 {
					t.parenDepth--
				}
			}
			return Token{Kind: KindOp, Text: op, Pos: start, End: t.position()}, nil
		}
	}
	// Unknown byte (e.g. stray unicode); consume it as an OP token so the
	// pipeline degrades gracefully on odd AI-generated output.
	c := rest[0]
	if c >= 0x80 {
		// consume the full UTF-8 rune
		n := 1
		for n < len(rest) && rest[n]&0xC0 == 0x80 {
			n++
		}
		t.pos += n
		return Token{Kind: KindOp, Text: rest[:n], Pos: start, End: t.position()}, nil
	}
	t.pos++
	return Token{Kind: KindOp, Text: string(c), Pos: start, End: t.position()}, nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= 0x80
}

func isIdentPart(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isHexDigit(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

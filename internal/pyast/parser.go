package pyast

import (
	"fmt"
	"strings"

	"github.com/dessertlab/patchitpy/internal/pytoken"
)

// Parse tokenizes and parses src into a Module. A non-nil error is returned
// only for failures that prevent producing any tree at all (tokenizer
// errors); statement-level syntax problems are recovered and recorded in
// Module.Errors, mirroring how the paper's tool tolerates incomplete
// AI-generated snippets.
func Parse(src string) (*Module, error) {
	toks, err := pytoken.Tokenize(src)
	if err != nil {
		return nil, fmt.Errorf("tokenize: %w", err)
	}
	p := &parser{toks: toks}
	return p.parseModule(), nil
}

type parser struct {
	toks []pytoken.Token
	pos  int
	mod  *Module
	// depth counts the brackets open around the current position.
	depth int
	// chain counts the right-recursive productions open around the
	// current position: unary operators, not, await, **, lambda, yield,
	// starred targets, and the else and elif chains.
	chain int
}

// maxNesting bounds bracket nesting at CPython's own limit (the
// tokenizer's MAXLEVEL), so no valid Python is rejected: each level
// costs a dozen recursive calls, and an unbounded one lets a few hundred
// KB of "(" overflow the goroutine stack, which no recover can catch.
const maxNesting = 200

// maxChain bounds the right-recursive productions at CPython's parser
// stack limit (MAXSTACK). CPython spends several rule levels on each
// operator, so no Python it parses is rejected; unbounded, a couple of MB
// of "-" overflow the goroutine stack.
const maxChain = 6000

// bailout carries a recovered syntax error up to the statement loop.
// Panic/recover is used strictly as internal control flow within this
// package (the same pattern as encoding/json); it never escapes Parse.
type bailout struct{ err *ParseError }

func (p *parser) errorf(format string, args ...any) {
	panic(bailout{err: &ParseError{Msg: fmt.Sprintf(format, args...), Position: p.peek().Pos}})
}

// openBracket counts one more open bracket, failing the statement
// beyond maxNesting; closeBracket undoes it. parseStatementRecover resets
// the count of a failed statement.
func (p *parser) openBracket() {
	p.depth++
	if p.depth > maxNesting {
		p.errorf("too many nested brackets (limit %d)", maxNesting)
	}
}

func (p *parser) closeBracket() { p.depth-- }

// enterChain counts one more right-recursive production, failing the
// statement beyond maxChain; leaveChain undoes it. parseStatementRecover
// resets the count of a failed statement.
func (p *parser) enterChain() {
	p.chain++
	if p.chain > maxChain {
		p.errorf("expression nested too deeply (limit %d)", maxChain)
	}
}

func (p *parser) leaveChain() { p.chain-- }

func (p *parser) peek() pytoken.Token { return p.toks[p.pos] }

func (p *parser) at(kind pytoken.Kind, text string) bool {
	t := p.peek()
	return t.Kind == kind && t.Text == text
}

func (p *parser) atKind(kind pytoken.Kind) bool { return p.peek().Kind == kind }

func (p *parser) next() pytoken.Token {
	t := p.toks[p.pos]
	if t.Kind != pytoken.KindEOF {
		p.pos++
	}
	return t
}

func (p *parser) accept(kind pytoken.Kind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind pytoken.Kind, text string) pytoken.Token {
	if !p.at(kind, text) {
		p.errorf("expected %q, found %s", text, p.peek())
	}
	return p.next()
}

func (p *parser) expectKind(kind pytoken.Kind) pytoken.Token {
	if !p.atKind(kind) {
		p.errorf("expected %s, found %s", kind, p.peek())
	}
	return p.next()
}

func (p *parser) parseModule() *Module {
	p.mod = &Module{}
	for !p.atKind(pytoken.KindEOF) {
		if p.atKind(pytoken.KindNewline) || p.atKind(pytoken.KindNL) {
			p.next()
			continue
		}
		// Stray indentation at top level (common in AI snippets cut from a
		// larger function body): tolerate by treating the indented block as
		// top-level statements.
		if p.atKind(pytoken.KindIndent) || p.atKind(pytoken.KindDedent) {
			p.next()
			continue
		}
		p.mod.Body = append(p.mod.Body, p.parseStatementRecover()...)
	}
	return p.mod
}

// parseStatementRecover parses one logical line (one compound statement or
// several ';'-separated simple statements), converting syntax panics into a
// BadStmt plus a recorded error and resynchronizing at the next logical
// line.
func (p *parser) parseStatementRecover() (stmts []Stmt) {
	start, depth, chain := p.pos, p.depth, p.chain
	defer func() {
		if r := recover(); r != nil {
			b, ok := r.(bailout)
			if !ok {
				panic(r)
			}
			p.mod.Errors = append(p.mod.Errors, b.err)
			p.depth, p.chain = depth, chain
			// resync: skip to after the next NEWLINE
			if p.pos == start {
				p.next()
			}
			for !p.atKind(pytoken.KindEOF) && !p.atKind(pytoken.KindNewline) {
				p.next()
			}
			if p.atKind(pytoken.KindNewline) {
				p.next()
			}
			var parts []string
			for i := start; i < p.pos && i < len(p.toks); i++ {
				parts = append(parts, p.toks[i].Text)
			}
			stmts = []Stmt{&BadStmt{Source: strings.Join(parts, " "), Position: p.toks[start].Pos}}
		}
	}()
	return p.parseStatement()
}

func (p *parser) parseStatement() []Stmt {
	t := p.peek()
	if t.Kind == pytoken.KindKeyword {
		switch t.Text {
		case "if":
			return []Stmt{p.parseIf()}
		case "while":
			return []Stmt{p.parseWhile()}
		case "for":
			return []Stmt{p.parseFor(false)}
		case "try":
			return []Stmt{p.parseTry()}
		case "with":
			return []Stmt{p.parseWith(false)}
		case "def":
			return []Stmt{p.parseFunctionDef(nil, false)}
		case "class":
			return []Stmt{p.parseClassDef(nil)}
		case "async":
			return []Stmt{p.parseAsync()}
		}
	}
	if t.Is(pytoken.KindOp, "@") {
		return []Stmt{p.parseDecorated()}
	}
	return p.parseSimpleStatements()
}

func (p *parser) parseDecorated() Stmt {
	var decorators []Expr
	for p.at(pytoken.KindOp, "@") {
		p.next()
		decorators = append(decorators, p.parseTest())
		p.expectKind(pytoken.KindNewline)
		for p.atKind(pytoken.KindNL) {
			p.next()
		}
	}
	switch {
	case p.at(pytoken.KindKeyword, "def"):
		return p.parseFunctionDef(decorators, false)
	case p.at(pytoken.KindKeyword, "class"):
		return p.parseClassDef(decorators)
	case p.at(pytoken.KindKeyword, "async"):
		pos := p.next().Pos
		if p.at(pytoken.KindKeyword, "def") {
			fd := p.parseFunctionDef(decorators, true)
			if f, ok := fd.(*FunctionDef); ok {
				f.Position = pos
			}
			return fd
		}
		p.errorf("expected def after async")
	}
	p.errorf("expected def or class after decorators")
	return nil
}

func (p *parser) parseAsync() Stmt {
	pos := p.expect(pytoken.KindKeyword, "async").Pos
	switch {
	case p.at(pytoken.KindKeyword, "def"):
		s := p.parseFunctionDef(nil, true)
		if f, ok := s.(*FunctionDef); ok {
			f.Position = pos
		}
		return s
	case p.at(pytoken.KindKeyword, "for"):
		s := p.parseFor(true)
		if f, ok := s.(*For); ok {
			f.Position = pos
		}
		return s
	case p.at(pytoken.KindKeyword, "with"):
		s := p.parseWith(true)
		if w, ok := s.(*With); ok {
			w.Position = pos
		}
		return s
	}
	p.errorf("expected def, for or with after async")
	return nil
}

func (p *parser) parseIf() Stmt {
	pos := p.expect(pytoken.KindKeyword, "if").Pos
	cond := p.parseNamedTest()
	body := p.parseSuite()
	node := &If{Cond: cond, Body: body, Position: pos}
	switch {
	case p.at(pytoken.KindKeyword, "elif"):
		elifPos := p.peek().Pos
		p.toks[p.pos].Text = "if" // rewrite elif -> nested if
		p.enterChain()
		nested := p.parseIf()
		p.leaveChain()
		if n, ok := nested.(*If); ok {
			n.Position = elifPos
		}
		node.Orelse = []Stmt{nested}
	case p.at(pytoken.KindKeyword, "else"):
		p.next()
		node.Orelse = p.parseSuite()
	}
	return node
}

func (p *parser) parseWhile() Stmt {
	pos := p.expect(pytoken.KindKeyword, "while").Pos
	cond := p.parseNamedTest()
	body := p.parseSuite()
	node := &While{Cond: cond, Body: body, Position: pos}
	if p.accept(pytoken.KindKeyword, "else") {
		node.Orelse = p.parseSuite()
	}
	return node
}

func (p *parser) parseFor(async bool) Stmt {
	pos := p.expect(pytoken.KindKeyword, "for").Pos
	target := p.parseTargetList()
	p.expect(pytoken.KindKeyword, "in")
	iter := p.parseTestList()
	body := p.parseSuite()
	node := &For{Target: target, Iter: iter, Body: body, Async: async, Position: pos}
	if p.accept(pytoken.KindKeyword, "else") {
		node.Orelse = p.parseSuite()
	}
	return node
}

func (p *parser) parseTry() Stmt {
	pos := p.expect(pytoken.KindKeyword, "try").Pos
	node := &Try{Position: pos, Body: p.parseSuite()}
	for p.at(pytoken.KindKeyword, "except") {
		hpos := p.next().Pos
		h := ExceptHandler{Position: hpos}
		if !p.at(pytoken.KindOp, ":") {
			h.Type = p.parseTest()
			if p.accept(pytoken.KindKeyword, "as") {
				h.Name = p.expectKind(pytoken.KindName).Text
			}
		}
		h.Body = p.parseSuite()
		node.Handlers = append(node.Handlers, h)
	}
	if p.accept(pytoken.KindKeyword, "else") {
		node.Orelse = p.parseSuite()
	}
	if p.accept(pytoken.KindKeyword, "finally") {
		node.Finally = p.parseSuite()
	}
	if len(node.Handlers) == 0 && node.Finally == nil {
		p.errorf("try statement needs except or finally")
	}
	return node
}

func (p *parser) parseWith(async bool) Stmt {
	pos := p.expect(pytoken.KindKeyword, "with").Pos
	node := &With{Async: async, Position: pos}
	paren := p.accept(pytoken.KindOp, "(") // PEP 617 parenthesized items
	for {
		item := WithItem{Context: p.parseTest()}
		if p.accept(pytoken.KindKeyword, "as") {
			item.Target = p.parseTarget()
		}
		node.Items = append(node.Items, item)
		if !p.accept(pytoken.KindOp, ",") {
			break
		}
		if paren && p.at(pytoken.KindOp, ")") {
			break
		}
	}
	if paren {
		p.expect(pytoken.KindOp, ")")
	}
	node.Body = p.parseSuite()
	return node
}

func (p *parser) parseFunctionDef(decorators []Expr, async bool) Stmt {
	pos := p.expect(pytoken.KindKeyword, "def").Pos
	name := p.expectKind(pytoken.KindName).Text
	p.expect(pytoken.KindOp, "(")
	params := p.parseParams()
	p.expect(pytoken.KindOp, ")")
	var returns Expr
	if p.accept(pytoken.KindOp, "->") {
		returns = p.parseTest()
	}
	body := p.parseSuite()
	return &FunctionDef{
		Name: name, Params: params, Body: body,
		Decorators: decorators, Returns: returns, Async: async, Position: pos,
	}
}

func (p *parser) parseParams() []Param {
	var params []Param
	for !p.at(pytoken.KindOp, ")") && !p.atKind(pytoken.KindEOF) {
		var param Param
		switch {
		case p.accept(pytoken.KindOp, "**"):
			param.DoubleStar = true
			param.Name = p.expectKind(pytoken.KindName).Text
		case p.accept(pytoken.KindOp, "*"):
			param.Star = true
			if p.atKind(pytoken.KindName) {
				param.Name = p.next().Text
			}
		case p.accept(pytoken.KindOp, "/"):
			// positional-only marker; record as a bare slash param
			param.Name = "/"
		default:
			param.Name = p.expectKind(pytoken.KindName).Text
			if p.accept(pytoken.KindOp, ":") {
				param.Annotation = p.parseTest()
			}
			if p.accept(pytoken.KindOp, "=") {
				param.Default = p.parseTest()
			}
		}
		params = append(params, param)
		if !p.accept(pytoken.KindOp, ",") {
			break
		}
	}
	return params
}

func (p *parser) parseClassDef(decorators []Expr) Stmt {
	pos := p.expect(pytoken.KindKeyword, "class").Pos
	name := p.expectKind(pytoken.KindName).Text
	node := &ClassDef{Name: name, Decorators: decorators, Position: pos}
	if p.accept(pytoken.KindOp, "(") {
		for !p.at(pytoken.KindOp, ")") && !p.atKind(pytoken.KindEOF) {
			if p.atKind(pytoken.KindName) && p.toks[p.pos+1].Is(pytoken.KindOp, "=") {
				kw := Keyword{Name: p.next().Text}
				p.next() // =
				kw.Value = p.parseTest()
				node.Keywords = append(node.Keywords, kw)
			} else {
				node.Bases = append(node.Bases, p.parseTest())
			}
			if !p.accept(pytoken.KindOp, ",") {
				break
			}
		}
		p.expect(pytoken.KindOp, ")")
	}
	node.Body = p.parseSuite()
	return node
}

// parseSuite parses ":" followed by either inline simple statements or an
// indented block.
func (p *parser) parseSuite() []Stmt {
	p.expect(pytoken.KindOp, ":")
	if !p.atKind(pytoken.KindNewline) {
		return p.parseSimpleStatements()
	}
	p.next() // NEWLINE
	for p.atKind(pytoken.KindNL) {
		p.next()
	}
	if !p.atKind(pytoken.KindIndent) {
		p.errorf("expected an indented block")
	}
	p.next()
	var body []Stmt
	for !p.atKind(pytoken.KindDedent) && !p.atKind(pytoken.KindEOF) {
		if p.atKind(pytoken.KindNewline) || p.atKind(pytoken.KindNL) {
			p.next()
			continue
		}
		body = append(body, p.parseStatementRecover()...)
	}
	if p.atKind(pytoken.KindDedent) {
		p.next()
	}
	return body
}

// parseSimpleStatements parses one or more ';'-separated simple statements
// terminated by a NEWLINE and returns them in source order.
func (p *parser) parseSimpleStatements() []Stmt {
	stmts := []Stmt{p.parseSimpleStatement()}
	for p.accept(pytoken.KindOp, ";") {
		if p.atKind(pytoken.KindNewline) || p.atKind(pytoken.KindEOF) {
			break
		}
		stmts = append(stmts, p.parseSimpleStatement())
	}
	if p.atKind(pytoken.KindNewline) {
		p.next()
	} else if !p.atKind(pytoken.KindEOF) && !p.atKind(pytoken.KindDedent) {
		p.errorf("unexpected %s after statement", p.peek())
	}
	return stmts
}

func (p *parser) parseSimpleStatement() Stmt {
	t := p.peek()
	if t.Kind == pytoken.KindKeyword {
		switch t.Text {
		case "import":
			return p.parseImport()
		case "from":
			return p.parseImportFrom()
		case "return":
			pos := p.next().Pos
			node := &Return{Position: pos}
			if !p.atKind(pytoken.KindNewline) && !p.at(pytoken.KindOp, ";") && !p.atKind(pytoken.KindEOF) && !p.atKind(pytoken.KindDedent) {
				node.Value = p.parseTestList()
			}
			return node
		case "raise":
			pos := p.next().Pos
			node := &Raise{Position: pos}
			if !p.atKind(pytoken.KindNewline) && !p.at(pytoken.KindOp, ";") && !p.atKind(pytoken.KindEOF) {
				node.Exc = p.parseTest()
				if p.accept(pytoken.KindKeyword, "from") {
					node.Cause = p.parseTest()
				}
			}
			return node
		case "assert":
			pos := p.next().Pos
			node := &Assert{Position: pos, Test: p.parseTest()}
			if p.accept(pytoken.KindOp, ",") {
				node.Msg = p.parseTest()
			}
			return node
		case "pass":
			return &Pass{Position: p.next().Pos}
		case "break":
			return &Break{Position: p.next().Pos}
		case "continue":
			return &Continue{Position: p.next().Pos}
		case "global":
			pos := p.next().Pos
			return &Global{Position: pos, Names: p.parseNameList()}
		case "nonlocal":
			pos := p.next().Pos
			return &Nonlocal{Position: pos, Names: p.parseNameList()}
		case "del":
			pos := p.next().Pos
			node := &Del{Position: pos}
			node.Targets = append(node.Targets, p.parseTarget())
			for p.accept(pytoken.KindOp, ",") {
				node.Targets = append(node.Targets, p.parseTarget())
			}
			return node
		case "yield":
			pos := t.Pos
			return &ExprStmt{Position: pos, Value: p.parseYield()}
		}
	}
	return p.parseExprStatement()
}

func (p *parser) parseNameList() []string {
	names := []string{p.expectKind(pytoken.KindName).Text}
	for p.accept(pytoken.KindOp, ",") {
		names = append(names, p.expectKind(pytoken.KindName).Text)
	}
	return names
}

func (p *parser) parseImport() Stmt {
	pos := p.expect(pytoken.KindKeyword, "import").Pos
	node := &Import{Position: pos}
	for {
		alias := Alias{Name: p.parseDottedName()}
		if p.accept(pytoken.KindKeyword, "as") {
			alias.AsName = p.expectKind(pytoken.KindName).Text
		}
		node.Names = append(node.Names, alias)
		if !p.accept(pytoken.KindOp, ",") {
			break
		}
	}
	return node
}

func (p *parser) parseImportFrom() Stmt {
	pos := p.expect(pytoken.KindKeyword, "from").Pos
	node := &ImportFrom{Position: pos}
	for p.at(pytoken.KindOp, ".") || p.at(pytoken.KindOp, "...") {
		node.Level += len(p.next().Text)
	}
	if p.atKind(pytoken.KindName) {
		node.Module = p.parseDottedName()
	}
	p.expect(pytoken.KindKeyword, "import")
	if p.accept(pytoken.KindOp, "*") {
		node.Star = true
		return node
	}
	paren := p.accept(pytoken.KindOp, "(")
	for {
		alias := Alias{Name: p.expectKind(pytoken.KindName).Text}
		if p.accept(pytoken.KindKeyword, "as") {
			alias.AsName = p.expectKind(pytoken.KindName).Text
		}
		node.Names = append(node.Names, alias)
		if !p.accept(pytoken.KindOp, ",") {
			break
		}
		if paren && p.at(pytoken.KindOp, ")") {
			break
		}
	}
	if paren {
		p.expect(pytoken.KindOp, ")")
	}
	return node
}

func (p *parser) parseDottedName() string {
	var b strings.Builder
	b.WriteString(p.expectKind(pytoken.KindName).Text)
	for p.at(pytoken.KindOp, ".") {
		p.next()
		b.WriteByte('.')
		b.WriteString(p.expectKind(pytoken.KindName).Text)
	}
	return b.String()
}

var augOps = map[string]bool{
	"+=": true, "-=": true, "*=": true, "/=": true, "//=": true, "%=": true,
	"**=": true, ">>=": true, "<<=": true, "&=": true, "|=": true, "^=": true,
	"@=": true,
}

func (p *parser) parseExprStatement() Stmt {
	pos := p.peek().Pos
	first := p.parseTestListStar()

	t := p.peek()
	if t.Kind == pytoken.KindOp && augOps[t.Text] {
		op := p.next().Text
		var value Expr
		if p.at(pytoken.KindKeyword, "yield") {
			value = p.parseYield()
		} else {
			value = p.parseTestList()
		}
		return &AugAssign{Target: first, Op: op, Value: value, Position: pos}
	}

	if p.at(pytoken.KindOp, ":") {
		p.next()
		ann := p.parseTest()
		node := &AnnAssign{Target: first, Annotation: ann, Position: pos}
		if p.accept(pytoken.KindOp, "=") {
			node.Value = p.parseTestList()
		}
		return node
	}

	if p.at(pytoken.KindOp, "=") {
		targets := []Expr{first}
		var value Expr
		for p.accept(pytoken.KindOp, "=") {
			if p.at(pytoken.KindKeyword, "yield") {
				value = p.parseYield()
				break
			}
			value = p.parseTestListStar()
			if p.at(pytoken.KindOp, "=") {
				targets = append(targets, value)
			}
		}
		return &Assign{Targets: targets, Value: value, Position: pos}
	}

	return &ExprStmt{Value: first, Position: pos}
}

func (p *parser) parseYield() Expr {
	pos := p.expect(pytoken.KindKeyword, "yield").Pos
	node := &Yield{Position: pos}
	p.enterChain()
	defer p.leaveChain()
	if p.accept(pytoken.KindKeyword, "from") {
		node.From = true
		node.Value = p.parseTest()
		return node
	}
	if !p.atKind(pytoken.KindNewline) && !p.at(pytoken.KindOp, ")") && !p.at(pytoken.KindOp, ";") && !p.atKind(pytoken.KindEOF) {
		node.Value = p.parseTestList()
	}
	return node
}

// parseTargetList parses assignment/for targets: a, (b, c), d[0], e.attr.
func (p *parser) parseTargetList() Expr {
	pos := p.peek().Pos
	first := p.parseTarget()
	if !p.at(pytoken.KindOp, ",") {
		return first
	}
	elts := []Expr{first}
	for p.accept(pytoken.KindOp, ",") {
		if p.at(pytoken.KindKeyword, "in") || p.at(pytoken.KindOp, "=") || p.atKind(pytoken.KindNewline) {
			break
		}
		elts = append(elts, p.parseTarget())
	}
	return &Tuple{Elts: elts, Position: pos}
}

func (p *parser) parseTarget() Expr {
	if p.at(pytoken.KindOp, "*") {
		pos := p.next().Pos
		p.enterChain()
		value := p.parseTarget()
		p.leaveChain()
		return &Starred{Value: value, Position: pos}
	}
	return p.parsePrimary()
}

// parseTestListStar parses "test (',' test)* [',']" building a Tuple when a
// comma occurs (the common "a, b = f()" pattern).
func (p *parser) parseTestListStar() Expr {
	pos := p.peek().Pos
	first := p.parseStarOrTest()
	if !p.at(pytoken.KindOp, ",") {
		return first
	}
	elts := []Expr{first}
	for p.accept(pytoken.KindOp, ",") {
		if p.atEndOfTestList() {
			break
		}
		elts = append(elts, p.parseStarOrTest())
	}
	return &Tuple{Elts: elts, Position: pos}
}

func (p *parser) atEndOfTestList() bool {
	t := p.peek()
	if t.Kind == pytoken.KindNewline || t.Kind == pytoken.KindEOF || t.Kind == pytoken.KindDedent {
		return true
	}
	if t.Kind == pytoken.KindOp {
		switch t.Text {
		case "=", ")", "]", "}", ":", ";":
			return true
		}
	}
	return false
}

func (p *parser) parseStarOrTest() Expr {
	if p.at(pytoken.KindOp, "*") {
		pos := p.next().Pos
		return &Starred{Value: p.parseTest(), Position: pos}
	}
	return p.parseNamedTest()
}

func (p *parser) parseTestList() Expr { return p.parseTestListStar() }

// parseNamedTest allows the walrus operator at the top of a condition.
func (p *parser) parseNamedTest() Expr {
	e := p.parseTest()
	if p.at(pytoken.KindOp, ":=") {
		pos := p.next().Pos
		right := p.parseTest()
		return &BinOp{Left: e, Op: ":=", Right: right, Position: pos}
	}
	return e
}

func (p *parser) parseTest() Expr {
	if p.at(pytoken.KindKeyword, "lambda") {
		return p.parseLambda()
	}
	cond := p.parseOrTest()
	if p.at(pytoken.KindKeyword, "if") {
		pos := p.next().Pos
		test := p.parseOrTest()
		p.expect(pytoken.KindKeyword, "else")
		p.enterChain()
		orelse := p.parseTest()
		p.leaveChain()
		return &IfExp{Cond: test, Body: cond, Orelse: orelse, Position: pos}
	}
	return cond
}

func (p *parser) parseLambda() Expr {
	pos := p.expect(pytoken.KindKeyword, "lambda").Pos
	p.enterChain()
	defer p.leaveChain()
	var params []Param
	if !p.at(pytoken.KindOp, ":") {
		params = p.parseLambdaParams()
	}
	p.expect(pytoken.KindOp, ":")
	return &Lambda{Params: params, Body: p.parseTest(), Position: pos}
}

func (p *parser) parseLambdaParams() []Param {
	var params []Param
	for {
		var param Param
		switch {
		case p.accept(pytoken.KindOp, "**"):
			param.DoubleStar = true
			param.Name = p.expectKind(pytoken.KindName).Text
		case p.accept(pytoken.KindOp, "*"):
			param.Star = true
			if p.atKind(pytoken.KindName) {
				param.Name = p.next().Text
			}
		default:
			param.Name = p.expectKind(pytoken.KindName).Text
			if p.accept(pytoken.KindOp, "=") {
				param.Default = p.parseTest()
			}
		}
		params = append(params, param)
		if !p.accept(pytoken.KindOp, ",") {
			return params
		}
		if p.at(pytoken.KindOp, ":") {
			return params
		}
	}
}

func (p *parser) parseOrTest() Expr {
	left := p.parseAndTest()
	if !p.at(pytoken.KindKeyword, "or") {
		return left
	}
	node := &BoolOp{Op: "or", Values: []Expr{left}, Position: left.Pos()}
	for p.accept(pytoken.KindKeyword, "or") {
		node.Values = append(node.Values, p.parseAndTest())
	}
	return node
}

func (p *parser) parseAndTest() Expr {
	left := p.parseNotTest()
	if !p.at(pytoken.KindKeyword, "and") {
		return left
	}
	node := &BoolOp{Op: "and", Values: []Expr{left}, Position: left.Pos()}
	for p.accept(pytoken.KindKeyword, "and") {
		node.Values = append(node.Values, p.parseNotTest())
	}
	return node
}

func (p *parser) parseNotTest() Expr {
	if p.at(pytoken.KindKeyword, "not") {
		pos := p.next().Pos
		p.enterChain()
		operand := p.parseNotTest()
		p.leaveChain()
		return &UnaryOp{Op: "not", Operand: operand, Position: pos}
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() Expr {
	left := p.parseBitOr()
	var ops []string
	var comps []Expr
	for {
		t := p.peek()
		var op string
		switch {
		case t.Kind == pytoken.KindOp && (t.Text == "<" || t.Text == ">" || t.Text == "==" || t.Text == ">=" || t.Text == "<=" || t.Text == "!="):
			op = p.next().Text
		case t.Is(pytoken.KindKeyword, "in"):
			p.next()
			op = "in"
		case t.Is(pytoken.KindKeyword, "not") && p.toks[p.pos+1].Is(pytoken.KindKeyword, "in"):
			p.next()
			p.next()
			op = "not in"
		case t.Is(pytoken.KindKeyword, "is"):
			p.next()
			op = "is"
			if p.accept(pytoken.KindKeyword, "not") {
				op = "is not"
			}
		default:
			if len(ops) == 0 {
				return left
			}
			return &Compare{Left: left, Ops: ops, Comparators: comps, Position: left.Pos()}
		}
		ops = append(ops, op)
		comps = append(comps, p.parseBitOr())
	}
}

func (p *parser) parseBinOpLevel(ops []string, sub func() Expr) Expr {
	left := sub()
	for {
		t := p.peek()
		matched := ""
		if t.Kind == pytoken.KindOp {
			for _, op := range ops {
				if t.Text == op {
					matched = op
					break
				}
			}
		}
		if matched == "" {
			return left
		}
		pos := p.next().Pos
		right := sub()
		left = &BinOp{Left: left, Op: matched, Right: right, Position: pos}
	}
}

func (p *parser) parseBitOr() Expr {
	return p.parseBinOpLevel([]string{"|"}, p.parseBitXor)
}

func (p *parser) parseBitXor() Expr {
	return p.parseBinOpLevel([]string{"^"}, p.parseBitAnd)
}

func (p *parser) parseBitAnd() Expr {
	return p.parseBinOpLevel([]string{"&"}, p.parseShift)
}

func (p *parser) parseShift() Expr {
	return p.parseBinOpLevel([]string{"<<", ">>"}, p.parseArith)
}

func (p *parser) parseArith() Expr {
	return p.parseBinOpLevel([]string{"+", "-"}, p.parseTerm)
}

func (p *parser) parseTerm() Expr {
	return p.parseBinOpLevel([]string{"*", "/", "//", "%", "@"}, p.parseFactor)
}

func (p *parser) parseFactor() Expr {
	t := p.peek()
	if t.Kind == pytoken.KindOp && (t.Text == "+" || t.Text == "-" || t.Text == "~") {
		pos := p.next().Pos
		p.enterChain()
		operand := p.parseFactor()
		p.leaveChain()
		return &UnaryOp{Op: t.Text, Operand: operand, Position: pos}
	}
	return p.parsePower()
}

func (p *parser) parsePower() Expr {
	base := p.parseAwaitPrimary()
	if p.at(pytoken.KindOp, "**") {
		pos := p.next().Pos
		p.enterChain()
		right := p.parseFactor()
		p.leaveChain()
		return &BinOp{Left: base, Op: "**", Right: right, Position: pos}
	}
	return base
}

func (p *parser) parseAwaitPrimary() Expr {
	if p.at(pytoken.KindKeyword, "await") {
		pos := p.next().Pos
		p.enterChain()
		value := p.parseAwaitPrimary()
		p.leaveChain()
		return &Await{Value: value, Position: pos}
	}
	return p.parsePrimary()
}

// parsePrimary parses an atom followed by call/subscript/attribute trailers.
func (p *parser) parsePrimary() Expr {
	e := p.parseAtom()
	for {
		switch {
		case p.at(pytoken.KindOp, "("):
			pos := p.next().Pos
			call := &Call{Func: e, Position: pos}
			p.openBracket()
			p.parseCallArgs(call)
			p.expect(pytoken.KindOp, ")")
			p.closeBracket()
			e = call
		case p.at(pytoken.KindOp, "["):
			pos := p.next().Pos
			p.openBracket()
			idx := p.parseSubscriptIndex()
			p.expect(pytoken.KindOp, "]")
			p.closeBracket()
			e = &Subscript{Value: e, Index: idx, Position: pos}
		case p.at(pytoken.KindOp, "."):
			pos := p.next().Pos
			attr := p.expectKind(pytoken.KindName).Text
			e = &Attribute{Value: e, Attr: attr, Position: pos}
		default:
			return e
		}
	}
}

func (p *parser) parseCallArgs(call *Call) {
	for !p.at(pytoken.KindOp, ")") && !p.atKind(pytoken.KindEOF) {
		switch {
		case p.accept(pytoken.KindOp, "**"):
			call.Keywords = append(call.Keywords, Keyword{Value: p.parseTest()})
		case p.at(pytoken.KindOp, "*"):
			pos := p.next().Pos
			call.Args = append(call.Args, &Starred{Value: p.parseTest(), Position: pos})
		case p.atKind(pytoken.KindName) && p.toks[p.pos+1].Is(pytoken.KindOp, "="):
			kw := Keyword{Name: p.next().Text}
			p.next() // =
			kw.Value = p.parseTest()
			call.Keywords = append(call.Keywords, kw)
		default:
			arg := p.parseTest()
			// generator expression argument: f(x for x in xs)
			if p.at(pytoken.KindKeyword, "for") || (p.at(pytoken.KindKeyword, "async") && p.toks[p.pos+1].Is(pytoken.KindKeyword, "for")) {
				arg = p.parseCompTail("generator", arg, nil, arg.Pos())
			}
			if p.at(pytoken.KindOp, ":=") {
				pos := p.next().Pos
				arg = &BinOp{Left: arg, Op: ":=", Right: p.parseTest(), Position: pos}
			}
			call.Args = append(call.Args, arg)
		}
		if !p.accept(pytoken.KindOp, ",") {
			return
		}
	}
}

func (p *parser) parseSubscriptIndex() Expr {
	pos := p.peek().Pos
	parseItem := func() Expr {
		var lower Expr
		if !p.at(pytoken.KindOp, ":") {
			lower = p.parseTest()
			if p.at(pytoken.KindOp, ":=") {
				wpos := p.next().Pos
				lower = &BinOp{Left: lower, Op: ":=", Right: p.parseTest(), Position: wpos}
			}
		}
		if !p.at(pytoken.KindOp, ":") {
			return lower
		}
		sl := &Slice{Lower: lower, Position: pos}
		p.next()
		if !p.at(pytoken.KindOp, ":") && !p.at(pytoken.KindOp, "]") && !p.at(pytoken.KindOp, ",") {
			sl.Upper = p.parseTest()
		}
		if p.accept(pytoken.KindOp, ":") {
			if !p.at(pytoken.KindOp, "]") && !p.at(pytoken.KindOp, ",") {
				sl.Step = p.parseTest()
			}
		}
		return sl
	}
	first := parseItem()
	if !p.at(pytoken.KindOp, ",") {
		return first
	}
	elts := []Expr{first}
	for p.accept(pytoken.KindOp, ",") {
		if p.at(pytoken.KindOp, "]") {
			break
		}
		elts = append(elts, parseItem())
	}
	return &Tuple{Elts: elts, Position: pos}
}

func (p *parser) parseAtom() Expr {
	t := p.peek()
	switch t.Kind {
	case pytoken.KindName:
		p.next()
		return &Name{ID: t.Text, Position: t.Pos}
	case pytoken.KindNumber:
		p.next()
		return &NumberLit{Text: t.Text, Position: t.Pos}
	case pytoken.KindString:
		return p.parseStringAtom()
	case pytoken.KindKeyword:
		switch t.Text {
		case "True", "False", "None":
			p.next()
			return &ConstLit{Kind: t.Text, Position: t.Pos}
		case "lambda":
			return p.parseLambda()
		case "not":
			return p.parseNotTest()
		case "yield":
			return p.parseYield()
		case "await":
			return p.parseAwaitPrimary()
		}
	case pytoken.KindOp:
		switch t.Text {
		case "(":
			return p.parseParenAtom()
		case "[":
			return p.parseListAtom()
		case "{":
			return p.parseDictSetAtom()
		case "...":
			p.next()
			return &ConstLit{Kind: "...", Position: t.Pos}
		}
	}
	p.errorf("unexpected %s in expression", t)
	return nil
}

func (p *parser) parseStringAtom() Expr {
	first := p.next()
	raw := first.Text
	fstr := isFStringText(first.Text)
	for p.atKind(pytoken.KindString) { // implicit concatenation
		seg := p.next()
		raw += seg.Text
		fstr = fstr || isFStringText(seg.Text)
	}
	return &StringLit{
		Raw:      raw,
		Value:    Unquote(first.Text),
		FString:  fstr,
		Position: first.Pos,
	}
}

func isFStringText(s string) bool {
	for i := 0; i < len(s) && i < 2; i++ {
		if s[i] == 'f' || s[i] == 'F' {
			return true
		}
		if s[i] == '\'' || s[i] == '"' {
			return false
		}
	}
	return false
}

// Unquote strips the prefix and quotes from a string literal token and
// resolves common escapes. Best-effort: unknown escapes are kept verbatim.
func Unquote(tok string) string {
	i := 0
	raw := false
	for i < len(tok) && tok[i] != '\'' && tok[i] != '"' {
		if tok[i] == 'r' || tok[i] == 'R' {
			raw = true
		}
		i++
	}
	if i >= len(tok) {
		return tok
	}
	quote := tok[i]
	body := tok[i:]
	switch {
	case len(body) >= 6 && body[1] == quote && body[2] == quote:
		body = body[3 : len(body)-3]
	case len(body) >= 2:
		body = body[1 : len(body)-1]
	}
	if raw || !strings.ContainsRune(body, '\\') {
		return body
	}
	var b strings.Builder
	for j := 0; j < len(body); j++ {
		if body[j] != '\\' || j+1 >= len(body) {
			b.WriteByte(body[j])
			continue
		}
		j++
		switch body[j] {
		case 'n':
			b.WriteByte('\n')
		case 't':
			b.WriteByte('\t')
		case 'r':
			b.WriteByte('\r')
		case '\\', '\'', '"':
			b.WriteByte(body[j])
		case '0':
			b.WriteByte(0)
		default:
			b.WriteByte('\\')
			b.WriteByte(body[j])
		}
	}
	return b.String()
}

func (p *parser) parseParenAtom() Expr {
	pos := p.expect(pytoken.KindOp, "(").Pos
	p.openBracket()
	defer p.closeBracket()
	if p.accept(pytoken.KindOp, ")") {
		return &Tuple{Position: pos}
	}
	if p.at(pytoken.KindKeyword, "yield") {
		e := p.parseYield()
		p.expect(pytoken.KindOp, ")")
		return e
	}
	first := p.parseStarOrTest()
	if p.at(pytoken.KindKeyword, "for") || (p.at(pytoken.KindKeyword, "async") && p.toks[p.pos+1].Is(pytoken.KindKeyword, "for")) {
		comp := p.parseCompTail("generator", first, nil, pos)
		p.expect(pytoken.KindOp, ")")
		return comp
	}
	if p.at(pytoken.KindOp, ",") {
		elts := []Expr{first}
		for p.accept(pytoken.KindOp, ",") {
			if p.at(pytoken.KindOp, ")") {
				break
			}
			elts = append(elts, p.parseStarOrTest())
		}
		p.expect(pytoken.KindOp, ")")
		return &Tuple{Elts: elts, Position: pos}
	}
	p.expect(pytoken.KindOp, ")")
	return first
}

func (p *parser) parseListAtom() Expr {
	pos := p.expect(pytoken.KindOp, "[").Pos
	p.openBracket()
	defer p.closeBracket()
	if p.accept(pytoken.KindOp, "]") {
		return &List{Position: pos}
	}
	first := p.parseStarOrTest()
	if p.at(pytoken.KindKeyword, "for") || (p.at(pytoken.KindKeyword, "async") && p.toks[p.pos+1].Is(pytoken.KindKeyword, "for")) {
		comp := p.parseCompTail("list", first, nil, pos)
		p.expect(pytoken.KindOp, "]")
		return comp
	}
	elts := []Expr{first}
	for p.accept(pytoken.KindOp, ",") {
		if p.at(pytoken.KindOp, "]") {
			break
		}
		elts = append(elts, p.parseStarOrTest())
	}
	p.expect(pytoken.KindOp, "]")
	return &List{Elts: elts, Position: pos}
}

func (p *parser) parseDictSetAtom() Expr {
	pos := p.expect(pytoken.KindOp, "{").Pos
	p.openBracket()
	defer p.closeBracket()
	if p.accept(pytoken.KindOp, "}") {
		return &Dict{Position: pos}
	}
	// **expansion means dict
	if p.accept(pytoken.KindOp, "**") {
		d := &Dict{Position: pos}
		d.Keys = append(d.Keys, nil)
		d.Values = append(d.Values, p.parseTest())
		for p.accept(pytoken.KindOp, ",") {
			if p.at(pytoken.KindOp, "}") {
				break
			}
			p.parseDictEntry(d)
		}
		p.expect(pytoken.KindOp, "}")
		return d
	}
	first := p.parseNamedTest()
	if p.at(pytoken.KindOp, ":") {
		p.next()
		value := p.parseTest()
		if p.at(pytoken.KindKeyword, "for") {
			comp := p.parseCompTail("dict", first, value, pos)
			p.expect(pytoken.KindOp, "}")
			return comp
		}
		d := &Dict{Position: pos}
		d.Keys = append(d.Keys, first)
		d.Values = append(d.Values, value)
		for p.accept(pytoken.KindOp, ",") {
			if p.at(pytoken.KindOp, "}") {
				break
			}
			p.parseDictEntry(d)
		}
		p.expect(pytoken.KindOp, "}")
		return d
	}
	if p.at(pytoken.KindKeyword, "for") {
		comp := p.parseCompTail("set", first, nil, pos)
		p.expect(pytoken.KindOp, "}")
		return comp
	}
	s := &Set{Elts: []Expr{first}, Position: pos}
	for p.accept(pytoken.KindOp, ",") {
		if p.at(pytoken.KindOp, "}") {
			break
		}
		s.Elts = append(s.Elts, p.parseNamedTest())
	}
	p.expect(pytoken.KindOp, "}")
	return s
}

func (p *parser) parseDictEntry(d *Dict) {
	if p.accept(pytoken.KindOp, "**") {
		d.Keys = append(d.Keys, nil)
		d.Values = append(d.Values, p.parseTest())
		return
	}
	k := p.parseTest()
	p.expect(pytoken.KindOp, ":")
	v := p.parseTest()
	d.Keys = append(d.Keys, k)
	d.Values = append(d.Values, v)
}

func (p *parser) parseCompTail(kind string, elt, value Expr, pos pytoken.Position) Expr {
	comp := &Comp{Kind: kind, Elt: elt, Value: value, Position: pos}
	for {
		if p.at(pytoken.KindKeyword, "async") && p.toks[p.pos+1].Is(pytoken.KindKeyword, "for") {
			p.next()
		}
		if !p.accept(pytoken.KindKeyword, "for") {
			break
		}
		gen := CompFor{Target: p.parseTargetList()}
		p.expect(pytoken.KindKeyword, "in")
		gen.Iter = p.parseOrTest()
		for p.at(pytoken.KindKeyword, "if") {
			p.next()
			gen.Ifs = append(gen.Ifs, p.parseOrTest())
		}
		comp.Generators = append(comp.Generators, gen)
	}
	return comp
}

package xmtc

import (
	"strconv"
	"strings"
)

// Lexer tokenizes XMTC source.
type Lexer struct {
	src  string
	file string
	off  int
	line int
	col  int
}

// NewLexer creates a lexer for src.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

func (l *Lexer) pos() Pos { return Pos{File: l.file, Line: l.line, Col: l.col} }

func (l *Lexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *Lexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *Lexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *Lexer) skipSpace() error {
	for l.off < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			start := l.pos()
			l.advance()
			l.advance()
			for {
				if l.off >= len(l.src) {
					return errf(start, "unterminated block comment")
				}
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					break
				}
				l.advance()
			}
		case c == '#':
			// Preprocessor lines (e.g. #include) are skipped: the XMTC
			// toolchain's headers only declare the builtins, which this
			// compiler knows natively.
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

func isIdentStart(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	pos := l.pos()
	if l.off >= len(l.src) {
		return Token{Kind: EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.off
		for l.off < len(l.src) && isIdentPart(l.peek()) {
			l.advance()
		}
		word := l.src[start:l.off]
		if kw, ok := keywords[word]; ok {
			switch kw {
			case KwTrue:
				return Token{Kind: INTLIT, Pos: pos, Int: 1}, nil
			case KwFalse:
				return Token{Kind: INTLIT, Pos: pos, Int: 0}, nil
			}
			return Token{Kind: kw, Pos: pos}, nil
		}
		return Token{Kind: IDENT, Pos: pos, Text: word}, nil

	case isDigit(c), c == '.' && isDigit(l.peek2()):
		return l.number(pos)

	case c == '"':
		return l.stringLit(pos)

	case c == '\'':
		return l.charLit(pos)

	case c == '$':
		l.advance()
		return Token{Kind: DOLLAR, Pos: pos}, nil
	}

	// Operators, longest match first.
	three := ""
	if l.off+3 <= len(l.src) {
		three = l.src[l.off : l.off+3]
	}
	switch three {
	case "<<=":
		l.advanceN(3)
		return Token{Kind: SHLA, Pos: pos}, nil
	case ">>=":
		l.advanceN(3)
		return Token{Kind: SHRA, Pos: pos}, nil
	}
	two := ""
	if l.off+2 <= len(l.src) {
		two = l.src[l.off : l.off+2]
	}
	if t, ok := twoTok[two]; ok {
		l.advanceN(2)
		return Token{Kind: t, Pos: pos}, nil
	}
	if t := oneTok[c]; t != EOF {
		l.advance()
		return Token{Kind: t, Pos: pos}, nil
	}
	return Token{}, errf(pos, "unexpected character %q", string(c))
}

// The two- and one-character operators (the three-character ones are the
// shift assignments Next matches itself). EOF marks a byte that is no
// operator.
var (
	twoTok = map[string]Tok{
		"->": ARROW, "+=": ADDA, "-=": SUBA, "*=": MULA, "/=": DIVA, "%=": REMA,
		"&=": ANDA, "|=": ORA, "^=": XORA, "||": OROR, "&&": ANDAND,
		"==": EQ, "!=": NE, "<=": LE, ">=": GE, "<<": SHL, ">>": SHR,
		"++": INC, "--": DEC,
	}
	oneTok = [256]Tok{
		'(': LPAREN, ')': RPAREN, '{': LBRACE, '}': RBRACE, '[': LBRACK, ']': RBRACK,
		';': SEMI, ',': COMMA, '?': QUESTION, ':': COLON, '=': ASSIGN,
		'|': OR, '^': XOR, '&': AND, '<': LT, '>': GT, '+': ADD, '-': SUB,
		'*': MUL, '/': DIV, '%': REM, '!': NOT, '~': TILDE, '.': DOT,
	}
)

func (l *Lexer) advanceN(n int) {
	for i := 0; i < n; i++ {
		l.advance()
	}
}

func (l *Lexer) number(pos Pos) (Token, error) {
	start := l.off
	isFloat := false
	if l.peek() == '0' && (l.peek2() == 'x' || l.peek2() == 'X') {
		l.advanceN(2)
		for l.off < len(l.src) && isHex(l.peek()) {
			l.advance()
		}
		v, err := strconv.ParseUint(l.src[start+2:l.off], 16, 32)
		if err != nil {
			return Token{}, errf(pos, "bad hex literal %q", l.src[start:l.off])
		}
		if l.peek() == 'u' || l.peek() == 'U' {
			l.advance()
		}
		return Token{Kind: INTLIT, Pos: pos, Int: int64(v)}, nil
	}
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' {
		isFloat = true
		l.advance()
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		isFloat = true
		l.advance()
		if l.peek() == '+' || l.peek() == '-' {
			l.advance()
		}
		for l.off < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'f' || l.peek() == 'F' {
		isFloat = true
		l.advance()
		text := l.src[start : l.off-1]
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, errf(pos, "bad float literal %q", text)
		}
		return Token{Kind: FLOATLIT, Pos: pos, Flt: f}, nil
	}
	text := l.src[start:l.off]
	if isFloat {
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Token{}, errf(pos, "bad float literal %q", text)
		}
		return Token{Kind: FLOATLIT, Pos: pos, Flt: f}, nil
	}
	v, err := strconv.ParseUint(text, 10, 32)
	if err != nil {
		return Token{}, errf(pos, "bad integer literal %q", text)
	}
	if l.peek() == 'u' || l.peek() == 'U' {
		l.advance()
	}
	return Token{Kind: INTLIT, Pos: pos, Int: int64(v)}, nil
}

func isHex(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (l *Lexer) stringLit(pos Pos) (Token, error) {
	l.advance() // "
	var b strings.Builder
	for {
		if l.off >= len(l.src) {
			return Token{}, errf(pos, "unterminated string literal")
		}
		c := l.advance()
		if c == '"' {
			return Token{Kind: STRINGLIT, Pos: pos, Text: b.String()}, nil
		}
		if c == '\\' {
			e, err := l.escape(pos)
			if err != nil {
				return Token{}, err
			}
			b.WriteByte(e)
			continue
		}
		b.WriteByte(c)
	}
}

func (l *Lexer) charLit(pos Pos) (Token, error) {
	l.advance() // '
	if l.off >= len(l.src) {
		return Token{}, errf(pos, "unterminated char literal")
	}
	c := l.advance()
	if c == '\\' {
		e, err := l.escape(pos)
		if err != nil {
			return Token{}, err
		}
		c = e
	}
	if l.off >= len(l.src) || l.advance() != '\'' {
		return Token{}, errf(pos, "unterminated char literal")
	}
	return Token{Kind: INTLIT, Pos: pos, Int: int64(c)}, nil
}

func (l *Lexer) escape(pos Pos) (byte, error) {
	if l.off >= len(l.src) {
		return 0, errf(pos, "unterminated escape")
	}
	c := l.advance()
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\', '\'', '"':
		return c, nil
	}
	return 0, errf(pos, "unknown escape \\%c", c)
}

// LexAll tokenizes the whole input (convenience for tests).
func LexAll(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}

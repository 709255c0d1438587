package lang

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokInt
	tokString
	tokPunct   // one of the operator/punctuation strings
	tokKeyword // int, void, fnptr, if, else, while, return, break, continue, printf, scanf
)

type token struct {
	kind tokenKind
	text string
	pos  Pos
}

var keywords = map[string]bool{
	"int": true, "void": true, "fnptr": true, "if": true, "else": true,
	"while": true, "return": true, "break": true, "continue": true,
	"printf": true, "scanf": true,
}

// lexer turns MicroC source text into tokens.
type lexer struct {
	src  string
	off  int
	line int
	col  int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1, col: 1} }

func (lx *lexer) errorf(pos Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))
}

func (lx *lexer) peekByte() byte {
	if lx.off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.off]
}

func (lx *lexer) advance() byte {
	c := lx.src[lx.off]
	lx.off++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *lexer) skipSpaceAndComments() error {
	for lx.off < len(lx.src) {
		c := lx.peekByte()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '/' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '/':
			for lx.off < len(lx.src) && lx.peekByte() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.off+1 < len(lx.src) && lx.src[lx.off+1] == '*':
			pos := Pos{lx.line, lx.col}
			lx.advance()
			lx.advance()
			for {
				if lx.off+1 >= len(lx.src) {
					return lx.errorf(pos, "unterminated block comment")
				}
				if lx.peekByte() == '*' && lx.src[lx.off+1] == '/' {
					lx.advance()
					lx.advance()
					break
				}
				lx.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// next scans and returns the next token.
func (lx *lexer) next() (token, error) {
	if err := lx.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	pos := Pos{lx.line, lx.col}
	if lx.off >= len(lx.src) {
		return token{kind: tokEOF, pos: pos}, nil
	}
	c := lx.peekByte()
	switch {
	case c == '_' || unicode.IsLetter(rune(c)):
		start := lx.off
		for lx.off < len(lx.src) {
			b := lx.peekByte()
			if b == '_' || unicode.IsLetter(rune(b)) || unicode.IsDigit(rune(b)) {
				lx.advance()
			} else {
				break
			}
		}
		text := lx.src[start:lx.off]
		if keywords[text] {
			return token{kind: tokKeyword, text: text, pos: pos}, nil
		}
		return token{kind: tokIdent, text: text, pos: pos}, nil

	case unicode.IsDigit(rune(c)):
		start := lx.off
		for lx.off < len(lx.src) && unicode.IsDigit(rune(lx.peekByte())) {
			lx.advance()
		}
		return token{kind: tokInt, text: lx.src[start:lx.off], pos: pos}, nil

	case c == '"':
		lx.advance()
		var sb strings.Builder
		for {
			if lx.off >= len(lx.src) {
				return token{}, lx.errorf(pos, "unterminated string literal")
			}
			b := lx.advance()
			if b == '"' {
				break
			}
			if b == '\\' {
				if lx.off >= len(lx.src) {
					return token{}, lx.errorf(pos, "unterminated escape")
				}
				e := lx.advance()
				switch e {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '\\', '"':
					sb.WriteByte(e)
				case '%':
					sb.WriteString("%%")
				default:
					return token{}, lx.errorf(pos, "unknown escape \\%c", e)
				}
				continue
			}
			sb.WriteByte(b)
		}
		return token{kind: tokString, text: sb.String(), pos: pos}, nil
	}

	if lx.off+1 < len(lx.src) {
		switch p := lx.src[lx.off : lx.off+2]; p {
		case "==", "!=", "<=", ">=", "&&", "||":
			lx.advance()
			lx.advance()
			return token{kind: tokPunct, text: p, pos: pos}, nil
		}
	}
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '=', '!', '(', ')', '{', '}', ',', ';', '&':
		lx.advance()
		return token{kind: tokPunct, text: string(c), pos: pos}, nil
	}
	return token{}, lx.errorf(pos, "unexpected character %q", c)
}

// lexAll scans the entire source. The token slice is pre-sized for about
// three bytes of source per token (MicroC sources run 2.4–3.8), so a
// typical program lexes with at most one growth.
func lexAll(src string) ([]token, error) {
	lx := newLexer(src)
	toks := make([]token, 0, len(src)/3+1)
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		toks = append(toks, t)
		if t.kind == tokEOF {
			return toks, nil
		}
	}
}

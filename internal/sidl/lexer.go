package sidl

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// tokKind enumerates lexical token kinds of the SIDL concrete syntax.
type tokKind uint8

const (
	tokEOF tokKind = iota + 1
	tokIdent
	tokInt
	tokFloat
	tokString
	tokPunct // single-rune punctuation: ; , { } ( ) < > = .
)

// token is one lexical token, carrying source offsets so the parser can
// slice verbatim text (for RawModule preservation) and report positions.
type token struct {
	kind tokKind
	text string // identifier text, literal text, or punctuation rune
	str  string // decoded value for tokString
	pos  int    // byte offset of the token start
	end  int    // byte offset just past the token
	line int    // 1-based line of the token start
	// doc holds the comment block immediately preceding the token, with
	// comment markers stripped; used to attach documentation.
	doc string
}

// lexer produces tokens from SIDL source text. It strips // and /* */
// comments, recording immediately-preceding comment blocks as doc text.
type lexer struct {
	src  string
	off  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func (lx *lexer) errorf(line int, format string, args ...any) error {
	return fmt.Errorf("sidl: line %d: %s", line, fmt.Sprintf(format, args...))
}

// next returns the next token, or an error on malformed input.
func (lx *lexer) next() (token, error) {
	var doc strings.Builder
	docLine := -2 // line of the last comment line seen
	for {
		lx.skipSpace()
		if lx.off >= len(lx.src) {
			return token{kind: tokEOF, pos: lx.off, end: lx.off, line: lx.line}, nil
		}
		// Comments.
		if strings.HasPrefix(lx.src[lx.off:], "//") {
			start := lx.off + 2
			end := strings.IndexByte(lx.src[start:], '\n')
			if end < 0 {
				end = len(lx.src) - start
			}
			text := strings.TrimSpace(lx.src[start : start+end])
			if docLine >= 0 && lx.line != docLine+1 {
				doc.Reset() // gap between comment blocks: keep only the last
			}
			if doc.Len() > 0 {
				doc.WriteByte('\n')
			}
			doc.WriteString(text)
			docLine = lx.line
			lx.off = start + end
			continue
		}
		if strings.HasPrefix(lx.src[lx.off:], "/*") {
			end := strings.Index(lx.src[lx.off+2:], "*/")
			if end < 0 {
				return token{}, lx.errorf(lx.line, "unterminated block comment")
			}
			body := lx.src[lx.off+2 : lx.off+2+end]
			lx.line += strings.Count(body, "\n")
			// Trimmed line by line, as // comments are: docs print as
			// those, and must read back the same.
			lines := strings.Split(strings.TrimSpace(body), "\n")
			for i := range lines {
				lines[i] = strings.TrimSpace(lines[i])
			}
			doc.Reset()
			doc.WriteString(strings.Join(lines, "\n"))
			docLine = lx.line
			lx.off += 2 + end + 2
			continue
		}
		break
	}
	// A doc comment counts only if it immediately precedes the token.
	docText := ""
	if docLine >= 0 && lx.line <= docLine+1 {
		docText = doc.String()
	}

	start, startLine := lx.off, lx.line
	c, size := utf8.DecodeRuneInString(lx.src[lx.off:])
	switch {
	case isIdentStart(c):
		for lx.off < len(lx.src) {
			r, n := utf8.DecodeRuneInString(lx.src[lx.off:])
			if !isIdentPart(r) {
				break
			}
			lx.off += n
		}
		return token{kind: tokIdent, text: lx.src[start:lx.off], pos: start, end: lx.off, line: startLine, doc: docText}, nil

	case c >= '0' && c <= '9', c == '-' && lx.peekDigit(1), c == '+' && lx.peekDigit(1):
		return lx.lexNumber(start, startLine, docText)

	case c == '"':
		lx.off += size
		var b strings.Builder
		for {
			if lx.off >= len(lx.src) {
				return token{}, lx.errorf(startLine, "unterminated string literal")
			}
			r, n := utf8.DecodeRuneInString(lx.src[lx.off:])
			lx.off += n
			if r == '"' {
				break
			}
			if r == '\n' {
				return token{}, lx.errorf(startLine, "newline in string literal")
			}
			if r == '\\' {
				// Go's escapes, which strconv.Quote — how a string literal
				// prints — writes.
				v, multibyte, tail, err := strconv.UnquoteChar(lx.src[lx.off-n:], '"')
				if err != nil {
					return token{}, lx.errorf(startLine, "bad escape in string literal")
				}
				if multibyte {
					b.WriteRune(v)
				} else {
					b.WriteByte(byte(v))
				}
				lx.off = len(lx.src) - len(tail)
				continue
			}
			b.WriteRune(r)
		}
		return token{kind: tokString, text: lx.src[start:lx.off], str: b.String(), pos: start, end: lx.off, line: startLine, doc: docText}, nil

	case strings.ContainsRune(";,{}()<>=.", c):
		lx.off += size
		return token{kind: tokPunct, text: string(c), pos: start, end: lx.off, line: startLine, doc: docText}, nil
	}
	return token{}, lx.errorf(startLine, "unexpected character %q", c)
}

func (lx *lexer) lexNumber(start, startLine int, docText string) (token, error) {
	if lx.src[lx.off] == '-' || lx.src[lx.off] == '+' {
		lx.off++
	}
	isFloat := false
	for lx.off < len(lx.src) {
		c := lx.src[lx.off]
		switch {
		case c >= '0' && c <= '9':
			lx.off++
		case c == '.':
			if isFloat {
				return token{}, lx.errorf(startLine, "malformed number %q", lx.src[start:lx.off+1])
			}
			isFloat = true
			lx.off++
		case c == 'e' || c == 'E':
			isFloat = true
			lx.off++
			if lx.off < len(lx.src) && (lx.src[lx.off] == '-' || lx.src[lx.off] == '+') {
				lx.off++
			}
		default:
			goto done
		}
	}
done:
	kind := tokInt
	if isFloat {
		kind = tokFloat
	}
	return token{kind: kind, text: lx.src[start:lx.off], pos: start, end: lx.off, line: startLine, doc: docText}, nil
}

func (lx *lexer) peekDigit(ahead int) bool {
	i := lx.off + ahead
	return i < len(lx.src) && lx.src[i] >= '0' && lx.src[i] <= '9'
}

func (lx *lexer) skipSpace() {
	for lx.off < len(lx.src) {
		switch lx.src[lx.off] {
		case ' ', '\t', '\r':
			lx.off++
		case '\n':
			lx.line++
			lx.off++
		default:
			return
		}
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

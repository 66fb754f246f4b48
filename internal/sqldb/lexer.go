package sqldb

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer output.
type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokParam // ? placeholder
	tokSymbol
	tokKeyword
)

type token struct {
	kind tokenKind
	text string // keywords uppercased; idents in original case
	pos  int    // byte offset, for error messages
}

// keywords recognised by the lexer. Anything else alphabetic is an
// identifier.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "AND": true, "OR": true,
	"NOT": true, "INSERT": true, "INTO": true, "VALUES": true, "CREATE": true,
	"TABLE": true, "INDEX": true, "CLUSTERED": true, "ON": true, "DROP": true,
	"TRUNCATE": true, "DELETE": true, "UPDATE": true, "SET": true,
	"JOIN": true, "CROSS": true, "INNER": true, "LEFT": true, "OUTER": true,
	"GROUP": true, "BY": true, "ORDER": true, "ASC": true, "DESC": true,
	"LIMIT": true, "TOP": true, "AS": true, "BETWEEN": true, "IN": true,
	"IS": true, "NULL": true, "LIKE": true, "CASE": true, "WHEN": true,
	"THEN": true, "ELSE": true, "END": true, "HAVING": true, "DISTINCT": true,
	"PRIMARY": true, "KEY": true, "IDENTITY": true, "CAST": true,
	"TRUE": true, "FALSE": true, "EXISTS": true, "IF": true, "COUNT": true,
}

// EXPLAIN, ANALYZE, and COLUMNSTORE are deliberately NOT reserved: they
// lex as identifiers and the parser matches them contextually (statement
// start, after EXPLAIN, after CREATE CLUSTERED), so existing catalogs
// with columns or tables named "columnstore" etc. stay queryable.

// lex scans the SQL text into tokens. Comments (-- line and /* block */)
// are skipped. Identifiers may be [bracketed] (T-SQL style) or "quoted".
func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-':
			for i < n && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < n && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return nil, fmt.Errorf("sqldb: unterminated block comment at offset %d", i)
			}
			i += 2 + end + 2
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			for {
				if i >= n {
					return nil, fmt.Errorf("sqldb: unterminated string literal at offset %d", start)
				}
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				sb.WriteByte(src[i])
				i++
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: start})
		case c == '[':
			end := strings.IndexByte(src[i:], ']')
			if end < 0 {
				return nil, fmt.Errorf("sqldb: unterminated [identifier] at offset %d", i)
			}
			toks = append(toks, token{kind: tokIdent, text: src[i+1 : i+end], pos: i})
			i += end + 1
		case c == '"':
			end := strings.IndexByte(src[i+1:], '"')
			if end < 0 {
				return nil, fmt.Errorf(`sqldb: unterminated "identifier" at offset %d`, i)
			}
			toks = append(toks, token{kind: tokIdent, text: src[i+1 : i+1+end], pos: i})
			i += end + 2
		case c == '?':
			toks = append(toks, token{kind: tokParam, text: "?", pos: i})
			i++
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(src[i+1])):
			start := i
			seenDot, seenExp := false, false
			for i < n {
				d := src[i]
				if isDigit(d) {
					i++
					continue
				}
				if d == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
					continue
				}
				if (d == 'e' || d == 'E') && !seenExp && i > start {
					seenExp = true
					i++
					if i < n && (src[i] == '+' || src[i] == '-') {
						i++
					}
					continue
				}
				break
			}
			toks = append(toks, token{kind: tokNumber, text: src[start:i], pos: start})
		case isIdentStart(c):
			start := i
			for i < n && isIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, token{kind: tokKeyword, text: upper, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: start})
			}
		default:
			// Multi-char operators first.
			for _, op := range []string{"<=", ">=", "<>", "!=", "||"} {
				if strings.HasPrefix(src[i:], op) {
					toks = append(toks, token{kind: tokSymbol, text: op, pos: i})
					i += 2
					goto next
				}
			}
			if strings.ContainsRune("+-*/%(),.<>=;", rune(c)) {
				toks = append(toks, token{kind: tokSymbol, text: string(c), pos: i})
				i++
				goto next
			}
			return nil, fmt.Errorf("sqldb: unexpected character %q at offset %d", c, i)
		next:
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: n})
	return toks, nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || c == '@' || c == '#' || unicode.IsLetter(rune(c))
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || isDigit(c) || c == '$'
}

package htmlparse

import (
	"strings"
)

// TokenType identifies the kind of a token emitted by the Tokenizer.
type TokenType int

const (
	// CharacterToken carries a run of character data.
	CharacterToken TokenType = iota
	// StartTagToken is an opening tag such as <div id=x>.
	StartTagToken
	// EndTagToken is a closing tag such as </div>.
	EndTagToken
	// CommentToken is a <!-- comment -->.
	CommentToken
	// DoctypeToken is a <!DOCTYPE ...> declaration.
	DoctypeToken
	// EOFToken is emitted exactly once, when the input is exhausted.
	EOFToken
)

func (t TokenType) String() string {
	switch t {
	case CharacterToken:
		return "Character"
	case StartTagToken:
		return "StartTag"
	case EndTagToken:
		return "EndTag"
	case CommentToken:
		return "Comment"
	case DoctypeToken:
		return "Doctype"
	case EOFToken:
		return "EOF"
	}
	return "Invalid"
}

// Attribute is a single name/value pair on a tag token. RawValue preserves
// the attribute value before character reference decoding; the data
// exfiltration rules (DE3) inspect RawValue because that is the byte
// sequence a URL loader or window.open would consume.
type Attribute struct {
	Name     string
	Value    string
	RawValue string
	// Quote records how the value was delimited: '"', '\'' or 0 (unquoted
	// or empty attribute).
	Quote byte
	// Duplicate marks an attribute whose name already appeared on this tag;
	// per the spec it is dropped from the element, with a
	// duplicate-attribute parse error.
	Duplicate bool
	// Pos is the attribute's byte offset in the preprocessed input.
	Pos int
}

// Token is one output of the tokenization stage.
type Token struct {
	Type TokenType
	// Data is the tag name (lowercased) for tag tokens, the text for
	// character tokens, the comment text for comment tokens, and the
	// doctype name for doctype tokens.
	Data string
	Attr []Attribute
	// SelfClosing is set on tags written <br/>.
	SelfClosing bool
	// Doctype identifier fields (valid when Type == DoctypeToken).
	PublicID    string
	SystemID    string
	ForceQuirks bool
	// Pos is the token's byte offset in the preprocessed input.
	Pos int
}

// LookupAttr returns the value of the first non-duplicate attribute with
// the given (lowercase) name and whether it was present.
func (t *Token) LookupAttr(name string) (string, bool) {
	for i := range t.Attr {
		if t.Attr[i].Name == name && !t.Attr[i].Duplicate {
			return t.Attr[i].Value, true
		}
	}
	return "", false
}

// String renders a compact, debugging-oriented form of the token.
func (t *Token) String() string {
	var b strings.Builder
	switch t.Type {
	case CharacterToken:
		b.WriteString("#text:")
		if len(t.Data) > 40 {
			b.WriteString(t.Data[:40] + "…")
		} else {
			b.WriteString(t.Data)
		}
	case StartTagToken:
		b.WriteByte('<')
		b.WriteString(t.Data)
		for _, a := range t.Attr {
			b.WriteByte(' ')
			b.WriteString(a.Name)
			b.WriteString(`="`)
			b.WriteString(a.Value)
			b.WriteByte('"')
		}
		if t.SelfClosing {
			b.WriteByte('/')
		}
		b.WriteByte('>')
	case EndTagToken:
		b.WriteString("</")
		b.WriteString(t.Data)
		b.WriteByte('>')
	case CommentToken:
		b.WriteString("<!--")
		b.WriteString(t.Data)
		b.WriteString("-->")
	case DoctypeToken:
		b.WriteString("<!DOCTYPE ")
		b.WriteString(t.Data)
		b.WriteByte('>')
	case EOFToken:
		b.WriteString("EOF")
	}
	return b.String()
}

func isASCIIUpper(r rune) bool { return 'A' <= r && 'Z' >= r }
func isASCIILower(r rune) bool { return 'a' <= r && 'z' >= r }
func isASCIIAlpha(r rune) bool { return isASCIIUpper(r) || isASCIILower(r) }
func isASCIIDigit(r rune) bool { return '0' <= r && '9' >= r }
func isASCIIAlnum(r rune) bool { return isASCIIAlpha(r) || isASCIIDigit(r) }
func isASCIIHex(r rune) bool {
	return isASCIIDigit(r) || ('a' <= r && r <= 'f') || ('A' <= r && r <= 'F')
}

// isWhitespace matches the spec's "ASCII whitespace" class used between
// attributes and in tag dispatch.
func isWhitespace(r rune) bool {
	switch r {
	case '\t', '\n', '\f', ' ', '\r':
		return true
	}
	return false
}

func toLowerRune(r rune) rune {
	if isASCIIUpper(r) {
		return r + 0x20
	}
	return r
}

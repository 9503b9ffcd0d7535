package htmlparse

import (
	"io"
	"strings"
)

// HTML serialization (spec 13.3, "Serializing HTML fragments"). The
// serialize → reparse round trip is the core of the automatic repair
// strategy in internal/autofix: the re-serialized document has the same
// DOM the error-tolerant parser already produced, but with valid syntax.
//
// Round-trip caveat (shared with browsers; the spec's serialization
// section carries the same warning): four constructs serialize correctly
// but do not re-parse to the same tree —
//
//   - a <script> whose text contains an unbalanced "<!--" re-parses in the
//     script-data double-escaped state and can swallow its own end tag,
//   - <plaintext> content never terminates, so the serialized end tags
//     after it become content on re-parse,
//   - foster parenting can nest an a/nobr/button inside a same-named
//     ancestor (e.g. <a><table><a>: the table's marker in the active
//     formatting list shields the outer a from the adoption agency), but
//     serialization drops the table detour, so the re-parse splits the
//     pair,
//   - a stray </p> or </br> inside SVG/MathML content makes the parser
//     insert an implied element *inside* the foreign subtree, but on
//     re-parse the now-explicit <p>/<br> start tag is a foreign-content
//     breakout and lands outside it.
//
// TestPropertyRenderParseFixpoint pins down exactly this boundary.

// rawTextContent are elements whose text children serialize verbatim.
var rawTextContent = newStringSet(
	"style", "script", "xmp", "iframe", "noembed", "noframes",
	"plaintext", "noscript",
)

// Render serializes the tree rooted at n to w in one write. Document and
// fragment roots serialize as the concatenation of their children.
func Render(w io.Writer, n *Node) error {
	_, err := w.Write(AppendRender(nil, n))
	return err
}

// RenderString serializes the tree rooted at n to a string.
func RenderString(n *Node) string { return string(AppendRender(nil, n)) }

// AppendRender appends the serialization of the tree rooted at n to dst
// and returns the extended buffer. Escapes are written straight into
// dst, so a caller that sizes dst for the output allocates nothing else.
func AppendRender(dst []byte, n *Node) []byte {
	switch n.Type {
	case DocumentNode:
		return appendChildren(dst, n)
	case ElementNode:
		return appendElement(dst, n)
	case TextNode:
		if p := n.Parent; p != nil && p.Type == ElementNode && p.Namespace == NamespaceHTML && rawTextContent[p.Data] {
			return append(dst, n.Data...)
		}
		return appendEscaped(dst, n.Data, &textSpecial)
	case CommentNode:
		dst = append(dst, "<!--"...)
		dst = append(dst, n.Data...)
		return append(dst, "-->"...)
	case DoctypeNode:
		dst = append(dst, "<!DOCTYPE "...)
		dst = append(dst, n.Data...)
		return append(dst, '>')
	}
	return dst
}

func appendElement(dst []byte, n *Node) []byte {
	dst = append(dst, '<')
	dst = append(dst, n.Data...)
	for i := range n.Attr {
		a := &n.Attr[i]
		if a.Duplicate {
			continue
		}
		dst = append(dst, ' ')
		dst = append(dst, a.Name...)
		dst = append(dst, `="`...)
		dst = appendEscaped(dst, a.Value, &attrSpecial)
		dst = append(dst, '"')
	}
	dst = append(dst, '>')
	if n.Namespace == NamespaceHTML && voidElements[n.Data] {
		return dst
	}
	// Spec 13.3: the parser drops a newline immediately after an opening
	// pre/textarea/listing tag, so a text child that genuinely starts
	// with one needs a second newline to survive the round trip.
	if n.Namespace == NamespaceHTML &&
		(n.Data == "pre" || n.Data == "textarea" || n.Data == "listing") {
		if c := n.FirstChild; c != nil && c.Type == TextNode && strings.HasPrefix(c.Data, "\n") {
			dst = append(dst, '\n')
		}
	}
	// An RCDATA element's text serializes escaped (title, textarea),
	// handled by the TextNode case; raw-text elements verbatim.
	dst = appendChildren(dst, n)
	dst = append(dst, "</"...)
	dst = append(dst, n.Data...)
	return append(dst, '>')
}

func appendChildren(dst []byte, n *Node) []byte {
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		dst = AppendRender(dst, c)
	}
	return dst
}

// A literal CR can only enter the DOM through a character reference
// (the preprocessor normalizes raw CR to LF before tokenization), and
// serializing it raw would turn it back into LF on re-parse. Escaping
// it as &#13; keeps the round trip faithful; raw-text elements are safe
// to serialize verbatim because their content never decodes references.
// U+00A0 becomes &nbsp;; its lead byte 0xC2 is only marked here, and
// appendEscaped checks the byte after it.
var (
	textSpecial = specialBytes("&<>\r\xc2")
	attrSpecial = specialBytes("&\"\r\xc2")
)

func specialBytes(bs string) (t [256]bool) {
	for i := 0; i < len(bs); i++ {
		t[bs[i]] = true
	}
	return t
}

// appendEscaped appends s to dst with every byte special marks replaced
// by its reference. It matches byte for byte, so a stray 0xC2 that is
// not followed by 0xA0 passes through untouched.
func appendEscaped(dst []byte, s string, special *[256]bool) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		if !special[s[i]] {
			continue
		}
		var ref string
		switch s[i] {
		case '&':
			ref = "&amp;"
		case '<':
			ref = "&lt;"
		case '>':
			ref = "&gt;"
		case '"':
			ref = "&quot;"
		case '\r':
			ref = "&#13;"
		default: // 0xC2
			if i+1 == len(s) || s[i+1] != 0xA0 {
				continue
			}
			dst = append(dst, s[last:i]...)
			dst = append(dst, "&nbsp;"...)
			i++
			last = i + 1
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, ref...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

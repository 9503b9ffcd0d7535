// Package sanitizer is a small allowlist HTML sanitizer built on the
// project's own parser, in the mold of DOMPurify: parse the untrusted
// fragment, drop everything outside the allowlist, serialize. It exists to
// demonstrate — end to end, through this repository's parser — *why* the
// paper's HF violations are security-relevant: a sanitizer necessarily
// trusts that its parse equals the browser's second parse, and the
// error-tolerant mutations break exactly that assumption (paper Figure 1).
package sanitizer

import (
	"strings"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// Policy is an element/attribute allowlist.
type Policy struct {
	// AllowedTags maps lowercase tag names to permission.
	AllowedTags map[string]bool
	// AllowedAttrs maps lowercase attribute names to permission.
	AllowedAttrs map[string]bool
	// KeepContent controls whether a removed element's children survive
	// (DOMPurify's KEEP_CONTENT); script/style content never survives.
	KeepContent bool
}

// DefaultPolicy mirrors a typical rich-text profile — including the MathML
// tags whose presence enabled the historical DOMPurify bypasses.
func DefaultPolicy() *Policy {
	return &Policy{
		AllowedTags: set(
			"a", "b", "blockquote", "br", "caption", "code", "div", "em",
			"h1", "h2", "h3", "h4", "h5", "h6", "hr", "i", "img", "li",
			"ol", "p", "pre", "s", "small", "span", "strong", "sub", "sup",
			"table", "tbody", "td", "tfoot", "th", "thead", "tr", "u", "ul",
			// The foreign-content tags DOMPurify < 2.1 allowed:
			"math", "mtext", "mglyph", "mi", "mo", "mn", "ms", "mrow",
			"svg", "g", "circle", "rect", "path", "style",
		),
		AllowedAttrs: set(
			"alt", "class", "colspan", "height", "href", "id", "rowspan",
			"src", "title", "width", "d", "r", "cx", "cy", "viewbox",
		),
		KeepContent: true,
	}
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// Sanitizer cleans untrusted HTML fragments.
type Sanitizer struct {
	policy *Policy
}

// New returns a sanitizer with the given policy (nil = DefaultPolicy).
func New(policy *Policy) *Sanitizer {
	if policy == nil {
		policy = DefaultPolicy()
	}
	return &Sanitizer{policy: policy}
}

// Sanitize parses the fragment as a browser's innerHTML would, prunes it
// to the allowlist, and serializes the remains. The output contains no
// disallowed elements, no event handlers and no script-scheme URLs — *as
// parsed this time*. Whether it stays harmless when the browser parses it
// again is precisely the mutation XSS question.
func (s *Sanitizer) Sanitize(input string) (string, error) {
	res, err := htmlparse.ParseFragmentReuse([]byte(input), "div")
	if err != nil {
		return "", err
	}
	s.clean(res.Doc)
	var out []byte
	for c := res.Doc.FirstChild; c != nil; c = c.NextSibling {
		out = htmlparse.AppendRender(out, c)
	}
	return string(out), nil
}

func (s *Sanitizer) clean(n *htmlparse.Node) {
	for c := n.FirstChild; c != nil; {
		next := c.NextSibling
		switch c.Type {
		case htmlparse.CommentNode, htmlparse.DoctypeNode:
			n.RemoveChild(c)
		case htmlparse.ElementNode:
			if !s.policy.AllowedTags[strings.ToLower(c.Data)] {
				s.removeElement(n, c)
			} else {
				c.Attr = s.cleanAttrs(c.Attr)
				s.clean(c)
			}
		default:
			// text survives
		}
		c = next
	}
}

// removeElement drops the element, optionally hoisting its children.
func (s *Sanitizer) removeElement(parent, c *htmlparse.Node) {
	keep := s.policy.KeepContent
	switch strings.ToLower(c.Data) {
	case "script", "style", "noscript", "template", "iframe", "object",
		"embed", "textarea", "title", "xmp":
		keep = false // never resurrect executable or raw-text content
	}
	if keep {
		// Clean the subtree first, then hoist the (already clean) children
		// into the parent, in place of the removed element.
		s.clean(c)
		for gc := c.FirstChild; gc != nil; gc = c.FirstChild {
			c.RemoveChild(gc)
			parent.InsertBefore(gc, c)
		}
	}
	parent.RemoveChild(c)
}

func (s *Sanitizer) cleanAttrs(attrs []htmlparse.Attribute) []htmlparse.Attribute {
	out := attrs[:0]
	for _, a := range attrs {
		name := strings.ToLower(a.Name)
		if strings.HasPrefix(name, "on") || !s.policy.AllowedAttrs[name] {
			continue
		}
		if isScriptURL(name, a.Value) {
			continue
		}
		out = append(out, a)
	}
	return out
}

// isScriptURL blocks javascript:/vbscript:/data: URLs in URL attributes.
func isScriptURL(name, value string) bool {
	switch name {
	case "href", "src", "action", "formaction":
	default:
		return false
	}
	v := strings.ToLower(strings.TrimLeft(value, " \t\r\n\f"))
	v = strings.Map(func(r rune) rune {
		if r < 0x20 {
			return -1 // strip control characters used to split schemes
		}
		return r
	}, v)
	return strings.HasPrefix(v, "javascript:") ||
		strings.HasPrefix(v, "vbscript:") ||
		strings.HasPrefix(v, "data:")
}

package htmlparse

import "strings"

// Foreign content rules (spec 13.2.6.5): parsing inside <svg> and <math>
// subtrees. The namespace switches and forced breakouts implemented here
// are the machinery behind the paper's HF5 violations and the Figure 1
// mutation XSS example.

// useForeignRules implements the tree construction dispatcher: it decides
// whether the token is processed by the current insertion mode or by the
// rules for parsing tokens in foreign content.
func (tb *treeBuilder) useForeignRules(t *Token) bool {
	if len(tb.stack) == 0 {
		return false
	}
	acn := tb.adjustedCurrentNode()
	if acn.Namespace == NamespaceHTML {
		return false
	}
	if isMathMLTextIntegrationPoint(acn) {
		if t.Type == StartTagToken && t.Data != "mglyph" && t.Data != "malignmark" {
			return false
		}
		if t.Type == CharacterToken {
			return false
		}
	}
	if acn.Namespace == NamespaceMathML && acn.Data == "annotation-xml" &&
		t.Type == StartTagToken && t.Data == "svg" {
		return false
	}
	if isHTMLIntegrationPoint(acn) && (t.Type == StartTagToken || t.Type == CharacterToken) {
		return false
	}
	return t.Type != EOFToken
}

// currentForeignNamespace reports the foreign namespace the parser is in
// (the nearest non-HTML element on the stack).
func (tb *treeBuilder) currentForeignNamespace() Namespace {
	for i := len(tb.stack) - 1; i >= 0; i-- {
		if ns := tb.stack[i].Namespace; ns != NamespaceHTML {
			return ns
		}
	}
	return NamespaceHTML
}

func (tb *treeBuilder) foreignIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		data := t.Data
		if strings.ContainsRune(data, 0) {
			tb.parseError(ErrUnexpectedNullCharacter, "", tb.nulPos(t))
			data = strings.ReplaceAll(data, "\x00", "�")
		}
		tb.insertText(data, t.Pos)
		if !isAllWhitespace(data) {
			tb.framesetOK = false
		}
		return true
	case CommentToken:
		tb.insertComment(t, nil)
		return true
	case DoctypeToken:
		tb.parseError(ErrUnexpectedDoctype, "", t.Pos)
		return true
	case StartTagToken:
		breakout := breakoutElements[t.Data]
		if t.Data == "font" {
			breakout = false
			for _, a := range t.Attr {
				switch a.Name {
				case "color", "face", "size":
					breakout = true
				}
			}
		}
		if breakout {
			// An HTML element inside foreign content: the parser pops out
			// of the foreign subtree and re-processes the tag as HTML.
			// This is the HF5_2 (SVG) / HF5_3 (MathML) signal and the
			// namespace-confusion step of the Figure 1 sanitizer bypass.
			from := tb.currentForeignNamespace()
			tb.parseError(ErrForeignContentBreakout, t.Data, t.Pos)
			tb.event(TreeEvent{Kind: EventForeignBreakout, Detail: t.Data, Namespace: from, Pos: t.Pos})
			tb.popForeign()
			return false
		}
		ns := tb.adjustedCurrentNode().Namespace
		if ns == NamespaceSVG {
			if adj, ok := svgTagAdjustments[t.Data]; ok {
				t.Data = adj
			}
			adjustAttrNames(t, svgAttrName)
		}
		if ns == NamespaceMathML {
			adjustAttrNames(t, mathMLAttrName)
		}
		tb.insertElement(t, ns)
		if t.SelfClosing {
			tb.pop()
			tb.ackSelfClosing()
		}
		return true
	case EndTagToken:
		node := tb.currentNode()
		if asciiLower(node.Data) != t.Data {
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
		}
		for i := len(tb.stack) - 1; i > 0; i-- {
			node = tb.stack[i]
			if asciiLower(node.Data) == t.Data {
				for len(tb.stack) > i {
					tb.pop()
				}
				return true
			}
			if tb.stack[i-1].Namespace == NamespaceHTML {
				break
			}
		}
		return tb.handle(tb.mode, t)
	}
	return true
}

// popForeign pops elements until the current node is a MathML text
// integration point, an HTML integration point, or in the HTML namespace.
func (tb *treeBuilder) popForeign() {
	for {
		n := tb.currentNode()
		if n == nil || n.Namespace == NamespaceHTML ||
			isMathMLTextIntegrationPoint(n) || isHTMLIntegrationPoint(n) {
			return
		}
		tb.pop()
	}
}

package htmlparse

import "strings"

// This file implements the insertion modes of the tree construction stage
// (spec 13.2.6.4). Handlers take the current token and report whether it
// was consumed; returning false reprocesses it under the (possibly
// changed) current mode, which is the spec's "reprocess the token".

// cancelStride is how many tokens the tree builder processes between
// cancellation polls: coarse enough to stay invisible on the hot path,
// fine enough that a request deadline interrupts a pathological
// document within microseconds.
const cancelStride = 512

func (tb *treeBuilder) run() {
	for !tb.stopped {
		if tb.cancel != nil {
			if tb.cancelTick++; tb.cancelTick >= cancelStride {
				tb.cancelTick = 0
				if err := tb.cancel(); err != nil {
					tb.abort = err
					return
				}
			}
		}
		if tb.maxDepth > 0 && len(tb.stack) > tb.maxDepth {
			tb.abort = ErrTreeDepthExceeded
			return
		}
		// t is the tokenizer's queue slot, valid until the next call;
		// the handlers edit it in place when they reprocess a token.
		t := tb.z.nextToken()
		if t.Type == StartTagToken || t.Type == EndTagToken {
			tb.obs.Tag(t)
		}
		if tb.skipLeadingNewline {
			tb.skipLeadingNewline = false
			if t.Type == CharacterToken && strings.HasPrefix(t.Data, "\n") {
				t.Data = t.Data[1:]
				if t.Data == "" {
					continue
				}
			}
		}
		if t.Type == StartTagToken && t.SelfClosing {
			name := t.Data // the tag as written; a handler may retag t
			tb.selfClosingAcked = false
			tb.process(t)
			if !tb.selfClosingAcked {
				tb.parseError(ErrNonVoidElementWithTrailingSolidus, name, t.Pos)
			}
		} else {
			tb.process(t)
		}
		if t.Type == EOFToken {
			tb.stopped = true
		}
	}
}

func (tb *treeBuilder) process(t *Token) {
	for consumed := false; !consumed; {
		if tb.useForeignRules(t) {
			consumed = tb.foreignIM(t)
		} else {
			consumed = tb.handle(tb.mode, t)
		}
	}
}

func (tb *treeBuilder) handle(mode insertionMode, t *Token) bool {
	switch mode {
	case modeInitial:
		return tb.initialIM(t)
	case modeBeforeHTML:
		return tb.beforeHTMLIM(t)
	case modeBeforeHead:
		return tb.beforeHeadIM(t)
	case modeInHead:
		return tb.inHeadIM(t)
	case modeAfterHead:
		return tb.afterHeadIM(t)
	case modeInBody:
		return tb.inBodyIM(t)
	case modeText:
		return tb.textIM(t)
	case modeInTable:
		return tb.inTableIM(t)
	case modeInTableText:
		return tb.inTableTextIM(t)
	case modeInCaption:
		return tb.inCaptionIM(t)
	case modeInColumnGroup:
		return tb.inColumnGroupIM(t)
	case modeInTableBody:
		return tb.inTableBodyIM(t)
	case modeInRow:
		return tb.inRowIM(t)
	case modeInCell:
		return tb.inCellIM(t)
	case modeInSelect:
		return tb.inSelectIM(t)
	case modeInSelectInTable:
		return tb.inSelectInTableIM(t)
	case modeAfterBody:
		return tb.afterBodyIM(t)
	case modeInFrameset:
		return tb.inFramesetIM(t)
	case modeAfterFrameset:
		return tb.afterFramesetIM(t)
	case modeAfterAfterBody:
		return tb.afterAfterBodyIM(t)
	case modeAfterAfterFrameset:
		return tb.afterAfterFramesetIM(t)
	}
	return true
}

// stopParsing records which elements were still open at end-of-file (the
// DE1/DE2 evidence) and halts the parse.
func (tb *treeBuilder) stopParsing(pos int) {
	for _, n := range tb.stack {
		if n.Type != ElementNode || n.Implied {
			continue
		}
		// The document skeleton is always open at EOF; that is not a
		// violation signal.
		if n.Namespace == NamespaceHTML {
			switch n.Data {
			case "html", "head", "body", "frameset":
				continue
			}
		}
		allowed := n.Namespace == NamespaceHTML && allowedOpenAtEOF[n.Data]
		n.AutoClosedAtEOF = true
		tb.event(TreeEvent{
			Kind: EventAutoClosedAtEOF, Detail: n.Data,
			Namespace: n.Namespace, Allowed: allowed, Pos: pos,
		})
		if !allowed {
			tb.parseError(ErrUnexpectedEOFInElement, n.Data, pos)
		}
	}
	tb.stopped = true
}

// splitLeadingWhitespace cuts t.Data into its leading ASCII whitespace and
// the remainder.
func splitLeadingWhitespace(s string) (ws, rest string) {
	i := 0
	for i < len(s) {
		switch s[i] {
		case '\t', '\n', '\f', '\r', ' ':
			i++
			continue
		}
		break
	}
	return s[:i], s[i:]
}

func isAllWhitespace(s string) bool {
	_, rest := splitLeadingWhitespace(s)
	return rest == ""
}

// ---- 13.2.6.4.1 initial ----

func (tb *treeBuilder) initialIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		_, rest := splitLeadingWhitespace(t.Data)
		if rest == "" {
			return true
		}
		t.Data = rest
	case CommentToken:
		tb.insertComment(t, tb.doc)
		return true
	case DoctypeToken:
		n := tb.newNode()
		*n = Node{Type: DoctypeNode, Data: t.Data, PublicID: t.PublicID, SystemID: t.SystemID, Pos: t.Pos}
		tb.doc.AppendChild(n)
		tb.quirksMode = quirksModeOf(t)
		tb.mode = modeBeforeHTML
		return true
	}
	// Anything else: missing doctype — quirks mode.
	tb.parseError(ErrUnexpectedTokenInInitialMode, "", t.Pos)
	tb.quirksMode = Quirks
	tb.mode = modeBeforeHTML
	return false
}

// ---- 13.2.6.4.2 before html ----

func (tb *treeBuilder) beforeHTMLIM(t *Token) bool {
	switch t.Type {
	case DoctypeToken:
		tb.parseError(ErrUnexpectedDoctype, "", t.Pos)
		return true
	case CommentToken:
		tb.insertComment(t, tb.doc)
		return true
	case CharacterToken:
		_, rest := splitLeadingWhitespace(t.Data)
		if rest == "" {
			return true
		}
		t.Data = rest
	case StartTagToken:
		if t.Data == "html" {
			n := tb.createElement(t, NamespaceHTML)
			tb.doc.AppendChild(n)
			tb.push(n)
			tb.mode = modeBeforeHead
			return true
		}
	case EndTagToken:
		switch t.Data {
		case "head", "body", "html", "br":
		default:
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		}
	}
	n := tb.newNode()
	*n = Node{Type: ElementNode, Data: "html", Namespace: NamespaceHTML, Implied: true, Pos: t.Pos, class: elementClasses["html"]}
	tb.doc.AppendChild(n)
	tb.push(n)
	tb.mode = modeBeforeHead
	return false
}

// ---- 13.2.6.4.3 before head ----

func (tb *treeBuilder) beforeHeadIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		_, rest := splitLeadingWhitespace(t.Data)
		if rest == "" {
			return true
		}
		t.Data = rest
	case CommentToken:
		tb.insertComment(t, nil)
		return true
	case DoctypeToken:
		tb.parseError(ErrUnexpectedDoctype, "", t.Pos)
		return true
	case StartTagToken:
		switch t.Data {
		case "html":
			return tb.inBodyIM(t)
		case "head":
			tb.head = tb.insertElement(t, NamespaceHTML)
			tb.mode = modeInHead
			return true
		}
	case EndTagToken:
		switch t.Data {
		case "head", "body", "html", "br":
		default:
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		}
	}
	tb.head = tb.insertImplied("head", t.Pos)
	if t.Type != EOFToken {
		tb.event(TreeEvent{Kind: EventImpliedHead, Pos: t.Pos})
	}
	tb.mode = modeInHead
	return false
}

// ---- 13.2.6.4.4 in head ----

func (tb *treeBuilder) inHeadIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		ws, rest := splitLeadingWhitespace(t.Data)
		if ws != "" {
			tb.insertText(ws, t.Pos)
		}
		if rest == "" {
			return true
		}
		t.Data = rest
	case CommentToken:
		tb.insertComment(t, nil)
		return true
	case DoctypeToken:
		tb.parseError(ErrUnexpectedDoctype, "", t.Pos)
		return true
	case StartTagToken:
		switch t.Data {
		case "html":
			return tb.inBodyIM(t)
		case "base", "basefont", "bgsound", "link", "meta":
			tb.insertElement(t, NamespaceHTML)
			tb.pop()
			tb.ackSelfClosing()
			return true
		case "title":
			tb.parseGenericRawText(t)
			return true
		case "noscript":
			if !tb.scriptingEnabled {
				tb.insertElement(t, NamespaceHTML)
				return true
			}
			tb.parseGenericRawText(t)
			return true
		case "noframes", "style":
			tb.parseGenericRawText(t)
			return true
		case "script":
			tb.parseGenericRawText(t)
			return true
		case "template":
			// Template contents are parsed in place; the separate template
			// insertion modes and content document are not modelled (a
			// documented deviation — no violation rule depends on them).
			tb.insertElement(t, NamespaceHTML)
			tb.pushAFEMarker()
			tb.framesetOK = false
			return true
		case "head":
			tb.parseError(ErrUnexpectedStartTag, "head", t.Pos)
			return true
		}
	case EndTagToken:
		switch t.Data {
		case "head":
			tb.pop()
			tb.mode = modeAfterHead
			return true
		case "template":
			if tb.elementInScope(0, "template") {
				tb.generateImpliedEndTags("")
				tb.popUntil("template")
				tb.clearAFEToMarker()
			} else {
				tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			}
			return true
		case "body", "html", "br":
		default:
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		}
	}
	// Anything else: implicitly close the head. If the trigger was not one
	// of the tokens for which the spec sanctions end-tag omission, this is
	// the HF1 "broken head" situation: the parser cannot know whether the
	// following content was meant for the head.
	tb.pop()
	tb.mode = modeAfterHead
	if t.Type != EOFToken {
		legal := t.Type == StartTagToken && (t.Data == "body" || t.Data == "frameset")
		if !legal {
			detail := "#text"
			if t.Type == StartTagToken || t.Type == EndTagToken {
				detail = t.Data
			}
			tb.event(TreeEvent{Kind: EventHeadBroken, Detail: detail, Pos: t.Pos})
		}
	}
	return false
}

// parseGenericRawText implements the generic raw text / RCDATA parsing
// algorithm: insert the element, switch the tokenizer content model, and
// enter the text insertion mode.
func (tb *treeBuilder) parseGenericRawText(t *Token) {
	tb.insertElement(t, NamespaceHTML)
	tb.z.StartRawText(t.Data)
	tb.originalMode = tb.mode
	tb.mode = modeText
	if t.Data == "textarea" {
		tb.skipLeadingNewline = true
	}
}

// ---- 13.2.6.4.6 after head ----

func (tb *treeBuilder) afterHeadIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		ws, rest := splitLeadingWhitespace(t.Data)
		if ws != "" {
			tb.insertText(ws, t.Pos)
		}
		if rest == "" {
			return true
		}
		t.Data = rest
	case CommentToken:
		tb.insertComment(t, nil)
		return true
	case DoctypeToken:
		tb.parseError(ErrUnexpectedDoctype, "", t.Pos)
		return true
	case StartTagToken:
		switch t.Data {
		case "html":
			return tb.inBodyIM(t)
		case "body":
			tb.insertElement(t, NamespaceHTML)
			tb.framesetOK = false
			tb.mode = modeInBody
			return true
		case "frameset":
			tb.insertElement(t, NamespaceHTML)
			tb.mode = modeInFrameset
			return true
		case "base", "basefont", "bgsound", "link", "meta", "noframes",
			"script", "style", "template", "title":
			// Head content after the head was closed: the parser reroutes
			// it into the head element (HF1 evidence, and the place where
			// wrongly positioned meta/base elements surface).
			tb.parseError(ErrUnexpectedElementInHead, t.Data, t.Pos)
			tb.event(TreeEvent{Kind: EventMetadataAfterHead, Detail: t.Data, Pos: t.Pos, Attr: t.Attr})
			tb.push(tb.head)
			tb.inHeadIM(t)
			tb.removeFromStack(tb.head)
			return true
		case "head":
			tb.parseError(ErrUnexpectedStartTag, "head", t.Pos)
			return true
		}
	case EndTagToken:
		switch t.Data {
		case "template":
			return tb.inHeadIM(t)
		case "body", "html", "br":
		default:
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		}
	}
	tb.insertImplied("body", t.Pos)
	if t.Type != EOFToken {
		tb.event(TreeEvent{Kind: EventImpliedBody, Pos: t.Pos})
	}
	tb.framesetOK = true
	tb.mode = modeInBody
	return false
}

// ---- 13.2.6.4.7 in body ----

func (tb *treeBuilder) inBodyIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		data := strings.ReplaceAll(t.Data, "\x00", "")
		if len(data) != len(t.Data) {
			tb.parseError(ErrUnexpectedNullCharacter, "", tb.nulPos(t))
		}
		if data == "" {
			return true
		}
		tb.reconstructAFE()
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
	case EOFToken:
		tb.stopParsing(t.Pos)
		return true
	case StartTagToken:
		return tb.inBodyStartTag(t)
	case EndTagToken:
		return tb.inBodyEndTag(t)
	}
	return true
}

func (tb *treeBuilder) inBodyStartTag(t *Token) bool {
	switch t.Data {
	case "html":
		tb.parseError(ErrUnexpectedStartTag, "html", t.Pos)
		if len(tb.stack) > 0 {
			tb.mergeAttrs(tb.stack[0], t)
		}
		return true
	case "base", "basefont", "bgsound", "link", "noframes", "script",
		"style", "template", "title", "meta":
		// Processed "using the rules for in head", which inserts them at
		// the current location — i.e. inside the body. This is the DM1/DM2
		// surface the paper studies.
		switch t.Data {
		case "meta":
			tb.event(TreeEvent{Kind: EventMetaInBody, Detail: t.Data, Pos: t.Pos, Attr: t.Attr})
		case "base":
			tb.event(TreeEvent{Kind: EventBaseInBody, Detail: t.Data, Pos: t.Pos, Attr: t.Attr})
		}
		return tb.inHeadIM(t)
	case "body":
		tb.parseError(ErrSecondBodyStartTag, "", t.Pos)
		if len(tb.stack) > 1 && tb.stack[1].IsElement("body") {
			tb.framesetOK = false
			tb.mergeAttrs(tb.stack[1], t)
			tb.event(TreeEvent{Kind: EventSecondBody, Pos: t.Pos})
		}
		return true
	case "frameset":
		tb.parseError(ErrUnexpectedStartTag, "frameset", t.Pos)
		if !tb.framesetOK || len(tb.stack) < 2 || !tb.stack[1].IsElement("body") {
			return true
		}
		body := tb.stack[1]
		if body.Parent != nil {
			body.Parent.RemoveChild(body)
		}
		tb.stack = tb.stack[:1]
		tb.insertElement(t, NamespaceHTML)
		tb.mode = modeInFrameset
		return true
	case "address", "article", "aside", "blockquote", "center", "details",
		"dialog", "dir", "div", "dl", "fieldset", "figcaption", "figure",
		"footer", "header", "hgroup", "main", "menu", "nav", "ol", "p",
		"search", "section", "summary", "ul":
		if tb.elementInScope(classButtonScope, "p") {
			tb.closePElement()
		}
		tb.insertElement(t, NamespaceHTML)
		return true
	case "h1", "h2", "h3", "h4", "h5", "h6":
		if tb.elementInScope(classButtonScope, "p") {
			tb.closePElement()
		}
		if n := tb.currentNode(); n != nil && n.Namespace == NamespaceHTML {
			switch n.Data {
			case "h1", "h2", "h3", "h4", "h5", "h6":
				tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
				tb.pop()
			}
		}
		tb.insertElement(t, NamespaceHTML)
		return true
	case "pre", "listing":
		if tb.elementInScope(classButtonScope, "p") {
			tb.closePElement()
		}
		tb.insertElement(t, NamespaceHTML)
		tb.skipLeadingNewline = true
		tb.framesetOK = false
		return true
	case "form":
		if tb.form != nil {
			// The DE4 signal: a nested form start tag is silently dropped,
			// so an attacker-controlled earlier form wins.
			tb.parseError(ErrNestedFormElement, "", t.Pos)
			tb.event(TreeEvent{Kind: EventNestedForm, Pos: t.Pos})
			return true
		}
		if tb.elementInScope(classButtonScope, "p") {
			tb.closePElement()
		}
		tb.form = tb.insertElement(t, NamespaceHTML)
		return true
	case "li":
		tb.framesetOK = false
		for i := len(tb.stack) - 1; i >= 0; i-- {
			n := tb.stack[i]
			if n.IsElement("li") {
				tb.generateImpliedEndTags("li")
				if !tb.currentNode().IsElement("li") {
					tb.parseError(ErrUnexpectedStartTag, "li", t.Pos)
				}
				tb.popUntil("li")
				break
			}
			if n.class&classSpecial != 0 &&
				n.Data != "address" && n.Data != "div" && n.Data != "p" {
				break
			}
		}
		if tb.elementInScope(classButtonScope, "p") {
			tb.closePElement()
		}
		tb.insertElement(t, NamespaceHTML)
		return true
	case "dd", "dt":
		tb.framesetOK = false
		for i := len(tb.stack) - 1; i >= 0; i-- {
			n := tb.stack[i]
			if n.IsElement("dd") || n.IsElement("dt") {
				tb.generateImpliedEndTags(n.Data)
				if tb.currentNode() != n {
					tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
				}
				tb.popUntil("dd", "dt")
				break
			}
			if n.class&classSpecial != 0 &&
				n.Data != "address" && n.Data != "div" && n.Data != "p" {
				break
			}
		}
		if tb.elementInScope(classButtonScope, "p") {
			tb.closePElement()
		}
		tb.insertElement(t, NamespaceHTML)
		return true
	case "plaintext":
		if tb.elementInScope(classButtonScope, "p") {
			tb.closePElement()
		}
		tb.insertElement(t, NamespaceHTML)
		tb.z.StartRawText("plaintext")
		return true
	case "button":
		if tb.elementInScope(0, "button") {
			tb.parseError(ErrUnexpectedStartTag, "button", t.Pos)
			tb.generateImpliedEndTags("")
			tb.popUntil("button")
		}
		tb.reconstructAFE()
		tb.insertElement(t, NamespaceHTML)
		tb.framesetOK = false
		return true
	case "a":
		if i := tb.afeIndexAfterLastMarker("a"); i >= 0 {
			tb.parseError(ErrAdoptionAgencyMisnesting, "a", t.Pos)
			n := tb.afe[i].node
			tb.adoptionAgency(&Token{Type: EndTagToken, Data: "a", Pos: t.Pos})
			tb.removeFromAFE(n)
			tb.removeFromStack(n)
		}
		tb.reconstructAFE()
		n := tb.insertElement(t, NamespaceHTML)
		tb.pushAFE(n, t)
		return true
	case "b", "big", "code", "em", "font", "i", "s", "small", "strike",
		"strong", "tt", "u":
		tb.reconstructAFE()
		n := tb.insertElement(t, NamespaceHTML)
		tb.pushAFE(n, t)
		return true
	case "nobr":
		tb.reconstructAFE()
		if tb.elementInScope(0, "nobr") {
			tb.parseError(ErrAdoptionAgencyMisnesting, "nobr", t.Pos)
			tb.adoptionAgency(&Token{Type: EndTagToken, Data: "nobr", Pos: t.Pos})
			tb.reconstructAFE()
		}
		n := tb.insertElement(t, NamespaceHTML)
		tb.pushAFE(n, t)
		return true
	case "applet", "marquee", "object":
		tb.reconstructAFE()
		tb.insertElement(t, NamespaceHTML)
		tb.pushAFEMarker()
		tb.framesetOK = false
		return true
	case "table":
		if tb.quirksMode != Quirks && tb.elementInScope(classButtonScope, "p") {
			tb.closePElement()
		}
		tb.insertElement(t, NamespaceHTML)
		tb.framesetOK = false
		tb.mode = modeInTable
		return true
	case "area", "br", "embed", "img", "keygen", "wbr":
		tb.reconstructAFE()
		tb.insertElement(t, NamespaceHTML)
		tb.pop()
		tb.ackSelfClosing()
		tb.framesetOK = false
		return true
	case "input":
		tb.reconstructAFE()
		n := tb.insertElement(t, NamespaceHTML)
		tb.pop()
		tb.ackSelfClosing()
		if typ, _ := n.LookupAttr("type"); asciiLower(typ) != "hidden" {
			tb.framesetOK = false
		}
		return true
	case "param", "source", "track":
		tb.insertElement(t, NamespaceHTML)
		tb.pop()
		tb.ackSelfClosing()
		return true
	case "hr":
		if tb.elementInScope(classButtonScope, "p") {
			tb.closePElement()
		}
		tb.insertElement(t, NamespaceHTML)
		tb.pop()
		tb.ackSelfClosing()
		tb.framesetOK = false
		return true
	case "image":
		// "Don't ask." — the spec literally retags image as img.
		tb.parseError(ErrUnexpectedStartTag, "image", t.Pos)
		t.Data = "img"
		return false
	case "textarea":
		tb.parseGenericRawText(t)
		tb.framesetOK = false
		return true
	case "xmp":
		if tb.elementInScope(classButtonScope, "p") {
			tb.closePElement()
		}
		tb.reconstructAFE()
		tb.framesetOK = false
		tb.parseGenericRawText(t)
		return true
	case "iframe":
		tb.framesetOK = false
		tb.parseGenericRawText(t)
		return true
	case "noembed":
		tb.parseGenericRawText(t)
		return true
	case "noscript":
		if tb.scriptingEnabled {
			tb.parseGenericRawText(t)
			return true
		}
		tb.reconstructAFE()
		tb.insertElement(t, NamespaceHTML)
		return true
	case "select":
		tb.reconstructAFE()
		tb.insertElement(t, NamespaceHTML)
		tb.framesetOK = false
		switch tb.mode {
		case modeInTable, modeInCaption, modeInTableBody, modeInRow, modeInCell:
			tb.mode = modeInSelectInTable
		default:
			tb.mode = modeInSelect
		}
		return true
	case "optgroup", "option":
		if tb.currentNode() != nil && tb.currentNode().IsElement("option") {
			tb.pop()
		}
		tb.reconstructAFE()
		tb.insertElement(t, NamespaceHTML)
		return true
	case "rb", "rtc":
		if tb.elementInScope(0, "ruby") {
			tb.generateImpliedEndTags("")
		}
		tb.insertElement(t, NamespaceHTML)
		return true
	case "rp", "rt":
		if tb.elementInScope(0, "ruby") {
			tb.generateImpliedEndTags("rtc")
		}
		tb.insertElement(t, NamespaceHTML)
		return true
	case "math":
		tb.reconstructAFE()
		adjustAttrNames(t, mathMLAttrName)
		tb.insertElement(t, NamespaceMathML)
		if t.SelfClosing {
			tb.pop()
			tb.ackSelfClosing()
		}
		return true
	case "svg":
		tb.reconstructAFE()
		adjustAttrNames(t, svgAttrName)
		tb.insertElement(t, NamespaceSVG)
		if t.SelfClosing {
			tb.pop()
			tb.ackSelfClosing()
		}
		return true
	case "caption", "col", "colgroup", "frame", "head", "tbody", "td",
		"tfoot", "th", "thead", "tr":
		tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
		return true
	}
	// A tag that exists only in the SVG or MathML vocabulary, while the
	// parser is in the HTML namespace: detached foreign markup, the HF5_1
	// signal. The parser's repair is to insert it as an unknown HTML
	// element.
	if svgOnlyElements[t.Data] {
		tb.parseError(ErrHTMLIntegrationMisnesting, t.Data, t.Pos)
		tb.event(TreeEvent{Kind: EventForeignElementInHTML, Detail: t.Data, Namespace: NamespaceSVG, Pos: t.Pos})
	} else if mathmlOnlyElements[t.Data] {
		tb.parseError(ErrHTMLIntegrationMisnesting, t.Data, t.Pos)
		tb.event(TreeEvent{Kind: EventForeignElementInHTML, Detail: t.Data, Namespace: NamespaceMathML, Pos: t.Pos})
	}
	tb.reconstructAFE()
	tb.insertElement(t, NamespaceHTML)
	return true
}

func (tb *treeBuilder) inBodyEndTag(t *Token) bool {
	switch t.Data {
	case "template":
		return tb.inHeadIM(t)
	case "body":
		if !tb.elementInScope(0, "body") {
			tb.parseError(ErrUnexpectedEndTag, "body", t.Pos)
			return true
		}
		tb.mode = modeAfterBody
		return true
	case "html":
		if !tb.elementInScope(0, "body") {
			tb.parseError(ErrUnexpectedEndTag, "html", t.Pos)
			return true
		}
		tb.mode = modeAfterBody
		return false
	case "address", "article", "aside", "blockquote", "button", "center",
		"details", "dialog", "dir", "div", "dl", "fieldset", "figcaption",
		"figure", "footer", "header", "hgroup", "listing", "main", "menu",
		"nav", "ol", "pre", "search", "section", "summary", "ul":
		if !tb.elementInScope(0, t.Data) {
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		}
		tb.generateImpliedEndTags("")
		if !tb.currentNode().IsElement(t.Data) {
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
		}
		tb.popUntil(t.Data)
		return true
	case "form":
		node := tb.form
		tb.form = nil
		if node == nil || tb.indexOnStack(node) < 0 || !tb.elementInScope(0, "form") {
			tb.parseError(ErrUnexpectedEndTag, "form", t.Pos)
			return true
		}
		tb.generateImpliedEndTags("")
		if tb.currentNode() != node {
			tb.parseError(ErrUnexpectedEndTag, "form", t.Pos)
		}
		tb.removeFromStack(node)
		return true
	case "p":
		if !tb.elementInScope(classButtonScope, "p") {
			tb.parseError(ErrUnexpectedEndTag, "p", t.Pos)
			tb.insertImplied("p", t.Pos)
		}
		tb.closePElement()
		return true
	case "li":
		if !tb.elementInScope(classListItemScope, "li") {
			tb.parseError(ErrUnexpectedEndTag, "li", t.Pos)
			return true
		}
		tb.generateImpliedEndTags("li")
		if !tb.currentNode().IsElement("li") {
			tb.parseError(ErrUnexpectedEndTag, "li", t.Pos)
		}
		tb.popUntil("li")
		return true
	case "dd", "dt":
		if !tb.elementInScope(0, t.Data) {
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		}
		tb.generateImpliedEndTags(t.Data)
		if !tb.currentNode().IsElement(t.Data) {
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
		}
		tb.popUntil(t.Data)
		return true
	case "h1", "h2", "h3", "h4", "h5", "h6":
		if !tb.elementInScope(0, "h1", "h2", "h3", "h4", "h5", "h6") {
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		}
		tb.generateImpliedEndTags("")
		if !tb.currentNode().IsElement(t.Data) {
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
		}
		tb.popUntil("h1", "h2", "h3", "h4", "h5", "h6")
		return true
	case "a", "b", "big", "code", "em", "font", "i", "nobr", "s", "small",
		"strike", "strong", "tt", "u":
		tb.adoptionAgency(t)
		return true
	case "applet", "marquee", "object":
		if !tb.elementInScope(0, t.Data) {
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		}
		tb.generateImpliedEndTags("")
		if !tb.currentNode().IsElement(t.Data) {
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
		}
		tb.popUntil(t.Data)
		tb.clearAFEToMarker()
		return true
	case "br":
		tb.parseError(ErrUnexpectedEndTag, "br", t.Pos)
		tb.reconstructAFE()
		tb.insertImplied("br", t.Pos)
		tb.pop()
		tb.framesetOK = false
		return true
	}
	tb.anyOtherEndTag(t)
	return true
}

// anyOtherEndTag implements the in-body "any other end tag" steps.
func (tb *treeBuilder) anyOtherEndTag(t *Token) {
	for i := len(tb.stack) - 1; i >= 0; i-- {
		node := tb.stack[i]
		if node.Namespace == NamespaceHTML && node.Data == t.Data {
			tb.generateImpliedEndTags(t.Data)
			if tb.currentNode() != node {
				tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			}
			for len(tb.stack) > i {
				tb.pop()
			}
			return
		}
		if node.class&classSpecial != 0 {
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			tb.event(TreeEvent{Kind: EventIgnoredToken, Detail: "/" + t.Data, Pos: t.Pos})
			return
		}
	}
}

// ---- 13.2.6.4.8 text ----

func (tb *treeBuilder) textIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		tb.insertText(t.Data, t.Pos)
		return true
	case EOFToken:
		// A raw-text element (textarea, title, script, ...) was never
		// closed; the parser closes it at EOF. For textarea this is the
		// DE1 dangling-markup signal.
		n := tb.currentNode()
		tb.parseError(ErrUnexpectedEOFInElement, n.Data, t.Pos)
		n.AutoClosedAtEOF = true
		tb.event(TreeEvent{
			Kind: EventAutoClosedAtEOF, Detail: n.Data,
			Namespace: n.Namespace, Pos: t.Pos,
		})
		tb.pop()
		tb.mode = tb.originalMode
		return false
	case EndTagToken:
		tb.pop()
		tb.mode = tb.originalMode
		return true
	}
	return true
}

// ---- 13.2.6.4.9 in table ----

func (tb *treeBuilder) inTableIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		switch cur := tb.currentNode(); {
		case cur != nil && cur.Namespace == NamespaceHTML &&
			(cur.Data == "table" || cur.Data == "tbody" || cur.Data == "tfoot" ||
				cur.Data == "thead" || cur.Data == "tr"):
			tb.pendingTableText = tb.pendingTableText[:0]
			tb.tableTextPos = t.Pos
			tb.originalMode = tb.mode
			tb.mode = modeInTableText
			return false
		}
	case CommentToken:
		tb.insertComment(t, nil)
		return true
	case DoctypeToken:
		tb.parseError(ErrUnexpectedDoctype, "", t.Pos)
		return true
	case EOFToken:
		return tb.inBodyIM(t)
	case StartTagToken:
		switch t.Data {
		case "caption":
			tb.clearStackToContext(tableContextTags)
			tb.pushAFEMarker()
			tb.insertElement(t, NamespaceHTML)
			tb.mode = modeInCaption
			return true
		case "colgroup":
			tb.clearStackToContext(tableContextTags)
			tb.insertElement(t, NamespaceHTML)
			tb.mode = modeInColumnGroup
			return true
		case "col":
			tb.clearStackToContext(tableContextTags)
			tb.insertImplied("colgroup", t.Pos)
			tb.mode = modeInColumnGroup
			return false
		case "tbody", "tfoot", "thead":
			tb.clearStackToContext(tableContextTags)
			tb.insertElement(t, NamespaceHTML)
			tb.mode = modeInTableBody
			return true
		case "td", "th", "tr":
			tb.clearStackToContext(tableContextTags)
			tb.insertImplied("tbody", t.Pos)
			tb.mode = modeInTableBody
			return false
		case "table":
			tb.parseError(ErrUnexpectedStartTag, "table", t.Pos)
			if !tb.elementInTableScope("table") {
				return true
			}
			tb.popUntil("table")
			tb.resetInsertionMode()
			return false
		case "style", "script", "template":
			return tb.inHeadIM(t)
		case "input":
			if typ, _ := t.LookupAttr("type"); asciiLower(typ) == "hidden" {
				tb.parseError(ErrUnexpectedStartTag, "input", t.Pos)
				tb.insertElement(t, NamespaceHTML)
				tb.pop()
				return true
			}
		case "form":
			tb.parseError(ErrUnexpectedStartTag, "form", t.Pos)
			if tb.form == nil {
				tb.form = tb.insertElement(t, NamespaceHTML)
				tb.pop()
			}
			return true
		}
	case EndTagToken:
		switch t.Data {
		case "table":
			if !tb.elementInTableScope("table") {
				tb.parseError(ErrUnexpectedEndTag, "table", t.Pos)
				return true
			}
			tb.popUntil("table")
			tb.resetInsertionMode()
			return true
		case "body", "caption", "col", "colgroup", "html", "tbody", "td",
			"tfoot", "th", "thead", "tr":
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		case "template":
			return tb.inHeadIM(t)
		}
	}
	// Anything else: content that is not legal inside a table. The parser
	// enables foster parenting and rearranges the node in front of the
	// table — the HF4 signal and an mXSS building block.
	detail := "#text"
	if t.Type == StartTagToken || t.Type == EndTagToken {
		detail = t.Data
	}
	tb.parseError(ErrFosterParenting, detail, t.Pos)
	if t.Type == StartTagToken {
		tb.event(TreeEvent{Kind: EventFosterParented, Detail: detail, Pos: t.Pos})
	}
	tb.fosterParenting = true
	consumed := tb.inBodyIM(t)
	tb.fosterParenting = false
	return consumed
}

// clearStackToContext pops until the current node is in the stop set.
func (tb *treeBuilder) clearStackToContext(stop map[string]bool) {
	for len(tb.stack) > 0 {
		n := tb.currentNode()
		if n.Namespace == NamespaceHTML && stop[n.Data] {
			return
		}
		tb.pop()
	}
}

// ---- 13.2.6.4.10 in table text ----

func (tb *treeBuilder) inTableTextIM(t *Token) bool {
	if t.Type == CharacterToken {
		data := strings.ReplaceAll(t.Data, "\x00", "")
		if len(data) != len(t.Data) {
			tb.parseError(ErrUnexpectedNullCharacter, "", tb.nulPos(t))
		}
		if data != "" {
			tb.pendingTableText = append(tb.pendingTableText, Token{Type: CharacterToken, Data: data, Pos: t.Pos})
		}
		return true
	}
	var all strings.Builder
	for i := range tb.pendingTableText {
		all.WriteString(tb.pendingTableText[i].Data)
	}
	text := all.String()
	tb.pendingTableText = tb.pendingTableText[:0]
	if text != "" {
		if isAllWhitespace(text) {
			tb.insertText(text, tb.tableTextPos)
		} else {
			// Non-whitespace text inside a table: foster-parented (HF4).
			tb.parseError(ErrUnexpectedTextInTable, "", tb.tableTextPos)
			tb.event(TreeEvent{Kind: EventFosterParented, Detail: "#text", Pos: tb.tableTextPos})
			tb.fosterParenting = true
			tb.reconstructAFE()
			tb.insertText(text, tb.tableTextPos)
			tb.framesetOK = false
			tb.fosterParenting = false
		}
	}
	tb.mode = tb.originalMode
	return false
}

// ---- 13.2.6.4.11 in caption ----

func (tb *treeBuilder) inCaptionIM(t *Token) bool {
	switch t.Type {
	case StartTagToken:
		switch t.Data {
		case "caption", "col", "colgroup", "tbody", "td", "tfoot", "th",
			"thead", "tr":
			if !tb.closeCaption(t.Pos) {
				return true // fragment-ish case: ignore
			}
			return false
		}
	case EndTagToken:
		switch t.Data {
		case "caption":
			tb.closeCaption(t.Pos)
			return true
		case "table":
			if !tb.closeCaption(t.Pos) {
				return true
			}
			return false
		case "body", "col", "colgroup", "html", "tbody", "td", "tfoot",
			"th", "thead", "tr":
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		}
	}
	return tb.inBodyIM(t)
}

func (tb *treeBuilder) closeCaption(pos int) bool {
	if !tb.elementInTableScope("caption") {
		tb.parseError(ErrUnexpectedEndTag, "caption", pos)
		return false
	}
	tb.generateImpliedEndTags("")
	if !tb.currentNode().IsElement("caption") {
		tb.parseError(ErrUnexpectedEndTag, "caption", pos)
	}
	tb.popUntil("caption")
	tb.clearAFEToMarker()
	tb.mode = modeInTable
	return true
}

// ---- 13.2.6.4.12 in column group ----

func (tb *treeBuilder) inColumnGroupIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		ws, rest := splitLeadingWhitespace(t.Data)
		if ws != "" {
			tb.insertText(ws, t.Pos)
		}
		if rest == "" {
			return true
		}
		t.Data = rest
	case CommentToken:
		tb.insertComment(t, nil)
		return true
	case DoctypeToken:
		tb.parseError(ErrUnexpectedDoctype, "", t.Pos)
		return true
	case EOFToken:
		return tb.inBodyIM(t)
	case StartTagToken:
		switch t.Data {
		case "html":
			return tb.inBodyIM(t)
		case "col":
			tb.insertElement(t, NamespaceHTML)
			tb.pop()
			tb.ackSelfClosing()
			return true
		case "template":
			return tb.inHeadIM(t)
		}
	case EndTagToken:
		switch t.Data {
		case "colgroup":
			if !tb.currentNode().IsElement("colgroup") {
				tb.parseError(ErrUnexpectedEndTag, "colgroup", t.Pos)
				return true
			}
			tb.pop()
			tb.mode = modeInTable
			return true
		case "col":
			tb.parseError(ErrUnexpectedEndTag, "col", t.Pos)
			return true
		case "template":
			return tb.inHeadIM(t)
		}
	}
	if !tb.currentNode().IsElement("colgroup") {
		tb.parseError(ErrUnexpectedEndTag, "colgroup", t.Pos)
		return true
	}
	tb.pop()
	tb.mode = modeInTable
	return false
}

// ---- 13.2.6.4.13 in table body ----

func (tb *treeBuilder) inTableBodyIM(t *Token) bool {
	switch t.Type {
	case StartTagToken:
		switch t.Data {
		case "tr":
			tb.clearStackToContext(tableBodyContextTags)
			tb.insertElement(t, NamespaceHTML)
			tb.mode = modeInRow
			return true
		case "th", "td":
			tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
			tb.clearStackToContext(tableBodyContextTags)
			tb.insertImplied("tr", t.Pos)
			tb.mode = modeInRow
			return false
		case "caption", "col", "colgroup", "tbody", "tfoot", "thead":
			if !tb.elementInTableScope("tbody", "thead", "tfoot") {
				tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
				return true
			}
			tb.clearStackToContext(tableBodyContextTags)
			tb.pop()
			tb.mode = modeInTable
			return false
		}
	case EndTagToken:
		switch t.Data {
		case "tbody", "tfoot", "thead":
			if !tb.elementInTableScope(t.Data) {
				tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
				return true
			}
			tb.clearStackToContext(tableBodyContextTags)
			tb.pop()
			tb.mode = modeInTable
			return true
		case "table":
			if !tb.elementInTableScope("tbody", "thead", "tfoot") {
				tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
				return true
			}
			tb.clearStackToContext(tableBodyContextTags)
			tb.pop()
			tb.mode = modeInTable
			return false
		case "body", "caption", "col", "colgroup", "html", "td", "th", "tr":
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		}
	}
	return tb.inTableIM(t)
}

// ---- 13.2.6.4.14 in row ----

func (tb *treeBuilder) inRowIM(t *Token) bool {
	switch t.Type {
	case StartTagToken:
		switch t.Data {
		case "th", "td":
			tb.clearStackToContext(tableRowContextTags)
			tb.insertElement(t, NamespaceHTML)
			tb.mode = modeInCell
			tb.pushAFEMarker()
			return true
		case "caption", "col", "colgroup", "tbody", "tfoot", "thead", "tr":
			if !tb.endRow(t.Pos) {
				return true
			}
			return false
		}
	case EndTagToken:
		switch t.Data {
		case "tr":
			tb.endRow(t.Pos)
			return true
		case "table":
			if !tb.endRow(t.Pos) {
				return true
			}
			return false
		case "tbody", "tfoot", "thead":
			if !tb.elementInTableScope(t.Data) {
				tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
				return true
			}
			if !tb.endRow(t.Pos) {
				return true
			}
			return false
		case "body", "caption", "col", "colgroup", "html", "td", "th":
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		}
	}
	return tb.inTableIM(t)
}

func (tb *treeBuilder) endRow(pos int) bool {
	if !tb.elementInTableScope("tr") {
		tb.parseError(ErrUnexpectedEndTag, "tr", pos)
		return false
	}
	tb.clearStackToContext(tableRowContextTags)
	tb.pop()
	tb.mode = modeInTableBody
	return true
}

// ---- 13.2.6.4.15 in cell ----

func (tb *treeBuilder) inCellIM(t *Token) bool {
	switch t.Type {
	case StartTagToken:
		switch t.Data {
		case "caption", "col", "colgroup", "tbody", "td", "tfoot", "th",
			"thead", "tr":
			if !tb.elementInTableScope("td", "th") {
				tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
				return true
			}
			tb.closeCell(t.Pos)
			return false
		}
	case EndTagToken:
		switch t.Data {
		case "td", "th":
			if !tb.elementInTableScope(t.Data) {
				tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
				return true
			}
			tb.generateImpliedEndTags("")
			if !tb.currentNode().IsElement(t.Data) {
				tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			}
			tb.popUntil(t.Data)
			tb.clearAFEToMarker()
			tb.mode = modeInRow
			return true
		case "body", "caption", "col", "colgroup", "html":
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			return true
		case "table", "tbody", "tfoot", "thead", "tr":
			if !tb.elementInTableScope(t.Data) {
				tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
				return true
			}
			tb.closeCell(t.Pos)
			return false
		}
	}
	return tb.inBodyIM(t)
}

func (tb *treeBuilder) closeCell(pos int) {
	tb.generateImpliedEndTags("")
	cur := tb.currentNode()
	if cur != nil && !cur.IsElement("td") && !cur.IsElement("th") {
		tb.parseError(ErrUnexpectedEndTag, "td", pos)
	}
	tb.popUntil("td", "th")
	tb.clearAFEToMarker()
	tb.mode = modeInRow
}

// ---- 13.2.6.4.16 in select ----

func (tb *treeBuilder) inSelectIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		data := strings.ReplaceAll(t.Data, "\x00", "")
		if len(data) != len(t.Data) {
			tb.parseError(ErrUnexpectedNullCharacter, "", tb.nulPos(t))
		}
		tb.insertText(data, t.Pos)
		return true
	case CommentToken:
		tb.insertComment(t, nil)
		return true
	case DoctypeToken:
		tb.parseError(ErrUnexpectedDoctype, "", t.Pos)
		return true
	case EOFToken:
		return tb.inBodyIM(t)
	case StartTagToken:
		switch t.Data {
		case "html":
			return tb.inBodyIM(t)
		case "option":
			if tb.currentNode().IsElement("option") {
				tb.pop()
			}
			tb.insertElement(t, NamespaceHTML)
			return true
		case "optgroup":
			if tb.currentNode().IsElement("option") {
				tb.pop()
			}
			if tb.currentNode().IsElement("optgroup") {
				tb.pop()
			}
			tb.insertElement(t, NamespaceHTML)
			return true
		case "select":
			tb.parseError(ErrUnexpectedStartTag, "select", t.Pos)
			if tb.elementInSelectScope("select") {
				tb.popUntil("select")
				tb.resetInsertionMode()
			}
			return true
		case "input", "keygen", "textarea":
			tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
			if !tb.elementInSelectScope("select") {
				return true
			}
			tb.popUntil("select")
			tb.resetInsertionMode()
			return false
		case "script", "template":
			return tb.inHeadIM(t)
		}
	case EndTagToken:
		switch t.Data {
		case "optgroup":
			if tb.currentNode().IsElement("option") && len(tb.stack) > 1 &&
				tb.stack[len(tb.stack)-2].IsElement("optgroup") {
				tb.pop()
			}
			if tb.currentNode().IsElement("optgroup") {
				tb.pop()
			} else {
				tb.parseError(ErrUnexpectedEndTag, "optgroup", t.Pos)
			}
			return true
		case "option":
			if tb.currentNode().IsElement("option") {
				tb.pop()
			} else {
				tb.parseError(ErrUnexpectedEndTag, "option", t.Pos)
			}
			return true
		case "select":
			if !tb.elementInSelectScope("select") {
				tb.parseError(ErrUnexpectedEndTag, "select", t.Pos)
				return true
			}
			tb.popUntil("select")
			tb.resetInsertionMode()
			return true
		case "template":
			return tb.inHeadIM(t)
		}
	}
	tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
	tb.event(TreeEvent{Kind: EventIgnoredToken, Detail: t.Data, Pos: t.Pos})
	return true
}

// ---- 13.2.6.4.17 in select in table ----

func (tb *treeBuilder) inSelectInTableIM(t *Token) bool {
	switch t.Type {
	case StartTagToken:
		switch t.Data {
		case "caption", "table", "tbody", "tfoot", "thead", "tr", "td", "th":
			tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
			tb.popUntil("select")
			tb.resetInsertionMode()
			return false
		}
	case EndTagToken:
		switch t.Data {
		case "caption", "table", "tbody", "tfoot", "thead", "tr", "td", "th":
			tb.parseError(ErrUnexpectedEndTag, t.Data, t.Pos)
			if !tb.elementInTableScope(t.Data) {
				return true
			}
			tb.popUntil("select")
			tb.resetInsertionMode()
			return false
		}
	}
	return tb.inSelectIM(t)
}

// ---- 13.2.6.4.19 after body ----

func (tb *treeBuilder) afterBodyIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		if isAllWhitespace(t.Data) {
			return tb.inBodyIM(t)
		}
	case CommentToken:
		if len(tb.stack) > 0 {
			tb.insertComment(t, tb.stack[0])
		}
		return true
	case DoctypeToken:
		tb.parseError(ErrUnexpectedDoctype, "", t.Pos)
		return true
	case StartTagToken:
		if t.Data == "html" {
			return tb.inBodyIM(t)
		}
	case EndTagToken:
		if t.Data == "html" {
			tb.mode = modeAfterAfterBody
			return true
		}
	case EOFToken:
		tb.stopParsing(t.Pos)
		return true
	}
	tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
	tb.mode = modeInBody
	return false
}

// ---- 13.2.6.4.22 after after body ----

func (tb *treeBuilder) afterAfterBodyIM(t *Token) bool {
	switch t.Type {
	case CommentToken:
		tb.insertComment(t, tb.doc)
		return true
	case CharacterToken:
		if isAllWhitespace(t.Data) {
			return tb.inBodyIM(t)
		}
	case DoctypeToken:
		return tb.inBodyIM(t)
	case StartTagToken:
		if t.Data == "html" {
			return tb.inBodyIM(t)
		}
	case EOFToken:
		tb.stopParsing(t.Pos)
		return true
	}
	tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
	tb.mode = modeInBody
	return false
}

// ---- 13.2.6.4.20/21 frameset modes (minimal: framesets are extinct and
// no violation rule depends on them, but documents using them must still
// parse) ----

func (tb *treeBuilder) inFramesetIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		ws, _ := splitLeadingWhitespace(t.Data)
		if ws != "" {
			tb.insertText(ws, t.Pos)
		}
		return true
	case CommentToken:
		tb.insertComment(t, nil)
		return true
	case EOFToken:
		tb.stopParsing(t.Pos)
		return true
	case StartTagToken:
		switch t.Data {
		case "html":
			return tb.inBodyIM(t)
		case "frameset":
			tb.insertElement(t, NamespaceHTML)
			return true
		case "frame":
			tb.insertElement(t, NamespaceHTML)
			tb.pop()
			tb.ackSelfClosing()
			return true
		case "noframes":
			return tb.inHeadIM(t)
		}
	case EndTagToken:
		if t.Data == "frameset" {
			if tb.currentNode() != nil && !tb.currentNode().IsElement("html") {
				tb.pop()
			}
			if tb.currentNode() != nil && !tb.currentNode().IsElement("frameset") {
				tb.mode = modeAfterFrameset
			}
			return true
		}
	}
	tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
	return true
}

func (tb *treeBuilder) afterFramesetIM(t *Token) bool {
	switch t.Type {
	case CharacterToken:
		ws, _ := splitLeadingWhitespace(t.Data)
		if ws != "" {
			tb.insertText(ws, t.Pos)
		}
		return true
	case CommentToken:
		tb.insertComment(t, nil)
		return true
	case EOFToken:
		tb.stopParsing(t.Pos)
		return true
	case StartTagToken:
		switch t.Data {
		case "html":
			return tb.inBodyIM(t)
		case "noframes":
			return tb.inHeadIM(t)
		}
	case EndTagToken:
		if t.Data == "html" {
			tb.mode = modeAfterAfterFrameset
			return true
		}
	}
	tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
	return true
}

func (tb *treeBuilder) afterAfterFramesetIM(t *Token) bool {
	switch t.Type {
	case CommentToken:
		tb.insertComment(t, tb.doc)
		return true
	case CharacterToken:
		ws, _ := splitLeadingWhitespace(t.Data)
		if ws != "" {
			tb.insertText(ws, t.Pos)
		}
		return true
	case EOFToken:
		tb.stopParsing(t.Pos)
		return true
	case StartTagToken:
		switch t.Data {
		case "html":
			return tb.inBodyIM(t)
		case "noframes":
			return tb.inHeadIM(t)
		}
	}
	tb.parseError(ErrUnexpectedStartTag, t.Data, t.Pos)
	return true
}

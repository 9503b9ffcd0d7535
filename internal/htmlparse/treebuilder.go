package htmlparse

// This file holds the tree construction stage's infrastructure: the stack
// of open elements, the list of active formatting elements, insertion
// locations (including foster parenting), and scope queries. The insertion
// mode handlers live in modes.go, foreign-content rules in foreign.go and
// the adoption agency algorithm in adoption.go.

import (
	"bytes"
)

type insertionMode int

const (
	modeInitial insertionMode = iota
	modeBeforeHTML
	modeBeforeHead
	modeInHead
	modeAfterHead
	modeInBody
	modeText
	modeInTable
	modeInTableText
	modeInCaption
	modeInColumnGroup
	modeInTableBody
	modeInRow
	modeInCell
	modeInSelect
	modeInSelectInTable
	modeAfterBody
	modeInFrameset
	modeAfterFrameset
	modeAfterAfterBody
	modeAfterAfterFrameset
)

// afeEntry is one entry in the list of active formatting elements. A nil
// node denotes a marker.
type afeEntry struct {
	node  *Node
	token Token
}

// treeBuilder implements the tree construction stage (spec 13.2.6). Like
// the tokenizer it never fails: every deviation is recorded as a
// ParseError and/or TreeEvent and repaired.
type treeBuilder struct {
	z     *Tokenizer
	doc   *Node
	arena nodeArena

	stack []*Node
	afe   []afeEntry

	head *Node
	form *Node

	mode         insertionMode
	originalMode insertionMode

	fosterParenting bool
	framesetOK      bool
	// selfClosingAcked tracks the spec's "acknowledge the token's
	// self-closing flag" instruction: void-element and foreign-content
	// handlers set it; a self-closing start tag that finishes processing
	// without acknowledgment is the non-void-html-element-start-tag-
	// with-trailing-solidus parse error.
	selfClosingAcked bool
	quirksMode       QuirksMode
	stopped          bool

	pendingTableText []Token
	tableTextPos     int

	// runNode is the text node that the last merge of adjacent text went
	// into; its Data is a view of runBuf (see mergeText).
	runNode *Node
	runBuf  []byte

	skipLeadingNewline bool

	// obs receives every tag, parse error and event of the parse; ev is
	// the event it is handed, valid only during the call.
	obs Observer
	ev  TreeEvent

	// fragment, when non-nil, is the context element of the HTML fragment
	// parsing algorithm; it stands in for the root as the adjusted current
	// node.
	fragment *Node

	// scriptingEnabled mirrors a browser profile with JavaScript on, which
	// decides how <noscript> parses. Browsers (and therefore the paper's
	// threat model) have scripting on.
	scriptingEnabled bool

	// cancel, when non-nil, is polled every cancelStride tokens; a
	// non-nil return aborts the parse (abort records the cause). An
	// online service sets it to ctx.Err so a hostile document cannot
	// hold a worker past its request deadline.
	cancel     func() error
	cancelTick int
	// maxDepth, when positive, aborts the parse as soon as the
	// open-element stack exceeds it — the guard against adversarial
	// deeply-nested documents whose stack (and recursion in consumers
	// walking the tree) would otherwise grow with the input.
	maxDepth int
	// abort is the reason run() stopped early; nil for a completed
	// parse. When set, the partial tree must not be assembled.
	abort error
}

// ackSelfClosing implements "acknowledge the token's self-closing flag".
// Called by every handler the spec marks as acknowledging: void-element
// insertions and self-closing foreign elements.
func (tb *treeBuilder) ackSelfClosing() { tb.selfClosingAcked = true }

func (tb *treeBuilder) parseError(code ErrorCode, detail string, pos int) {
	tb.obs.Error(ParseError{Code: code, Pos: pos, Detail: detail})
}

// nulPos locates the first literal NUL byte at or after the text token's
// start and returns its offset, for the tree-stage
// unexpected-null-character error. The token's own Pos is the start of
// the whole text run, which can lie arbitrarily far before the NUL;
// reporting the error there made its offset depend on how much text
// precedes the NUL in the same run, which broke the truncation-stability
// invariant (an error about byte N must not move below the stability
// horizon just because the run started early). A NUL in token data is
// always a literal NUL byte in the input: the null character reference
// decodes to U+FFFD, never to NUL.
func (tb *treeBuilder) nulPos(t *Token) int {
	in := tb.z.input
	if t.Pos < 0 || t.Pos >= len(in) {
		return t.Pos
	}
	i := bytes.IndexByte(in[t.Pos:], 0)
	if i < 0 {
		return t.Pos
	}
	return t.Pos + i
}

func (tb *treeBuilder) event(e TreeEvent) {
	tb.ev = e
	tb.obs.Event(&tb.ev)
}

func (tb *treeBuilder) currentNode() *Node {
	if len(tb.stack) == 0 {
		return nil
	}
	return tb.stack[len(tb.stack)-1]
}

// adjustedCurrentNode equals the current node in document parsing; in
// fragment parsing the context element stands in while only the root is on
// the stack.
func (tb *treeBuilder) adjustedCurrentNode() *Node {
	if tb.fragment != nil && len(tb.stack) == 1 {
		return tb.fragment
	}
	return tb.currentNode()
}

func (tb *treeBuilder) push(n *Node) { tb.stack = append(tb.stack, n) }
func (tb *treeBuilder) pop() *Node {
	n := tb.stack[len(tb.stack)-1]
	tb.stack = tb.stack[:len(tb.stack)-1]
	return n
}

// popUntil pops elements until an HTML element with one of the given tags
// has been popped. It returns the popped element, or nil if the stack
// emptied (which the callers' scope checks prevent).
func (tb *treeBuilder) popUntil(tags ...string) *Node {
	for len(tb.stack) > 0 {
		n := tb.pop()
		if n.Namespace == NamespaceHTML {
			for _, t := range tags {
				if n.Data == t {
					return n
				}
			}
		}
	}
	return nil
}

func (tb *treeBuilder) removeFromStack(n *Node) {
	for i := len(tb.stack) - 1; i >= 0; i-- {
		if tb.stack[i] == n {
			tb.stack = append(tb.stack[:i], tb.stack[i+1:]...)
			return
		}
	}
}

func (tb *treeBuilder) indexOnStack(n *Node) int {
	for i := len(tb.stack) - 1; i >= 0; i-- {
		if tb.stack[i] == n {
			return i
		}
	}
	return -1
}

// elementInScope implements the "has an element in scope" family. extra
// is a class mask that widens the stop set (classListItemScope,
// classButtonScope); 0 means the default scope.
func (tb *treeBuilder) elementInScope(extra uint8, tags ...string) bool {
	stop := classScopeStop | extra
	for i := len(tb.stack) - 1; i >= 0; i-- {
		n := tb.stack[i]
		if n.Namespace == NamespaceHTML {
			for _, t := range tags {
				if n.Data == t {
					return true
				}
			}
			if n.class&stop != 0 {
				return false
			}
		} else {
			// Foreign scope stops: MathML text integration points and SVG
			// HTML integration points.
			if isMathMLTextIntegrationPoint(n) || isHTMLIntegrationPoint(n) {
				return false
			}
		}
	}
	return false
}

func (tb *treeBuilder) elementInTableScope(tags ...string) bool {
	for i := len(tb.stack) - 1; i >= 0; i-- {
		n := tb.stack[i]
		if n.Namespace != NamespaceHTML {
			continue
		}
		for _, t := range tags {
			if n.Data == t {
				return true
			}
		}
		if n.class&classTableScopeStop != 0 {
			return false
		}
	}
	return false
}

func (tb *treeBuilder) elementInSelectScope(tag string) bool {
	for i := len(tb.stack) - 1; i >= 0; i-- {
		n := tb.stack[i]
		if n.Namespace != NamespaceHTML {
			return false
		}
		if n.Data == tag {
			return true
		}
		if n.Data != "optgroup" && n.Data != "option" {
			return false
		}
	}
	return false
}

func isMathMLTextIntegrationPoint(n *Node) bool {
	return n.Namespace == NamespaceMathML && mathMLTextIntegration[n.Data]
}

func isHTMLIntegrationPoint(n *Node) bool {
	if n.Namespace == NamespaceSVG && svgHTMLIntegration[n.Data] {
		return true
	}
	if n.Namespace == NamespaceMathML && n.Data == "annotation-xml" {
		if enc, ok := n.LookupAttr("encoding"); ok {
			switch asciiLower(enc) {
			case "text/html", "application/xhtml+xml":
				return true
			}
		}
	}
	return false
}

func asciiLower(s string) string {
	b := []byte(s)
	changed := false
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 0x20
			changed = true
		}
	}
	if !changed {
		return s
	}
	return string(b)
}

// insertionLocation returns the parent node and the child to insert before
// (nil = append), applying the foster parenting rules when enabled and the
// current node is table-ish (spec "appropriate place for inserting a node").
func (tb *treeBuilder) insertionLocation() (parent, before *Node) {
	target := tb.currentNode()
	if target == nil {
		return tb.doc, nil
	}
	if tb.fosterParenting {
		switch target.Data {
		case "table", "tbody", "tfoot", "thead", "tr":
			if target.Namespace == NamespaceHTML {
				// Find the last table on the stack.
				for i := len(tb.stack) - 1; i >= 0; i-- {
					if tb.stack[i].IsElement("table") {
						table := tb.stack[i]
						if table.Parent != nil {
							return table.Parent, table
						}
						return tb.stack[i-1], nil
					}
				}
				return tb.stack[0], nil
			}
		}
	}
	return target, nil
}

// insertNode places n at the appropriate insertion location.
func (tb *treeBuilder) insertNode(n *Node) {
	parent, before := tb.insertionLocation()
	if before != nil {
		parent.InsertBefore(n, before)
		n.FosterParented = true
	} else {
		parent.AppendChild(n)
	}
}

// insertElement creates an element node for the token and pushes it.
func (tb *treeBuilder) insertElement(t *Token, ns Namespace) *Node {
	n := tb.createElement(t, ns)
	tb.insertNode(n)
	tb.push(n)
	return n
}

// newNode allocates a zeroed Node from the per-parse arena. Every node
// reachable from the finished document must come from here so that node
// lifetimes stay tied to the arena slabs the document owns.
func (tb *treeBuilder) newNode() *Node { return tb.arena.new() }

// cloneNode is the adoption agency's shallow copy (attributes copied, no
// children/links), allocated from the arena like every other node.
func (tb *treeBuilder) cloneNode(n *Node) *Node {
	c := tb.newNode()
	*c = Node{Type: n.Type, Data: n.Data, Namespace: n.Namespace, Pos: n.Pos, class: n.class}
	c.Attr = append([]Attribute(nil), n.Attr...)
	return c
}

func (tb *treeBuilder) createElement(t *Token, ns Namespace) *Node {
	n := tb.newNode()
	*n = Node{Type: ElementNode, Data: t.Data, Namespace: ns, Pos: t.Pos}
	if ns == NamespaceHTML {
		n.class = elementClasses[t.Data]
	}
	dup := false
	for i := range t.Attr {
		if t.Attr[i].Duplicate {
			dup = true
			break
		}
	}
	if !dup {
		// The common case: adopt the token's attribute slice wholesale
		// instead of copying it (the token is emitted once and the slice is
		// never rebuilt, so sharing the backing array is safe).
		n.Attr = t.Attr
		return n
	}
	for i := range t.Attr {
		if !t.Attr[i].Duplicate {
			n.Attr = append(n.Attr, t.Attr[i])
		}
	}
	return n
}

// insertImplied synthesizes an element with no corresponding start tag.
func (tb *treeBuilder) insertImplied(tag string, pos int) *Node {
	n := tb.newNode()
	*n = Node{Type: ElementNode, Data: tag, Namespace: NamespaceHTML, Implied: true, Pos: pos, class: elementClasses[tag]}
	tb.insertNode(n)
	tb.push(n)
	return n
}

// insertText inserts character data at the appropriate place, merging with
// an adjacent text node as the spec requires.
func (tb *treeBuilder) insertText(data string, pos int) {
	if data == "" {
		return
	}
	parent, before := tb.insertionLocation()
	var prev *Node
	if before != nil {
		prev = before.PrevSibling
	} else {
		prev = parent.LastChild
	}
	if prev != nil && prev.Type == TextNode {
		tb.mergeText(prev, data)
		return
	}
	n := tb.newNode()
	*n = Node{Type: TextNode, Data: data, Pos: pos}
	if before != nil {
		parent.InsertBefore(n, before)
		n.FosterParented = true
	} else {
		parent.AppendChild(n)
	}
}

// mergeText appends data to the text node prev. Merged text grows in a
// buffer the builder owns for the run of merges into one node, and
// prev.Data is a view of the buffer's filled part, so n merges copy each
// byte a constant number of times instead of once per merge. A merge
// only writes past the end of every view already handed out, and a run
// into another node takes a fresh buffer, so no view's bytes change.
func (tb *treeBuilder) mergeText(prev *Node, data string) {
	if prev != tb.runNode {
		tb.runNode = prev
		tb.runBuf = make([]byte, 0, 2*(len(prev.Data)+len(data)))
		tb.runBuf = append(tb.runBuf, prev.Data...)
	}
	tb.runBuf = append(tb.runBuf, data...)
	prev.Data = zcString(tb.runBuf)
}

// insertComment appends a comment node to the given parent (or the
// appropriate place when parent is nil).
func (tb *treeBuilder) insertComment(t *Token, parent *Node) {
	n := tb.newNode()
	*n = Node{Type: CommentNode, Data: t.Data, Pos: t.Pos}
	if parent != nil {
		parent.AppendChild(n)
		return
	}
	tb.insertNode(n)
}

// generateImpliedEndTags pops elements whose end tags the spec implies,
// except the named one (empty string implies none excepted).
func (tb *treeBuilder) generateImpliedEndTags(except string) {
	for {
		n := tb.currentNode()
		if n == nil || n.class&classImpliedEnd == 0 || n.Data == except {
			return
		}
		tb.pop()
	}
}

// closePElement implements "close a p element".
func (tb *treeBuilder) closePElement() {
	tb.generateImpliedEndTags("p")
	tb.popUntil("p")
}

// mergeAttrs copies attributes from t that dst does not already have
// (the <html> and second-<body> merge rule).
func (tb *treeBuilder) mergeAttrs(dst *Node, t *Token) {
	for i := range t.Attr {
		a := &t.Attr[i]
		if a.Duplicate {
			continue
		}
		if _, ok := dst.LookupAttr(a.Name); !ok {
			dst.Attr = append(dst.Attr, *a)
		}
	}
}

// ---- active formatting elements ----

// pushAFE adds a formatting element, applying the Noah's Ark clause (at
// most three identical entries since the last marker).
func (tb *treeBuilder) pushAFE(n *Node, t *Token) {
	identical := 0
	for i := len(tb.afe) - 1; i >= 0; i-- {
		e := tb.afe[i].node
		if e == nil {
			break
		}
		if sameFormatting(e, n) {
			identical++
			if identical == 3 {
				tb.afe = append(tb.afe[:i], tb.afe[i+1:]...)
				break
			}
		}
	}
	tb.afe = append(tb.afe, afeEntry{node: n, token: *t})
}

func sameFormatting(a, b *Node) bool {
	if a.Data != b.Data || a.Namespace != b.Namespace || len(a.Attr) != len(b.Attr) {
		return false
	}
	for _, aa := range a.Attr {
		v, ok := b.LookupAttr(aa.Name)
		if !ok || v != aa.Value {
			return false
		}
	}
	return true
}

func (tb *treeBuilder) pushAFEMarker() {
	tb.afe = append(tb.afe, afeEntry{})
}

// clearAFEToMarker implements "clear the list of active formatting
// elements up to the last marker".
func (tb *treeBuilder) clearAFEToMarker() {
	for len(tb.afe) > 0 {
		e := tb.afe[len(tb.afe)-1].node
		tb.afe = tb.afe[:len(tb.afe)-1]
		if e == nil {
			return
		}
	}
}

func (tb *treeBuilder) removeFromAFE(n *Node) {
	for i := len(tb.afe) - 1; i >= 0; i-- {
		if tb.afe[i].node == n {
			tb.afe = append(tb.afe[:i], tb.afe[i+1:]...)
			return
		}
	}
}

// afeIndexAfterLastMarker finds the most recent entry with the given tag
// after the last marker, returning its index or -1.
func (tb *treeBuilder) afeIndexAfterLastMarker(tag string) int {
	for i := len(tb.afe) - 1; i >= 0; i-- {
		if tb.afe[i].node == nil {
			return -1
		}
		if tb.afe[i].node.Data == tag {
			return i
		}
	}
	return -1
}

// reconstructAFE implements "reconstruct the active formatting elements".
func (tb *treeBuilder) reconstructAFE() {
	if len(tb.afe) == 0 {
		return
	}
	last := tb.afe[len(tb.afe)-1].node
	if last == nil || tb.indexOnStack(last) >= 0 {
		return
	}
	// Rewind to the earliest entry needing reconstruction.
	i := len(tb.afe) - 1
	for i > 0 {
		prev := tb.afe[i-1].node
		if prev == nil || tb.indexOnStack(prev) >= 0 {
			break
		}
		i--
	}
	for ; i < len(tb.afe); i++ {
		e := &tb.afe[i]
		e.node = tb.insertElement(&e.token, NamespaceHTML)
	}
}

// resetInsertionMode implements "reset the insertion mode appropriately".
func (tb *treeBuilder) resetInsertionMode() {
	for i := len(tb.stack) - 1; i >= 0; i-- {
		n := tb.stack[i]
		last := i == 0
		if n.Namespace != NamespaceHTML {
			continue
		}
		switch n.Data {
		case "select":
			tb.mode = modeInSelect
			for j := i - 1; j >= 0; j-- {
				if tb.stack[j].IsElement("table") {
					tb.mode = modeInSelectInTable
					break
				}
			}
			return
		case "td", "th":
			if !last {
				tb.mode = modeInCell
				return
			}
		case "tr":
			tb.mode = modeInRow
			return
		case "tbody", "thead", "tfoot":
			tb.mode = modeInTableBody
			return
		case "caption":
			tb.mode = modeInCaption
			return
		case "colgroup":
			tb.mode = modeInColumnGroup
			return
		case "table":
			tb.mode = modeInTable
			return
		case "head":
			if !last {
				tb.mode = modeInHead
				return
			}
		case "body":
			tb.mode = modeInBody
			return
		case "frameset":
			tb.mode = modeInFrameset
			return
		case "html":
			if tb.head == nil {
				tb.mode = modeBeforeHead
			} else {
				tb.mode = modeAfterHead
			}
			return
		}
		if last {
			tb.mode = modeInBody
			return
		}
	}
	tb.mode = modeInBody
}

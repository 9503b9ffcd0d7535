package htmlparse

// adoptionAgency implements the adoption agency algorithm (spec
// 13.2.6.4.7, "the AAA"), the most intricate of the parser's repair
// strategies: it untangles misnested formatting elements such as
// <b><p>x</b>y</p> by cloning and re-parenting.
func (tb *treeBuilder) adoptionAgency(t *Token) {
	subject := t.Data
	// Step 2: trivial case.
	if cur := tb.currentNode(); cur != nil && cur.IsElement(subject) {
		inAFE := false
		for i := range tb.afe {
			if tb.afe[i].node == cur {
				inAFE = true
				break
			}
		}
		if !inAFE {
			tb.pop()
			return
		}
	}
	for outer := 0; outer < 8; outer++ {
		// Step 4.3: locate the formatting element.
		feIdx := tb.afeIndexAfterLastMarker(subject)
		if feIdx < 0 {
			tb.anyOtherEndTag(t)
			return
		}
		fe := tb.afe[feIdx].node
		stackIdx := tb.indexOnStack(fe)
		if stackIdx < 0 {
			tb.parseError(ErrAdoptionAgencyMisnesting, subject, t.Pos)
			tb.removeFromAFE(fe)
			return
		}
		if !tb.nodeInScope(fe) {
			tb.parseError(ErrAdoptionAgencyMisnesting, subject, t.Pos)
			return
		}
		if fe != tb.currentNode() {
			tb.parseError(ErrAdoptionAgencyMisnesting, subject, t.Pos)
		}
		// Step 4.8: furthest block.
		var fb *Node
		fbIdx := -1
		for i := stackIdx + 1; i < len(tb.stack); i++ {
			n := tb.stack[i]
			if n.Namespace == NamespaceHTML && specialElements[n.Data] {
				fb = n
				fbIdx = i
				break
			}
		}
		if fb == nil {
			for len(tb.stack) > stackIdx {
				tb.pop()
			}
			tb.removeFromAFE(fe)
			return
		}
		// Only a genuine misnesting (a furthest block exists) reaches the
		// re-parenting machinery worth reporting.
		tb.event(TreeEvent{Kind: EventAdoptionAgency, Detail: subject, Pos: t.Pos})
		commonAncestor := tb.stack[stackIdx-1]
		bookmark := feIdx
		node, nodeIdx := fb, fbIdx
		lastNode := fb
		for inner := 1; ; inner++ {
			nodeIdx--
			node = tb.stack[nodeIdx]
			if node == fe {
				break
			}
			nodeAFE := -1
			for i := range tb.afe {
				if tb.afe[i].node == node {
					nodeAFE = i
					break
				}
			}
			if inner > 3 && nodeAFE >= 0 {
				tb.afe = append(tb.afe[:nodeAFE], tb.afe[nodeAFE+1:]...)
				if nodeAFE < bookmark {
					bookmark--
				}
				nodeAFE = -1
			}
			if nodeAFE < 0 {
				tb.stack = append(tb.stack[:nodeIdx], tb.stack[nodeIdx+1:]...)
				continue
			}
			clone := tb.cloneNode(node)
			tb.afe[nodeAFE].node = clone
			tb.stack[nodeIdx] = clone
			node = clone
			if lastNode == fb {
				bookmark = nodeAFE + 1
			}
			if lastNode.Parent != nil {
				lastNode.Parent.RemoveChild(lastNode)
			}
			node.AppendChild(lastNode)
			lastNode = node
		}
		if lastNode.Parent != nil {
			lastNode.Parent.RemoveChild(lastNode)
		}
		tb.insertWithTarget(commonAncestor, lastNode)
		// Step 4.15-4.19: re-home the furthest block's children.
		clone := tb.cloneNode(fe)
		for c := fb.FirstChild; c != nil; c = fb.FirstChild {
			fb.RemoveChild(c)
			clone.AppendChild(c)
		}
		fb.AppendChild(clone)
		tb.removeFromAFE(fe)
		if bookmark > len(tb.afe) {
			bookmark = len(tb.afe)
		}
		tb.afe = append(tb.afe[:bookmark], append([]afeEntry{{node: clone, token: t2(clone)}}, tb.afe[bookmark:]...)...)
		tb.removeFromStack(fe)
		if idx := tb.indexOnStack(fb); idx >= 0 {
			tb.stack = append(tb.stack[:idx+1], append([]*Node{clone}, tb.stack[idx+1:]...)...)
		}
	}
}

// t2 rebuilds a start-tag token from a node, for AFE bookkeeping of clones.
func t2(n *Node) Token {
	return Token{Type: StartTagToken, Data: n.Data, Attr: n.Attr, Pos: n.Pos}
}

// nodeInScope reports whether the specific node is in the default scope.
func (tb *treeBuilder) nodeInScope(target *Node) bool {
	for i := len(tb.stack) - 1; i >= 0; i-- {
		n := tb.stack[i]
		if n == target {
			return true
		}
		if n.Namespace == NamespaceHTML {
			if defaultScopeStop[n.Data] {
				return false
			}
		} else if isMathMLTextIntegrationPoint(n) || isHTMLIntegrationPoint(n) {
			return false
		}
	}
	return false
}

// insertWithTarget inserts n with the given override target, applying
// foster parenting when the target is table-ish.
func (tb *treeBuilder) insertWithTarget(target, n *Node) {
	switch target.Data {
	case "table", "tbody", "tfoot", "thead", "tr":
		if target.Namespace == NamespaceHTML {
			for i := len(tb.stack) - 1; i >= 0; i-- {
				if tb.stack[i].IsElement("table") {
					table := tb.stack[i]
					if table.Parent != nil {
						table.Parent.InsertBefore(n, table)
						n.FosterParented = true
						return
					}
					tb.stack[i-1].AppendChild(n)
					return
				}
			}
		}
	}
	target.AppendChild(n)
}

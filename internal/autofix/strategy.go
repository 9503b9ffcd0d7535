package autofix

import (
	"strings"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// Strategy is one rule family's repair. Apply edits the parse tree in
// tx.Res (or records fixes that plain serialization performs, for the
// syntax-level families) and records every action via tx.Record. A
// strategy only runs in rounds where its rule has findings, and nothing a
// strategy does is trusted: the engine re-parses the serialized output
// and keeps the edits only if the targeted rule is gone and no other rule
// got worse.
type Strategy struct {
	// RuleID is the catalogue rule this strategy repairs.
	RuleID string
	// Apply performs the repair for this round's findings.
	Apply func(tx *Tx)
}

// Tx is the context one strategy application runs in: the current round's
// parse, the findings for the strategy's rule, and the fix recorder.
type Tx struct {
	// Res is the instrumented parse of the current round's input. Apply
	// mutates Res.Doc; the engine serializes it afterwards. The tree is
	// valid only during the round: Apply must not retain Doc or a Node.
	Res *htmlparse.Result
	// Findings are this round's findings for the strategy's rule.
	Findings []core.Finding

	ruleID string
	fixes  []Fix
}

// Record notes one repair action at byte offset off of the round's input.
func (tx *Tx) Record(desc string, off int) {
	tx.fixes = append(tx.fixes, Fix{RuleID: tx.ruleID, Description: desc, Pos: htmlparse.Position{Offset: off}})
}

// Head returns the document's head element, or nil.
func (tx *Tx) Head() *htmlparse.Node {
	return tx.Res.Doc.Find(func(n *htmlparse.Node) bool { return n.IsElement("head") })
}

// strategies is the registry, in catalogue order. One strategy per
// fixable rule family; the engine consults it for targeting, application
// order, and the verification contract (strategy-covered rules must end
// at zero).
var strategies = []Strategy{
	{"DE3_1", fixDE31},
	{"DE3_3", fixDE33},
	{"DM1", fixDM1},
	{"DM2_1", fixDM21},
	{"DM2_2", fixDM22},
	{"DM2_3", fixDM23},
	serializeStrategy("DM3", "dropped duplicate attribute"),
	serializeStrategy("FB1", "replaced solidus attribute separator with whitespace"),
	serializeStrategy("FB2", "inserted missing whitespace between attributes"),
}

// StrategyRuleIDs returns the rules the engine actually repairs — the
// paper's FB/DM set plus the DE families with recoverable intent.
func StrategyRuleIDs() []string {
	out := make([]string, len(strategies))
	for i, s := range strategies {
		out[i] = s.RuleID
	}
	return out
}

// serializeStrategy covers the syntax-level families (FB1, FB2, DM3)
// where the parse already normalized the document — the stray solidus is
// gone from the token, the duplicate attribute is flagged and skipped by
// the serializer — so rendering is the repair. Apply records one fix per
// finding; the re-parse verification then proves the claim.
func serializeStrategy(id, desc string) Strategy {
	return Strategy{id, func(tx *Tx) {
		for _, f := range tx.Findings {
			d := desc
			if f.Evidence != "" {
				d = desc + " (" + f.Evidence + ")"
			}
			tx.Record(d, f.Pos.Offset)
		}
	}}
}

// fixDE31 repairs dangling-markup URL attributes by truncating the value
// at the first newline — the same cut Chromium applies before issuing the
// resource load. It targets the attributes the rule's own predicate
// matches on the raw (pre-decoding) value; attributes whose token never
// reached the tree (dropped nested forms and the like) vanish in
// serialization without an edit.
func fixDE31(tx *Tx) {
	tx.Res.Doc.Walk(func(n *htmlparse.Node) bool {
		if n.Type != htmlparse.ElementNode {
			return true
		}
		for i := range n.Attr {
			a := &n.Attr[i]
			if a.Duplicate || !core.DanglingURL(a) {
				continue
			}
			if truncateAttrAtNewline(a) {
				tx.Record("truncated URL attribute "+a.Name+" at the first newline", a.Pos)
			}
		}
		return true
	})
}

// fixDE33 repairs non-terminated target attributes the same way: the
// window name ends at the first newline, so nothing after it can leak to
// the next navigation target.
func fixDE33(tx *Tx) {
	tx.Res.Doc.Walk(func(n *htmlparse.Node) bool {
		if n.Type != htmlparse.ElementNode {
			return true
		}
		for i := range n.Attr {
			a := &n.Attr[i]
			if a.Duplicate || !core.DanglingTarget(n.Data, a) {
				continue
			}
			if truncateAttrAtNewline(a) {
				tx.Record("truncated target attribute at the first newline", a.Pos)
			}
		}
		return true
	})
}

// truncateAttrAtNewline cuts the decoded value at its first newline. The
// raw value is updated alongside so a strategy re-running in the same
// round sees the edit; the serializer reads only Value.
func truncateAttrAtNewline(a *htmlparse.Attribute) bool {
	cut := strings.IndexByte(a.Value, '\n')
	if cut < 0 {
		return false
	}
	a.Value = a.Value[:cut]
	a.RawValue = a.Value
	return true
}

// fixDM1 moves meta[http-equiv] elements that landed outside head back
// into it. A finding whose meta already sits in head is an after-head
// meta the tree builder rerouted there — serialization materializes the
// reroute, and the fix is recorded against the finding.
func fixDM1(tx *Tx) {
	head := tx.Head()
	if head == nil {
		return
	}
	var move []*htmlparse.Node
	inHead := map[int]bool{}
	tx.Res.Doc.Walk(func(n *htmlparse.Node) bool {
		if n.IsElement("meta") {
			if _, ok := n.LookupAttr("http-equiv"); ok {
				if n.Ancestor("head") == nil {
					move = append(move, n)
				} else {
					inHead[n.Pos] = true
				}
			}
		}
		return true
	})
	for _, n := range move {
		n.Parent.RemoveChild(n)
		head.AppendChild(n)
		tx.Record("moved meta[http-equiv] into head", n.Pos)
	}
	for _, f := range tx.Findings {
		if inHead[f.Pos.Offset] {
			tx.Record("re-serialized meta[http-equiv] inside head", f.Pos.Offset)
		}
	}
}

// fixDM21 moves the document's first base element into the head. Later
// bases outside head are DM2_2 extras; that strategy removes them.
func fixDM21(tx *Tx) {
	head, first := tx.Head(), firstBase(tx.Res.Doc)
	if head == nil || first == nil {
		return
	}
	if first.Ancestor("head") != nil {
		// After-head bases the tree builder already rerouted into the
		// head element: serialization materializes the reroute. Findings
		// on in-body extras are DM2_2's to fix, so only record the
		// findings whose base actually sits in head now.
		inHead := map[int]bool{}
		tx.Res.Doc.Walk(func(n *htmlparse.Node) bool {
			if n.IsElement("base") && n.Ancestor("head") != nil {
				inHead[n.Pos] = true
			}
			return true
		})
		for _, f := range tx.Findings {
			if inHead[f.Pos.Offset] {
				tx.Record("re-serialized base inside head", f.Pos.Offset)
			}
		}
		return
	}
	first.Parent.RemoveChild(first)
	head.InsertBefore(first, head.FirstChild)
	tx.Record("moved base element into head", first.Pos)
}

// fixDM22 enforces the spec's one-base rule the way the parser already
// resolves it: the first base wins, the rest are removed.
func fixDM22(tx *Tx) {
	bases := tx.Res.Doc.FindAll(func(n *htmlparse.Node) bool { return n.IsElement("base") })
	for _, extra := range bases[min(1, len(bases)):] {
		extra.Parent.RemoveChild(extra)
		tx.Record("removed extra base element", extra.Pos)
	}
}

// fixDM23 hoists the base to the head's first child so no URL-consuming
// element precedes it. A URL attribute that precedes head itself — a
// manifest on the html element — defeats the hoist; the strategy then has
// no edit to offer and the engine reports the rule Unfixable.
func fixDM23(tx *Tx) {
	head, first := tx.Head(), firstBase(tx.Res.Doc)
	if head == nil || first == nil || !basePlacedAfterURL(tx.Res.Doc, first) {
		return
	}
	if head.FirstChild == first {
		return
	}
	first.Parent.RemoveChild(first)
	head.InsertBefore(first, head.FirstChild)
	tx.Record("moved base before URL-consuming elements", first.Pos)
}

func firstBase(doc *htmlparse.Node) *htmlparse.Node {
	return doc.Find(func(n *htmlparse.Node) bool { return n.IsElement("base") })
}

// basePlacedAfterURL reports whether an element carrying a URL attribute
// precedes the base in document order (the DM2_3 predicate).
func basePlacedAfterURL(doc, base *htmlparse.Node) bool {
	urlSeen := false
	after := false
	doc.Walk(func(n *htmlparse.Node) bool {
		if n == base {
			after = urlSeen
			return false
		}
		if n.Type == htmlparse.ElementNode && !n.IsElement("base") {
			for i := range n.Attr {
				if core.URLConsuming(&n.Attr[i]) {
					urlSeen = true
					break
				}
			}
		}
		return true
	})
	return after
}

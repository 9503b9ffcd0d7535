package core

import (
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// Data Manipulation rules (paper §3.2.1 DM1/DM2, §3.2.2 DM3).

// hasAttr reports whether the attribute list carries a non-duplicate
// attribute of the given name.
func hasAttr(attrs []htmlparse.Attribute, name string) bool {
	for _, a := range attrs {
		if a.Name == name && !a.Duplicate {
			return true
		}
	}
	return false
}

// URLConsuming reports whether a is a URL attribute with a non-empty
// value: an element carrying one consumes a URL, so a base after it
// violates DM2_3. The repair engine's DM2_3 strategy tests the same.
func URLConsuming(a *htmlparse.Attribute) bool { return a.Value != "" && urlAttributes[a.Name] }

// ruleDM1 detects meta elements with an http-equiv attribute parsed
// outside the head section. http-equiv can set cookies, redirect the user
// or declare a CSP; the spec allows it only in head, yet the parsing
// process applies head rules anywhere (paper §3.2.1, Figure 15).
var ruleDM1 = Rule{
	ID: "DM1", Name: "Meta tag with http-equiv outside head",
	Doc:   "meta http-equiv can set cookies, redirect, or declare a CSP, and is only defined for <head> — yet the parser honors it anywhere in the body (paper §3.2.1, Figure 15).",
	Group: DataManipulation, Category: DefinitionViolation,
	AutoFixable: true,
	Stream: eventStream("DM1", func(e *htmlparse.TreeEvent) bool {
		return e.Detail == "meta" && hasAttr(e.Attr, "http-equiv")
	}, htmlparse.EventMetaInBody, htmlparse.EventMetadataAfterHead),
}

// ruleDM2_1 detects base elements outside the head section (only defined
// for head, accepted anywhere — the Froxlor credential theft primitive,
// CVE-2020-29653).
var ruleDM2_1 = Rule{
	ID: "DM2_1", Name: "Base tag outside head",
	Doc:   "A <base> element outside <head> rewrites every later relative URL — injected, it points the page's scripts at the attacker's server (Froxlor credential theft, CVE-2020-29653).",
	Group: DataManipulation, Category: DefinitionViolation,
	AutoFixable: true,
	Stream: eventStream("DM2_1", func(e *htmlparse.TreeEvent) bool { return e.Detail == "base" },
		htmlparse.EventBaseInBody, htmlparse.EventMetadataAfterHead),
}

// ruleDM2_2 detects documents with more than one base element; the spec
// allows exactly one per document. Like DM2_3 it reads the finished tree,
// where the spec defines it: a base the tree builder drops (inside select)
// or places in a foreign namespace (inside svg) is not a base element.
var ruleDM2_2 = Rule{
	ID: "DM2_2", Name: "Multiple base tags",
	Doc:   "Only one <base> per document is allowed; the parser keeps the first and ignores the rest, so an early injected base wins over the site's own (paper §3.2.1).",
	Group: DataManipulation, Category: DefinitionViolation,
	AutoFixable: true,
	Stream: func() RuleStream {
		bases := 0
		return RuleStream{Element: func(n *htmlparse.Node, emit func(Finding)) {
			if !n.IsElement("base") {
				return
			}
			if bases++; bases > 1 {
				emit(Finding{RuleID: "DM2_2", Pos: htmlparse.Position{Offset: n.Pos}, Evidence: "base"})
			}
		}}
	},
}

// ruleDM2_3 detects a base element that appears after an earlier element
// already consumed a URL: every relative URL before the base resolves
// differently from those after it, which the spec forbids. Tree order
// decides: a dropped nested form's action consumes no URL, and a second
// body's attributes count where they merge, on the first body.
var ruleDM2_3 = Rule{
	ID: "DM2_3", Name: "Base tag after URL-consuming element",
	Doc:   "A <base> appearing after elements that already consumed URLs splits the document into two inconsistent URL-resolution regimes (paper §3.2.1).",
	Group: DataManipulation, Category: DefinitionViolation,
	AutoFixable: true,
	Stream: func() RuleStream {
		urlSeen := false
		return RuleStream{Element: func(n *htmlparse.Node, emit func(Finding)) {
			if n.IsElement("base") {
				if urlSeen {
					emit(Finding{RuleID: "DM2_3", Pos: htmlparse.Position{Offset: n.Pos}, Evidence: "base"})
				}
				return
			}
			for i := range n.Attr {
				if URLConsuming(&n.Attr[i]) {
					urlSeen = true
					return
				}
			}
		}}
	},
}

// ruleDM3 detects duplicated attribute names within one tag: the parser
// keeps the first and drops the rest, so an injection placed before benign
// attributes silently overrides event handlers, ids or classes (paper
// §3.2.2, Figure 14).
var ruleDM3 = Rule{
	ID: "DM3", Name: "Multiple same attributes",
	Doc:   "Duplicate attribute names: the parser keeps the first occurrence, so an injection placed before benign attributes overrides event handlers, ids, and classes (paper §3.2.2, Figure 14).",
	Group: DataManipulation, Category: ParsingError,
	AutoFixable: true,
	Stream:      errorStream("DM3", htmlparse.ErrDuplicateAttribute),
}

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

// ruleDM1 detects meta elements with an http-equiv attribute parsed
// outside the head section. http-equiv can set cookies, redirect the user
// or declare a CSP; the spec allows it only in head, yet the parsing
// process applies head rules anywhere (paper §3.2.1, Figure 15).
var ruleDM1 = Rule{
	ID: "DM1", Name: "Meta tag with http-equiv outside head",
	Doc:   "meta http-equiv can set cookies, redirect, or declare a CSP, and is only defined for <head> — yet the parser honors it anywhere in the body (paper §3.2.1, Figure 15).",
	Group: DataManipulation, Category: DefinitionViolation,
	AutoFixable: true,
	Check: func(p *Page) []Finding {
		var out []Finding
		match := func(e htmlparse.TreeEvent) bool {
			return e.Detail == "meta" && hasAttr(e.Attr, "http-equiv")
		}
		out = append(out, eventFindings(p, "DM1", htmlparse.EventMetaInBody, match)...)
		out = append(out, eventFindings(p, "DM1", htmlparse.EventMetadataAfterHead, match)...)
		return out
	},
}

// ruleDM2_1 detects base elements outside the head section (only defined
// for head, accepted anywhere — the Froxlor credential theft primitive,
// CVE-2020-29653).
var ruleDM2_1 = Rule{
	ID: "DM2_1", Name: "Base tag outside head",
	Doc:   "A <base> element outside <head> rewrites every later relative URL — injected, it points the page's scripts at the attacker's server (Froxlor credential theft, CVE-2020-29653).",
	Group: DataManipulation, Category: DefinitionViolation,
	AutoFixable: true,
	Check: func(p *Page) []Finding {
		var out []Finding
		out = append(out, eventFindings(p, "DM2_1", htmlparse.EventBaseInBody, nil)...)
		out = append(out, eventFindings(p, "DM2_1", htmlparse.EventMetadataAfterHead,
			func(e htmlparse.TreeEvent) bool { return e.Detail == "base" })...)
		return out
	},
}

// ruleDM2_2 detects documents with more than one base element; the spec
// allows exactly one per document.
var ruleDM2_2 = Rule{
	ID: "DM2_2", Name: "Multiple base tags",
	Doc:   "Only one <base> per document is allowed; the parser keeps the first and ignores the rest, so an early injected base wins over the site's own (paper §3.2.1).",
	Group: DataManipulation, Category: DefinitionViolation,
	AutoFixable: true,
	Check: func(p *Page) []Finding {
		bases := p.Doc.FindAll(func(n *htmlparse.Node) bool { return n.IsElement("base") })
		if len(bases) < 2 {
			return nil
		}
		var out []Finding
		for _, b := range bases[1:] {
			out = append(out, Finding{RuleID: "DM2_2", Pos: b.Pos, Evidence: "base"})
		}
		return out
	},
}

// ruleDM2_3 detects a base element that appears after an earlier element
// already consumed a URL: every relative URL before the base resolves
// differently from those after it, which the spec forbids.
var ruleDM2_3 = Rule{
	ID: "DM2_3", Name: "Base tag after URL-consuming element",
	Doc:   "A <base> appearing after elements that already consumed URLs splits the document into two inconsistent URL-resolution regimes (paper §3.2.1).",
	Group: DataManipulation, Category: DefinitionViolation,
	AutoFixable: true,
	Check: func(p *Page) []Finding {
		var out []Finding
		urlSeen := false
		p.Doc.Walk(func(n *htmlparse.Node) bool {
			if n.Type != htmlparse.ElementNode {
				return true
			}
			if n.IsElement("base") {
				if urlSeen {
					out = append(out, Finding{RuleID: "DM2_3", Pos: n.Pos, Evidence: "base"})
				}
				return true
			}
			for _, a := range n.Attr {
				if urlAttributes[a.Name] && a.Value != "" {
					urlSeen = true
					break
				}
			}
			return true
		})
		return out
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

package core

import (
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// HTML Formatting rules (paper §3.2.1 HF1/HF2, §3.2.2 HF3–HF5). These are
// the building blocks of mutation XSS: every corrective re-arrangement the
// parser performs is a mutation a sanitizer cannot anticipate.

// ruleHF1 detects a broken head section: a non-head element that forced an
// implicit </head> (moving itself and all following head content into the
// body), or head metadata that turned up after the head was closed. The
// paper's examples: h1 around title, hidden div modals and inline SVGs
// placed in head (§4.4).
var ruleHF1 = Rule{
	ID: "HF1", Name: "Broken head section",
	Doc:   "A non-head element inside <head> closes the section implicitly and relocates the rest — including CSP meta tags — into the body where they are inert (paper §3.2.1).",
	Group: HTMLFormatting, Category: DefinitionViolation,
	Stream: eventStream("HF1", nil, htmlparse.EventHeadBroken, htmlparse.EventMetadataAfterHead),
}

// ruleHF2 detects content before the body element: the parser opens the
// body implicitly, so a dangling tag injected between head and body can
// absorb the real <body> tag together with its event handlers (paper
// Figure 4).
var ruleHF2 = Rule{
	ID: "HF2", Name: "Content before body",
	Doc:   "Content before <body> forces an implicit body; a dangling tag there can absorb the real body tag together with its onload security handlers (paper Figure 4).",
	Group: HTMLFormatting, Category: DefinitionViolation,
	Stream: eventStream("HF2", nil, htmlparse.EventImpliedBody),
}

// ruleHF3 detects a second body start tag. The parser merges its
// attributes into the existing body — first writer wins per attribute, so
// injections on either side of the real body tag manipulate it.
var ruleHF3 = Rule{
	ID: "HF3", Name: "Multiple body elements",
	Doc:   "A second <body> tag merges its attributes into the first (first writer wins per name), letting injections on either side of the real tag manipulate it (paper §3.2.2).",
	Group: HTMLFormatting, Category: ParsingError,
	Stream: eventStream("HF3", nil, htmlparse.EventSecondBody),
}

// ruleHF4 detects elements (or text) that are illegal inside a table and
// were foster-parented in front of it — the reordering trick of the
// Figure 1 sanitizer bypass and the paper's most common formatting
// violation (tables used for layout, §4.4 Figure 11).
var ruleHF4 = Rule{
	ID: "HF4", Name: "Broken table element",
	Doc:   "Content illegal inside <table> is foster-parented in front of it; sanitizers that do not anticipate the reordering are bypassable — the Figure 1 mXSS building block (paper §3.2.2).",
	Group: HTMLFormatting, Category: ParsingError,
	Stream: eventStream("HF4", nil, htmlparse.EventFosterParented),
}

// ruleHF5_1 detects SVG/MathML-only elements appearing in the HTML
// namespace — detached fragments of foreign markup, typically broken
// inline SVG (the most common namespace confusion in the paper's data).
var ruleHF5_1 = Rule{
	ID: "HF5_1", Name: "Wrong namespace: foreign element in HTML",
	Doc:   "SVG/MathML-only elements in the HTML namespace: detached foreign markup, typically broken inline SVG, parsed as unknown HTML elements (paper §3.2.2).",
	Group: HTMLFormatting, Category: ParsingError,
	Stream: eventStream("HF5_1", nil, htmlparse.EventForeignElementInHTML),
}

// ruleHF5_2 detects HTML breakout elements inside SVG content: the parser
// abandons the SVG subtree and re-parses the tag as HTML.
var ruleHF5_2 = Rule{
	ID: "HF5_2", Name: "Wrong namespace: breakout from SVG",
	Doc:   "An HTML element inside <svg> forces the parser out of the foreign namespace; content written for one namespace re-parses under another's rules (paper §3.2.2).",
	Group: HTMLFormatting, Category: ParsingError,
	Stream: eventStream("HF5_2", func(e *htmlparse.TreeEvent) bool { return e.Namespace == htmlparse.NamespaceSVG },
		htmlparse.EventForeignBreakout),
}

// ruleHF5_3 detects breakouts from MathML content — the namespace switch
// at the heart of the DOMPurify bypass (paper Figure 1); vanishingly rare
// in the wild (3 domains in the paper's eight-year dataset).
var ruleHF5_3 = Rule{
	ID: "HF5_3", Name: "Wrong namespace: breakout from MathML",
	Doc:   "The MathML namespace breakout behind the DOMPurify < 2.1 bypass: content crosses from MathML parsing rules to HTML ones between two parses (paper Figure 1).",
	Group: HTMLFormatting, Category: ParsingError,
	Stream: eventStream("HF5_3", func(e *htmlparse.TreeEvent) bool { return e.Namespace == htmlparse.NamespaceMathML },
		htmlparse.EventForeignBreakout),
}

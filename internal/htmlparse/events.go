package htmlparse

import "fmt"

// EventKind identifies a corrective action the tree builder performed while
// tolerating erroneous input. The violation rules in internal/core are
// defined over this event stream plus the tokenizer's parse errors.
type EventKind int

const (
	// EventImpliedHead records that a <head> element was synthesized
	// because the document never opened one explicitly (an HF1 signal).
	EventImpliedHead EventKind = iota
	// EventImpliedBody records that a <body> element was synthesized
	// because content appeared before any <body> start tag (the HF2
	// signal).
	EventImpliedBody
	// EventHeadBroken records a non-head element inside the head section,
	// which forced an implicit </head>; the element and everything after
	// it lands in the body (an HF1 signal).
	EventHeadBroken
	// EventMetadataAfterHead records a metadata element (meta, base, link,
	// title, style, script, ...) appearing after the head was closed; the
	// parser reroutes it (an HF1 signal, and input to DM1/DM2).
	EventMetadataAfterHead
	// EventMetaInBody records a meta element inserted while in the body
	// (the DM1 signal when it carries http-equiv).
	EventMetaInBody
	// EventBaseInBody records a base element inserted while in the body
	// (the DM2_1 signal).
	EventBaseInBody
	// EventFosterParented records a node that was re-parented in front of
	// the nearest table because it is not allowed inside table content
	// (the HF4 signal). Detail is the tag name or "#text".
	EventFosterParented
	// EventNestedForm records a form start tag that was ignored because a
	// form element is already open (the DE4 signal).
	EventNestedForm
	// EventSecondBody records a second <body> start tag whose attributes
	// were merged into the existing body (the HF3 signal).
	EventSecondBody
	// EventForeignBreakout records an HTML element that forced the parser
	// out of foreign (SVG or MathML) content (the HF5_2/HF5_3 signal).
	// Namespace is the namespace that was abandoned.
	EventForeignBreakout
	// EventForeignElementInHTML records an element that exists only in the
	// SVG or MathML vocabulary appearing while the parser was in the HTML
	// namespace, i.e. a detached fragment of foreign markup (the HF5_1
	// signal). Namespace is the vocabulary the tag belongs to.
	EventForeignElementInHTML
	// EventAutoClosedAtEOF records an element that was still open when the
	// input ended (the DE1/DE2 signal for textarea/select/option).
	// Allowed marks tags the spec permits to remain open without error.
	EventAutoClosedAtEOF
	// EventAdoptionAgency records a run of the adoption agency algorithm
	// for misnested formatting elements.
	EventAdoptionAgency
	// EventIgnoredToken records a token dropped entirely by the tree
	// builder (e.g. stray </div> with nothing to close).
	EventIgnoredToken
)

func (k EventKind) String() string {
	switch k {
	case EventImpliedHead:
		return "implied-head"
	case EventImpliedBody:
		return "implied-body"
	case EventHeadBroken:
		return "head-broken"
	case EventMetadataAfterHead:
		return "metadata-after-head"
	case EventMetaInBody:
		return "meta-in-body"
	case EventBaseInBody:
		return "base-in-body"
	case EventFosterParented:
		return "foster-parented"
	case EventNestedForm:
		return "nested-form"
	case EventSecondBody:
		return "second-body"
	case EventForeignBreakout:
		return "foreign-breakout"
	case EventForeignElementInHTML:
		return "foreign-element-in-html"
	case EventAutoClosedAtEOF:
		return "auto-closed-at-eof"
	case EventAdoptionAgency:
		return "adoption-agency"
	case EventIgnoredToken:
		return "ignored-token"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// TreeEvent is one corrective action taken during tree construction.
type TreeEvent struct {
	Kind      EventKind
	Detail    string    // tag name or other evidence
	Namespace Namespace // for the foreign-content events
	Allowed   bool      // for EventAutoClosedAtEOF: spec permits it silently
	Pos       int       // byte offset in the preprocessed input
	// Attr carries the token's attributes for the metadata events
	// (meta-in-body, base-in-body, metadata-after-head), so rules can
	// inspect http-equiv and friends without re-locating the node.
	Attr []Attribute
}

func (e TreeEvent) String() string {
	if e.Detail != "" {
		return fmt.Sprintf("@%d: %s (%s)", e.Pos, e.Kind, e.Detail)
	}
	return fmt.Sprintf("@%d: %s", e.Pos, e.Kind)
}

// Package htmlparse implements the HTML parsing process of the WHATWG HTML
// Living Standard (section 13.2) from scratch: byte stream decoding, input
// stream preprocessing, the tokenizer state machine, and the tree
// construction stage, including foster parenting, the adoption agency
// algorithm, and SVG/MathML foreign content.
//
// Unlike a rendering-oriented parser, this one is built for *measurement*:
// it surfaces every specification-named parse error (ParseError) and every
// corrective action of the error-tolerant tree builder (TreeEvent), which
// is exactly the signal the violation rules in internal/core consume. This
// mirrors the instrumented parsing approach of Hantke & Stock, "HTML
// Violations and Where to Find Them" (IMC '22).
package htmlparse

import "sort"

// Options configures the pooled parse entry points.
type Options struct {
	// Deprecated: read nowhere, since a recording parse always records
	// and ParseScoped hands every tag to its observer. Kept only for
	// perfbench until its next change.
	RecordTokens bool
	// MaxTreeDepth, when positive, aborts the parse with
	// ErrTreeDepthExceeded once the open-element stack exceeds it.
	// Online serving sets it so adversarial deeply-nested documents
	// fail fast instead of growing per-request state with the input;
	// batch measurement leaves it zero (unlimited). Only honoured by
	// the context-aware entry points (ParseReuseContext, ParseScoped).
	MaxTreeDepth int
}

// Observer receives everything one parse reports. The preprocessor's
// errors come first; then every start and end tag, parse error and
// tree-construction event as the tokenizer or tree builder emits it. Tag
// is called before tree construction acts on the tag, so it sees the
// tokenizer's attribute names, and tags the tree builder later drops (a
// nested form) alike. The tokenizer's errors arrive in input order, but
// a tree-construction error can follow one at a later offset; a
// recording parse's Result.Errors is the same list stable-sorted by
// offset. The token, its attribute array and the event are valid only
// during the call and must not be modified; every Pos is a byte offset
// into Result.Input. An observer that panics aborts the parse, and the
// pooled parser it ran in is discarded, never recycled.
type Observer interface {
	Tag(*Token)
	Error(ParseError)
	Event(*TreeEvent)
}

// recorder is the observer of the recording entry points: it keeps every
// tag, error and event of the parse.
type recorder struct {
	tokens []Token
	errors []ParseError
	events []TreeEvent
}

func (r *recorder) Tag(t *Token)       { r.tokens = append(r.tokens, *t) }
func (r *recorder) Error(e ParseError) { r.errors = append(r.errors, e) }
func (r *recorder) Event(e *TreeEvent) { r.events = append(r.events, *e) }

// keep moves what r recorded into res, the errors stable-sorted by
// offset.
func (r *recorder) keep(res *Result) {
	sort.SliceStable(r.errors, func(i, j int) bool { return r.errors[i].Pos < r.errors[j].Pos })
	res.Tokens, res.Errors, res.Events = r.tokens, r.errors, r.events
}

// discard is the observer of a parse whose caller passed none.
type discard struct{}

func (discard) Tag(*Token)       {}
func (discard) Error(ParseError) {}
func (discard) Event(*TreeEvent) {}

// Result is the output of one parse: the DOM and its input, and for a
// recording parse the parse errors of all stages sorted by offset, the
// tree builder's corrective events and the tag token trace. A
// ParseScoped Result records none of these: only its observer saw them.
type Result struct {
	Doc    *Node
	Errors []ParseError
	Events []TreeEvent
	Tokens []Token
	// Input is the preprocessed input. Every Pos in the Result is a byte
	// offset into it, and ResolvePositions turns those offsets into lines
	// and columns. Under ParseScoped it is valid only inside the
	// callback, like Doc.
	Input []byte
	// Mode is the document's quirks mode (no-quirks / limited-quirks /
	// quirks).
	Mode QuirksMode
}

// Parse parses a text/html document with default options. It returns
// ErrNotUTF8 for streams that do not decode as UTF-8 (which the
// measurement pipeline filters out, per the paper's methodology); any
// other malformed input parses successfully with errors recorded in the
// Result — error tolerance by design.
func Parse(b []byte) (*Result, error) {
	return ParseFragment(b, "")
}

// ParseFragment parses input with the HTML fragment parsing algorithm
// (innerHTML semantics) in the given context element. This is what DOM
// sinks like innerHTML and what sanitizers operate on — the second parse
// in a mutation XSS chain. The returned Doc is the fragment's root whose
// children are the parsed nodes. An empty context parses a document, as
// Parse does.
func ParseFragment(b []byte, context string) (*Result, error) {
	pre, err := Preprocess(b)
	if err != nil {
		return nil, err
	}
	return new(Parser).record(nil, pre, Options{}, context)
}

// setupFragment arranges the tree builder for the fragment parsing
// algorithm: a context element standing in as the adjusted current node,
// an implied html root, and the context-appropriate insertion mode and
// tokenizer content model.
func (tb *treeBuilder) setupFragment(context string) (root *Node) {
	ctx := tb.newNode()
	*ctx = Node{Type: ElementNode, Data: context, Namespace: NamespaceHTML, class: elementClasses[context]}
	tb.fragment = ctx
	root = tb.newNode()
	*root = Node{Type: ElementNode, Data: "html", Namespace: NamespaceHTML, Implied: true, class: elementClasses["html"]}
	tb.doc.AppendChild(root)
	tb.push(root)
	tb.resetModeForFragment(context)
	if context == "form" {
		tb.form = ctx
	}
	tb.z.StartRawText(context)
	return root
}

// resetModeForFragment implements the fragment case of "reset the
// insertion mode appropriately", with the context element in the "last
// node" role.
func (tb *treeBuilder) resetModeForFragment(context string) {
	switch context {
	case "select":
		tb.mode = modeInSelect
	case "tr":
		tb.mode = modeInRow
	case "tbody", "thead", "tfoot":
		tb.mode = modeInTableBody
	case "caption":
		tb.mode = modeInCaption
	case "colgroup":
		tb.mode = modeInColumnGroup
	case "table":
		tb.mode = modeInTable
	case "frameset":
		tb.mode = modeInFrameset
	case "html":
		tb.mode = modeBeforeHead
	default:
		tb.mode = modeInBody
	}
}

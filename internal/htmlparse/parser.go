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

// Options configures Parse.
type Options struct {
	// RecordTokens captures the tag tokens the tokenizer emitted (character
	// tokens are omitted) in Result.Tokens. Only callers that check the
	// Result afterwards with core.Checker.CheckParsed need it: the checker
	// replays the trace through its token hooks there. Checking during
	// the parse goes through OnTag instead and records nothing.
	RecordTokens bool
	// OnTag, when set, is called with every start and end tag the tree
	// builder takes from the tokenizer — exactly the tags RecordTokens
	// records, at the same point: before tree construction acts on the
	// tag, so the hook sees the tokenizer's attribute names and tags the
	// tree builder later drops (a nested form) alike. The token and its
	// attribute array are only valid for the duration of the call and
	// must not be modified. A hook that panics aborts the parse; the
	// pooled parser it ran in is discarded, never recycled.
	OnTag func(*Token)
	// MaxTreeDepth, when positive, aborts the parse with
	// ErrTreeDepthExceeded once the open-element stack exceeds it.
	// Online serving sets it so adversarial deeply-nested documents
	// fail fast instead of growing per-request state with the input;
	// batch measurement leaves it zero (unlimited). Only honoured by
	// the context-aware entry points (ParseReuseContext).
	MaxTreeDepth int
}

// Result is the complete output of one parse: the DOM, the merged parse
// errors from all stages, the tree builder's corrective events, and
// (optionally) the tag token trace.
type Result struct {
	Doc    *Node
	Errors []ParseError
	Events []TreeEvent
	Tokens []Token
	// Quirks reports full quirks mode; Mode carries the three-way
	// classification (no-quirks / limited-quirks / quirks).
	Quirks bool
	Mode   QuirksMode
}

// HasError reports whether any recorded parse error carries the given code.
func (r *Result) HasError(code ErrorCode) bool {
	for i := range r.Errors {
		if r.Errors[i].Code == code {
			return true
		}
	}
	return false
}

// ErrorsByCode returns all parse errors with the given code.
func (r *Result) ErrorsByCode(code ErrorCode) []ParseError {
	var out []ParseError
	for i := range r.Errors {
		if r.Errors[i].Code == code {
			out = append(out, r.Errors[i])
		}
	}
	return out
}

// EventsByKind returns all tree events of the given kind.
func (r *Result) EventsByKind(kind EventKind) []TreeEvent {
	var out []TreeEvent
	for i := range r.Events {
		if r.Events[i].Kind == kind {
			out = append(out, r.Events[i])
		}
	}
	return out
}

// Parse parses a text/html document with default options. It returns
// ErrNotUTF8 for streams that do not decode as UTF-8 (which the
// measurement pipeline filters out, per the paper's methodology); any
// other malformed input parses successfully with errors recorded in the
// Result — error tolerance by design.
func Parse(b []byte) (*Result, error) {
	return ParseWithOptions(b, Options{RecordTokens: true})
}

// ParseWithOptions is Parse with explicit options.
func ParseWithOptions(b []byte, opts Options) (*Result, error) {
	pre, err := Preprocess(b)
	if err != nil {
		return nil, err
	}
	z := NewTokenizer(pre.Input)
	tb := newTreeBuilder(z)
	tb.recordTokens = opts.RecordTokens
	tb.onTag = opts.OnTag
	tb.run()
	return assemble(pre, z, tb, tb.doc), nil
}

// ParseFragment parses input with the HTML fragment parsing algorithm
// (innerHTML semantics) in the given context element. This is what DOM
// sinks like innerHTML and what sanitizers operate on — the second parse
// in a mutation XSS chain. The returned Doc is the fragment's root whose
// children are the parsed nodes.
func ParseFragment(b []byte, context string) (*Result, error) {
	pre, err := Preprocess(b)
	if err != nil {
		return nil, err
	}
	z := NewTokenizer(pre.Input)
	tb := newTreeBuilder(z)
	tb.recordTokens = true
	root := tb.setupFragment(context)
	tb.run()
	res := assemble(pre, z, tb, root)
	return res, nil
}

// setupFragment arranges the tree builder for the fragment parsing
// algorithm: a context element standing in as the adjusted current node,
// an implied html root, and the context-appropriate insertion mode and
// tokenizer content model.
func (tb *treeBuilder) setupFragment(context string) (root *Node) {
	ctx := tb.newNode()
	*ctx = Node{Type: ElementNode, Data: context, Namespace: NamespaceHTML}
	tb.fragment = ctx
	root = tb.newNode()
	*root = Node{Type: ElementNode, Data: "html", Namespace: NamespaceHTML, Implied: true}
	tb.doc.AppendChild(root)
	tb.push(root)
	tb.resetModeForFragment(context)
	if context == "form" {
		tb.form = ctx
	}
	tb.z.StartRawText(context)
	return root
}

func assemble(pre *Preprocessed, z *Tokenizer, tb *treeBuilder, doc *Node) *Result {
	res := &Result{Doc: doc, Events: tb.events, Tokens: tb.tokens, Quirks: tb.quirks, Mode: tb.quirksMode}
	res.Errors = append(res.Errors, pre.Errors...)
	res.Errors = append(res.Errors, z.Errors()...)
	res.Errors = append(res.Errors, tb.errors...)
	sort.SliceStable(res.Errors, func(i, j int) bool {
		return res.Errors[i].Pos.Offset < res.Errors[j].Pos.Offset
	})
	if m := metrics.Load(); m != nil {
		m.arenaSlabs.Add(uint64(tb.arena.slabs))
		m.arenaNodes.Add(uint64(tb.arena.nodes))
	}
	return res
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

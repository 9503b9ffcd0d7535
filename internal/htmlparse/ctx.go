package htmlparse

import (
	"context"
	"errors"
)

// Context-aware parsing: the entry point an online service uses so a
// per-request deadline propagates into the parser itself. A malicious
// or pathological document can cost arbitrary tree-construction work
// relative to its byte size (deep nesting, adoption-agency churn), so
// bounding the request body alone is not enough — the parse loop has
// to observe cancellation and the open-element depth cap from inside.

// ErrTreeDepthExceeded is returned by the context-aware parse entry
// points when the document nests deeper than Options.MaxTreeDepth. It
// is a property of the input, not of the service's health: handlers
// should map it to a 4xx, never retry it.
var ErrTreeDepthExceeded = errors.New("htmlparse: open-element depth exceeds the configured cap")

// ParseReuseContext is ParseReuse bounded by ctx and opts: the tree
// builder polls ctx between token batches and aborts with ctx.Err()
// when the deadline passes or the caller disconnects, and enforces
// Options.MaxTreeDepth. On abort the pooled parser's scratch state is
// recycled normally — an aborted parse never poisons the pool. A nil ctx
// is never canceled and caps no depth, as in ParseReuse.
func ParseReuseContext(ctx context.Context, b []byte, opts Options) (*Result, error) {
	pre, err := Preprocess(b)
	if err != nil {
		return nil, err
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	p := getParser()
	// An aborted parse's partial tree is abandoned with the arena; only
	// scratch returns to the pool, exactly as after a completed parse.
	res, err := p.record(ctx, pre, opts, "")
	p.release()
	return res, err
}

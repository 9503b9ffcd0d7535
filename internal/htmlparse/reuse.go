package htmlparse

import (
	"context"
	"sync"
)

// Parser owns the scratch state of one tokenizer + tree builder pair so a
// long-running workload (the crawler's page loop, the conformance runner)
// can parse documents back to back without re-allocating its buffers.
//
// Scratch is recycled between parses: the token queue, text and
// attribute accumulators, open-element stack and active-formatting list.
// Tags, errors and events go to the parse's observer, not into the
// parser. Everything that escapes into a Result — the preprocessed input
// buffer, the merged-text buffers, the node arena slabs, the recorded
// errors, events and tokens — is left to the document, so a Result stays
// valid after the parser moves on (there is no aliasing between two
// parses' outputs). The one exception is ParseScoped, whose Result is
// dead once its callback returns: that parse clears its node slabs and
// keeps up to keptSlabs of them, and any later parse in the same Parser
// draws on those before allocating.
//
// An idle Parser pins nothing of the last document: release scrubs every
// pointer into it, including stale slots past the length of the scratch
// slices.
type Parser struct {
	z  Tokenizer
	tb treeBuilder

	// fresh distinguishes a pool miss (New just ran) from a reuse at Get
	// time, feeding the htmlparse_pool_* metrics.
	fresh bool
}

var parserPool = sync.Pool{New: func() any { return &Parser{fresh: true} }}

func getParser() *Parser {
	p := parserPool.Get().(*Parser)
	if m := metrics.Load(); m != nil {
		if p.fresh {
			m.poolMisses.Inc()
		} else {
			m.poolHits.Inc()
		}
	}
	p.fresh = false
	return p
}

// reset arms a scrubbed parser (a fresh one, or one that went through
// release) over a freshly preprocessed input buffer.
func (p *Parser) reset(input []byte, obs Observer) {
	z := &p.z
	z.input = input
	z.state = stateData
	tb := &p.tb
	tb.z = z
	tb.obs = obs
	tb.mode = modeInitial
	tb.framesetOK = true
	tb.scriptingEnabled = true
	tb.doc = tb.newNode()
	tb.doc.Type = DocumentNode
	// The tokenizer's hooks close over p's own tree builder: made once.
	if z.AllowCDATA == nil {
		z.AllowCDATA = func() bool {
			n := tb.currentNode()
			return n != nil && n.Namespace != NamespaceHTML
		}
		z.onError = func(e ParseError) { tb.obs.Error(e) }
	}
}

// scrub drops every reference to the last document: per-document state
// is zeroed, and the scratch slices keep their capacity with every slot
// up to it cleared. The node arena forgets the document's slabs and
// keeps only the cleared ones.
func (p *Parser) scrub() {
	z := &p.z
	// The accumulators empty themselves and keep their buffers.
	z.text.reset()
	z.data.reset()
	z.name.reset()
	z.value.reset()
	*z = Tokenizer{
		AllowCDATA: z.AllowCDATA,
		onError:    z.onError,
		queue:      clearCap(z.queue),
		text:       z.text,
		data:       z.data,
		name:       z.name,
		value:      z.value,
	}
	tb := &p.tb
	tb.arena.forget()
	*tb = treeBuilder{
		arena:            tb.arena,
		stack:            clearCap(tb.stack),
		afe:              clearCap(tb.afe),
		pendingTableText: clearCap(tb.pendingTableText),
	}
}

// clearCap zeroes s up to its capacity and returns it emptied.
func clearCap[S ~[]E, E any](s S) S {
	clear(s[:cap(s)])
	return s[:0]
}

// release scrubs p and returns it to the pool. It is reached only by a
// parse that returned normally: a panic in the tree builder, an observer
// or a ParseScoped callback skips it, so a half-run parser is dropped
// rather than recycled.
func (p *Parser) release() {
	p.scrub()
	parserPool.Put(p)
}

// parse runs one document through p, or with a non-empty fragment one
// fragment in that context element, handing obs (nil for none) what it
// reports. A non-nil ctx that can be canceled is polled between
// token batches, and with it Options.MaxTreeDepth is enforced; on either
// abort there is no Result.
func (p *Parser) parse(ctx context.Context, pre *Preprocessed, opts Options, obs Observer, fragment string) (*Result, error) {
	if obs == nil {
		obs = discard{}
	}
	p.reset(pre.Input, obs)
	if ctx != nil {
		if ctx.Done() != nil {
			p.tb.cancel = ctx.Err
		}
		p.tb.maxDepth = opts.MaxTreeDepth
	}
	for _, e := range pre.Errors {
		obs.Error(e)
	}
	root := p.tb.doc
	if fragment != "" {
		root = p.tb.setupFragment(fragment)
	}
	p.tb.run()
	if err := p.tb.abort; err != nil {
		return nil, err
	}
	if m := metrics.Load(); m != nil {
		m.arenaSlabs.Add(uint64(p.tb.arena.slabs))
		m.arenaNodes.Add(uint64(p.tb.arena.nodes))
	}
	return &Result{Doc: root, Input: pre.Input, Quirks: p.tb.quirks, Mode: p.tb.quirksMode}, nil
}

// record is parse with a recorder as the observer: the one body of every
// recording entry point.
func (p *Parser) record(ctx context.Context, pre *Preprocessed, opts Options, fragment string) (*Result, error) {
	var rec recorder
	res, err := p.parse(ctx, pre, opts, &rec, fragment)
	if err != nil {
		return nil, err
	}
	rec.keep(res)
	return res, nil
}

// ParseReuse is Parse backed by a pooled parser instance: same semantics
// and output, amortized scratch allocations. Use it in loops that parse
// many documents; the Result remains valid after the parser is recycled.
func ParseReuse(b []byte) (*Result, error) {
	return ParseReuseContext(nil, b, Options{})
}

// ParseScoped parses b for a caller that keeps nothing of the tree. obs,
// which may be nil, sees every tag, error and event as the parse reaches
// it; f is called with the Result, which records none of them and is
// valid only inside f. When f returns, the parser clears the tree's nodes
// and keeps their slabs for its next parse, so f must not retain Doc or
// any Node, nor let one escape, and resolves any positions it prints
// against Input inside f. f is not called when the parse fails or
// aborts. A panic in f or in obs propagates, and the parser is dropped,
// not recycled. ctx bounds the parse as in ParseReuseContext; a nil ctx
// is never canceled and caps no depth.
func ParseScoped(ctx context.Context, b []byte, opts Options, obs Observer, f func(*Result)) error {
	pre, err := Preprocess(b)
	if err != nil {
		return err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	p := getParser()
	res, err := p.parse(ctx, pre, opts, obs, "")
	if err == nil {
		f(res)
	}
	p.tb.arena.recycle()
	p.release()
	return err
}

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
// attribute accumulators, open-element stack, active-formatting list and
// error slices. Everything that escapes into a Result — the preprocessed
// input buffer, the node arena slabs, the events and tokens slices — is
// left to the document, so a Result stays valid after the parser moves on
// (there is no aliasing between two parses' outputs). The one exception
// is ParseScoped, whose Result is dead once its callback returns: that
// parse clears its node slabs and keeps up to keptSlabs of them, and any
// later parse in the same Parser draws on those before allocating.
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
func (p *Parser) reset(input []byte, opts Options) {
	z := &p.z
	z.input = input
	z.line, z.col = 1, 1
	z.state = stateData
	tb := &p.tb
	tb.z = z
	tb.mode = modeInitial
	tb.framesetOK = true
	tb.scriptingEnabled = true
	tb.recordTokens = opts.RecordTokens
	tb.onTag = opts.OnTag
	tb.doc = tb.newNode()
	tb.doc.Type = DocumentNode
	if z.AllowCDATA == nil {
		z.AllowCDATA = func() bool {
			n := tb.currentNode()
			return n != nil && n.Namespace != NamespaceHTML
		}
	}
}

// scrub drops every reference to the last document: per-document state
// is zeroed, and the scratch slices keep their capacity with every slot
// up to it cleared. The node arena forgets the document's slabs and
// keeps only the cleared ones.
func (p *Parser) scrub() {
	z := &p.z
	*z = Tokenizer{
		AllowCDATA: z.AllowCDATA, // closes over p's own tree builder only
		queue:      clearCap(z.queue),
		textBuf:    z.textBuf[:0],
		attrName:   z.attrName[:0],
		attrValue:  z.attrValue[:0],
		attrRaw:    z.attrRaw[:0],
		tmpBuf:     z.tmpBuf[:0],
		errors:     clearCap(z.errors),
	}
	tb := &p.tb
	tb.arena.forget()
	*tb = treeBuilder{
		arena:            tb.arena,
		stack:            clearCap(tb.stack),
		afe:              clearCap(tb.afe),
		pendingTableText: clearCap(tb.pendingTableText),
		errors:           clearCap(tb.errors),
	}
}

// clearCap zeroes s up to its capacity and returns it emptied.
func clearCap[S ~[]E, E any](s S) S {
	clear(s[:cap(s)])
	return s[:0]
}

// release scrubs p and returns it to the pool. It is reached only by a
// parse that returned normally: a panic in the tree builder, an OnTag
// hook or a ParseScoped callback skips it, so a half-run parser is
// dropped rather than recycled.
func (p *Parser) release() {
	p.scrub()
	parserPool.Put(p)
}

// parse runs one document through p. A non-nil ctx that can be canceled
// is polled between token batches, and with it Options.MaxTreeDepth is
// enforced; on either abort there is no Result.
func (p *Parser) parse(ctx context.Context, pre *Preprocessed, opts Options) (*Result, error) {
	p.reset(pre.Input, opts)
	if ctx != nil {
		if ctx.Done() != nil {
			p.tb.cancel = ctx.Err
		}
		p.tb.maxDepth = opts.MaxTreeDepth
	}
	p.tb.run()
	if err := p.tb.abort; err != nil {
		return nil, err
	}
	return assemble(pre, &p.z, &p.tb, p.tb.doc), nil
}

// ParseReuse is Parse backed by a pooled parser instance: same semantics
// and output, amortized scratch allocations. Use it in loops that parse
// many documents; the Result remains valid after the parser is recycled.
func ParseReuse(b []byte) (*Result, error) {
	pre, err := Preprocess(b)
	if err != nil {
		return nil, err
	}
	p := getParser()
	res, _ := p.parse(nil, pre, Options{RecordTokens: true})
	p.release()
	return res, nil
}

// ParseScoped is ParseReuseContext for a caller that keeps nothing of the
// parse: it calls f with the Result, which is valid only inside f. When f
// returns, the parser clears the tree's nodes and keeps their slabs for
// its next parse, so f must not retain Doc or any Node, nor let one
// escape. Everything else in the Result — errors, events, tokens and the
// strings they carry — is the caller's to keep. f is not called when the
// parse fails or aborts. A panic in f or in an OnTag hook propagates, and
// the parser is dropped, not recycled. A nil ctx is never canceled and
// caps no depth, as in ParseReuse.
func ParseScoped(ctx context.Context, b []byte, opts Options, f func(*Result)) error {
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
	res, err := p.parse(ctx, pre, opts)
	if err == nil {
		f(res)
	}
	p.tb.arena.recycle()
	p.release()
	return err
}

// ParseFragmentReuse is ParseFragment backed by a pooled parser instance.
func ParseFragmentReuse(b []byte, context string) (*Result, error) {
	pre, err := Preprocess(b)
	if err != nil {
		return nil, err
	}
	p := getParser()
	p.reset(pre.Input, Options{RecordTokens: true})
	root := p.tb.setupFragment(context)
	p.tb.run()
	res := assemble(pre, &p.z, &p.tb, root)
	p.release()
	return res, nil
}

package htmlparse

import "sync"

// Parser owns the scratch state of one tokenizer + tree builder pair so a
// long-running workload (the crawler's page loop, the conformance runner)
// can parse documents back to back without re-allocating its buffers.
//
// Only scratch is recycled between parses: the token queue, text and
// attribute accumulators, open-element stack, active-formatting list and
// error slices. Everything that escapes into a Result — the preprocessed
// input buffer, the node arena slabs, the events and tokens slices — is
// abandoned to the previous document on reset, so Results stay valid after
// the parser moves on (there is no aliasing between two parses' outputs).
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

// reset re-arms the parser over a freshly preprocessed input buffer,
// reusing scratch capacity and dropping per-document state (arena, events,
// tokens) on the floor for the previous Result to keep.
func (p *Parser) reset(input []byte, opts Options) {
	z := &p.z
	*z = Tokenizer{
		input:     input,
		line:      1,
		col:       1,
		state:     stateData,
		queue:     z.queue[:0],
		textBuf:   z.textBuf[:0],
		attrName:  z.attrName[:0],
		attrValue: z.attrValue[:0],
		attrRaw:   z.attrRaw[:0],
		tmpBuf:    z.tmpBuf[:0],
		errors:    z.errors[:0],
	}
	tb := &p.tb
	*tb = treeBuilder{
		z:                z,
		mode:             modeInitial,
		framesetOK:       true,
		scriptingEnabled: true,
		recordTokens:     opts.RecordTokens,
		onTag:            opts.OnTag,
		stack:            tb.stack[:0],
		afe:              tb.afe[:0],
		pendingTableText: tb.pendingTableText[:0],
		errors:           tb.errors[:0],
	}
	tb.doc = tb.newNode()
	tb.doc.Type = DocumentNode
	z.AllowCDATA = func() bool {
		n := tb.currentNode()
		return n != nil && n.Namespace != NamespaceHTML
	}
}

// ParseReuse is Parse backed by a pooled parser instance: same semantics
// and output, amortized scratch allocations. Use it in loops that parse
// many documents; the Result remains valid after the parser is recycled.
func ParseReuse(b []byte) (*Result, error) {
	return ParseReuseWithOptions(b, Options{RecordTokens: true})
}

// ParseReuseWithOptions is ParseReuse with explicit options.
func ParseReuseWithOptions(b []byte, opts Options) (*Result, error) {
	pre, err := Preprocess(b)
	if err != nil {
		return nil, err
	}
	p := getParser()
	p.reset(pre.Input, opts)
	p.tb.run()
	res := assemble(pre, &p.z, &p.tb, p.tb.doc)
	p.release()
	return res, nil
}

// release returns p to the pool. It is reached only by a parse that
// returned normally: a panic in the tree builder or an OnTag hook skips
// it, so a half-run parser is dropped rather than recycled. The hook and
// its last token are cleared so an idle pooled parser keeps neither the
// caller's closure nor the page it was parsing alive.
func (p *Parser) release() {
	p.tb.onTag = nil
	p.tb.hookTok = Token{}
	parserPool.Put(p)
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

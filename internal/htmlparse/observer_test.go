package htmlparse

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// observerInputs are the reuse inputs, the foreign-content and nested-form
// constructs where the tree builder renames or drops tags, and the bench
// pages.
func observerInputs(t *testing.T) []string {
	t.Helper()
	inputs := append([]string(nil), reuseInputs...)
	inputs = append(inputs,
		`<math definitionurl="a<script"></math>`,
		`<svg><path attributename="x<script"/></svg>`,
		`<svg viewbox="0 0 1 1"><foreignObject><math definitionurl=u><mi>x</mi></math></foreignObject></svg>`,
		`<form><form action=/x></form><table><tr><td>a</table>`,
	)
	for _, name := range benchPages {
		data, err := os.ReadFile(filepath.Join("testdata", "bench", name+".html"))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, string(data))
	}
	return inputs
}

// tagSpy is an observer that records the parse, as the recording entry
// points do, and remembers the address of the last tag it was handed.
// That address lies in the parser's token queue, so it identifies the
// parser a parse ran in. When panicAt is positive, the spy panics on that
// tag.
type tagSpy struct {
	recorder
	last       *Token
	n, panicAt int
}

func (s *tagSpy) Tag(t *Token) {
	s.last = t
	if s.n++; s.n == s.panicAt {
		panic("observer exploded")
	}
	s.recorder.Tag(t)
}

// TestForeignAdjustmentKeepsRecordedNames: the SVG and MathML attribute
// case adjustments rename the element's attributes, never the recorded
// token's, which keeps the name the tokenizer emitted.
func TestForeignAdjustmentKeepsRecordedNames(t *testing.T) {
	for _, c := range []struct{ in, tag, raw, adjusted string }{
		{`<math definitionurl="a<script"></math>`, "math", "definitionurl", "definitionURL"},
		{`<svg><path attributename="x<script"/></svg>`, "path", "attributename", "attributeName"},
		{`<svg viewbox="0 0 1 1"></svg>`, "svg", "viewbox", "viewBox"},
		{`<math><mi>x</mi><mo definitionurl=u></mo></math>`, "mo", "definitionurl", "definitionURL"},
	} {
		res, err := Parse([]byte(c.in))
		if err != nil {
			t.Fatal(err)
		}
		var tok *Token
		for i := range res.Tokens {
			if res.Tokens[i].Data == c.tag && res.Tokens[i].Type == StartTagToken {
				tok = &res.Tokens[i]
			}
		}
		if tok == nil || len(tok.Attr) != 1 || tok.Attr[0].Name != c.raw {
			t.Fatalf("%s: recorded token %v, want attribute %s", c.in, tok, c.raw)
		}
		el := res.Doc.Find(func(n *Node) bool { return n.Type == ElementNode && n.Data == c.tag })
		if el == nil || len(el.Attr) != 1 || el.Attr[0].Name != c.adjusted {
			t.Fatalf("%s: element %v, want attribute %s", c.in, el, c.adjusted)
		}
	}
}

// TestObserverPanicDropsParser: an observer that panics mid-parse
// propagates the panic, and the half-run parser never returns to the
// pool.
func TestObserverPanicDropsParser(t *testing.T) {
	doc := []byte("<div><p>a</p><p>b</p><p>c</p></div>")
	spy := &tagSpy{panicAt: 3}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("observer panic did not propagate")
			}
		}()
		_ = ParseScoped(context.Background(), doc, Options{}, spy, func(*Result) {})
	}()
	poisoned := spy.last
	want, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		spy := &tagSpy{}
		err := ParseScoped(context.Background(), doc, Options{}, spy, func(res *Result) {
			spy.keep(res)
			if got := resultFingerprint(t, res); got != resultFingerprint(t, want) {
				t.Fatalf("parse %d after an observer panic differs:\n%s", i, got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if spy.last == poisoned {
			t.Fatalf("parse %d ran in the parser whose observer panicked", i)
		}
	}
}

package htmlparse

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// tagTrace renders tag tokens for comparison, attribute names included:
// the hook must see the tokenizer's names, as the recorded trace does.
func tagTrace(t *Token) string {
	s := fmt.Sprintf("%v %s %v @%d:", t.Type, t.Data, t.SelfClosing, t.Pos.Offset)
	for _, a := range t.Attr {
		s += fmt.Sprintf(" %s=%q/%q dup=%v", a.Name, a.Value, a.RawValue, a.Duplicate)
	}
	return s
}

func onTagInputs(t *testing.T) []string {
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

// TestOnTagSeesRecordedTags: the hook is called on exactly the tags
// RecordTokens records, in the same order and with the same content, on
// every entry point that takes Options, and its presence does not change
// the parse. Each entry point hands its Result to a callback, which is
// where ParseScoped's Result is valid.
func TestOnTagSeesRecordedTags(t *testing.T) {
	returned := func(parse func([]byte, Options) (*Result, error)) func([]byte, Options, func(*Result)) error {
		return func(b []byte, o Options, f func(*Result)) error {
			res, err := parse(b, o)
			if err == nil {
				f(res)
			}
			return err
		}
	}
	entries := map[string]func([]byte, Options, func(*Result)) error{
		"ParseReuseContext": returned(func(b []byte, o Options) (*Result, error) {
			return ParseReuseContext(context.Background(), b, o)
		}),
		"ParseScoped": func(b []byte, o Options, f func(*Result)) error {
			return ParseScoped(context.Background(), b, o, f)
		},
		"ParseScoped(nil ctx)": func(b []byte, o Options, f func(*Result)) error {
			return ParseScoped(nil, b, o, f)
		},
	}
	for name, parse := range entries {
		for i, in := range onTagInputs(t) {
			plain, err := Parse([]byte(in))
			if err != nil {
				t.Fatal(err)
			}
			var seen []string
			err = parse([]byte(in), Options{RecordTokens: true, OnTag: func(tok *Token) {
				seen = append(seen, tagTrace(tok))
			}}, func(res *Result) {
				if len(seen) != len(res.Tokens) {
					t.Fatalf("%s input %d: hook saw %d tags, trace has %d", name, i, len(seen), len(res.Tokens))
				}
				for k := range seen {
					if want := tagTrace(&res.Tokens[k]); seen[k] != want {
						t.Fatalf("%s input %d tag %d:\n hook  %s\n trace %s", name, i, k, seen[k], want)
					}
				}
				if got, want := resultFingerprint(t, res), resultFingerprint(t, plain); got != want {
					t.Fatalf("%s input %d: hooked parse differs:\n%s\nvs\n%s", name, i, got, want)
				}
			})
			if err != nil {
				t.Fatalf("%s input %d: %v", name, i, err)
			}
		}
	}
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

// TestOnTagPanicDropsParser: a hook that panics mid-parse propagates the
// panic, and the half-run parser never returns to the pool. The hook's
// token lives inside the pooled Parser, so its address identifies the
// parser a later parse runs in.
func TestOnTagPanicDropsParser(t *testing.T) {
	doc := []byte("<div><p>a</p><p>b</p><p>c</p></div>")
	var poisoned *Token
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("hook panic did not propagate")
			}
		}()
		n := 0
		_, _ = ParseReuseContext(context.Background(), doc, Options{OnTag: func(tok *Token) {
			if n++; n == 3 {
				poisoned = tok
				panic("hook exploded")
			}
		}})
	}()
	want, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		var used *Token
		res, err := ParseReuseContext(context.Background(), doc, Options{RecordTokens: true, OnTag: func(tok *Token) { used = tok }})
		if err != nil {
			t.Fatal(err)
		}
		if used == poisoned {
			t.Fatalf("parse %d ran in the parser whose hook panicked", i)
		}
		if got := resultFingerprint(t, res); got != resultFingerprint(t, want) {
			t.Fatalf("parse %d after a hook panic differs:\n%s", i, got)
		}
	}
}

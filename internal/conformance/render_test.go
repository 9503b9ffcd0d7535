package conformance

import (
	"path/filepath"
	"strings"
	"testing"

	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// referenceRender is the serializer htmlparse.AppendRender replaced,
// kept as the reference it must match byte for byte: a strings.Builder
// walk that escapes each text node and attribute value through a
// strings.Replacer.
func referenceRender(n *htmlparse.Node) string {
	var b strings.Builder
	refRender(&b, n)
	return b.String()
}

var (
	refRawText = map[string]bool{
		"style": true, "script": true, "xmp": true, "iframe": true, "noembed": true,
		"noframes": true, "plaintext": true, "noscript": true,
	}
	refVoid = map[string]bool{
		"area": true, "base": true, "br": true, "col": true, "embed": true, "hr": true,
		"img": true, "input": true, "link": true, "meta": true, "param": true,
		"source": true, "track": true, "wbr": true,
	}
	refTextEscaper = strings.NewReplacer(
		"&", "&amp;",
		" ", "&nbsp;",
		"<", "&lt;",
		">", "&gt;",
		"\r", "&#13;",
	)
	refAttrEscaper = strings.NewReplacer(
		"&", "&amp;",
		" ", "&nbsp;",
		`"`, "&quot;",
		"\r", "&#13;",
	)
)

func refRender(b *strings.Builder, n *htmlparse.Node) {
	switch n.Type {
	case htmlparse.DocumentNode:
		refRenderChildren(b, n)
	case htmlparse.ElementNode:
		refRenderElement(b, n)
	case htmlparse.TextNode:
		if p := n.Parent; p != nil && p.Type == htmlparse.ElementNode && p.Namespace == htmlparse.NamespaceHTML && refRawText[p.Data] {
			b.WriteString(n.Data)
			return
		}
		b.WriteString(refTextEscaper.Replace(n.Data))
	case htmlparse.CommentNode:
		b.WriteString("<!--")
		b.WriteString(n.Data)
		b.WriteString("-->")
	case htmlparse.DoctypeNode:
		b.WriteString("<!DOCTYPE ")
		b.WriteString(n.Data)
		b.WriteString(">")
	}
}

func refRenderElement(b *strings.Builder, n *htmlparse.Node) {
	b.WriteString("<")
	b.WriteString(n.Data)
	for _, a := range n.Attr {
		if a.Duplicate {
			continue
		}
		b.WriteString(" ")
		b.WriteString(a.Name)
		b.WriteString(`="`)
		b.WriteString(refAttrEscaper.Replace(a.Value))
		b.WriteString(`"`)
	}
	b.WriteString(">")
	if n.Namespace == htmlparse.NamespaceHTML && refVoid[n.Data] {
		return
	}
	if n.Namespace == htmlparse.NamespaceHTML &&
		(n.Data == "pre" || n.Data == "textarea" || n.Data == "listing") {
		if c := n.FirstChild; c != nil && c.Type == htmlparse.TextNode && strings.HasPrefix(c.Data, "\n") {
			b.WriteString("\n")
		}
	}
	refRenderChildren(b, n)
	b.WriteString("</")
	b.WriteString(n.Data)
	b.WriteString(">")
}

func refRenderChildren(b *strings.Builder, n *htmlparse.Node) {
	for c := n.FirstChild; c != nil; c = c.NextSibling {
		refRender(b, c)
	}
}

// renderAgreement parses input and holds AppendRender, RenderString and
// Render to the reference on the tree. Input outside the UTF-8 domain is
// skipped.
func renderAgreement(t *testing.T, id string, input []byte) {
	t.Helper()
	res, err := htmlparse.Parse(input)
	if err == htmlparse.ErrNotUTF8 {
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	treeAgreement(t, id, res.Doc)
}

// treeAgreement holds every rendering entry point to the reference on
// the tree rooted at n.
func treeAgreement(t *testing.T, id string, n *htmlparse.Node) {
	t.Helper()
	want := referenceRender(n)
	if got := string(htmlparse.AppendRender([]byte("prefix"), n)); got != "prefix"+want {
		t.Fatalf("%s: AppendRender differs from the reference:\n got  %q\n want %q", id, got, "prefix"+want)
	}
	if got := htmlparse.RenderString(n); got != want {
		t.Fatalf("%s: RenderString differs from the reference:\n got  %q\n want %q", id, got, want)
	}
	var b strings.Builder
	if err := htmlparse.Render(&b, n); err != nil || b.String() != want {
		t.Fatalf("%s: Render differs from the reference (err %v):\n got  %q\n want %q", id, err, b.String(), want)
	}
}

// TestAppendRenderMatchesReference renders every conformance corpus
// case, every page of the seed-29 snapshot and every fix corpus input
// and golden output, and holds the serializer to the reference on each.
func TestAppendRenderMatchesReference(t *testing.T) {
	forEachCorpusCase(t, func(id string, input []byte) { renderAgreement(t, id, input) })
	pages := snapshotPages()
	for _, p := range pages {
		renderAgreement(t, p.id, p.body)
	}
	files, err := filepath.Glob(filepath.Join("..", "autofix", "testdata", "*.fix"))
	if err != nil {
		t.Fatal(err)
	}
	fixCases := 0
	for _, path := range files {
		cases, err := autofix.ParseFixFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			renderAgreement(t, cases[i].ID(), []byte(cases[i].Data))
			renderAgreement(t, cases[i].ID()+" output", []byte(cases[i].Output))
			fixCases++
		}
	}
	if len(pages) < 200 || fixCases < 60 {
		t.Fatalf("rendered only %d snapshot pages and %d fix cases", len(pages), fixCases)
	}
}

// FuzzRender holds the serializer to the reference on the parse of
// arbitrary input, and on a hand-built tree that carries the raw input,
// valid UTF-8 or not, as text, attribute value, raw text, comment and
// doctype name.
func FuzzRender(f *testing.F) {
	for _, s := range metamorphicSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte("a b\xc2\xc2\xa0\xa0&<>\"\r"))
	f.Fuzz(func(t *testing.T, data []byte) {
		renderAgreement(t, "input", data)
		s := string(data)
		doc := &htmlparse.Node{Type: htmlparse.DocumentNode}
		doc.AppendChild(&htmlparse.Node{Type: htmlparse.DoctypeNode, Data: s})
		p := &htmlparse.Node{Type: htmlparse.ElementNode, Data: "pre", Namespace: htmlparse.NamespaceHTML,
			Attr: []htmlparse.Attribute{{Name: "title", Value: s}, {Name: "title", Value: "dup", Duplicate: true}}}
		doc.AppendChild(p)
		p.AppendChild(&htmlparse.Node{Type: htmlparse.TextNode, Data: s})
		script := &htmlparse.Node{Type: htmlparse.ElementNode, Data: "script", Namespace: htmlparse.NamespaceHTML}
		doc.AppendChild(script)
		script.AppendChild(&htmlparse.Node{Type: htmlparse.TextNode, Data: s})
		doc.AppendChild(&htmlparse.Node{Type: htmlparse.CommentNode, Data: s})
		treeAgreement(t, "tree", doc)
	})
}

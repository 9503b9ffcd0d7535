package htmlparse

import (
	"strings"
	"testing"
)

// dumpTree renders a DOM in the html5lib-tests dump format, which makes
// tree construction expectations precise and readable:
//
//	| <html>
//	|   <head>
//	|   <body>
//	|     "text"
//
// It is the exported DumpTree (dump.go); the alias keeps the many test
// call sites short.
func dumpTree(n *Node) string { return DumpTree(n) }

// treeCase parses input and compares the dump against want (leading pipe
// format, whitespace-trimmed per line).
func treeCase(t *testing.T, name, input, want string) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		t.Helper()
		res, err := Parse([]byte(input))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		got := strings.TrimSpace(dumpTree(res.Doc))
		want = strings.TrimSpace(normalizeDump(want))
		if got != want {
			t.Fatalf("tree mismatch for %q\n--- got ---\n%s\n--- want ---\n%s", input, got, want)
		}
	})
}

func normalizeDump(s string) string {
	lines := strings.Split(s, "\n")
	var out []string
	for _, l := range lines {
		l = strings.TrimRight(l, " \t")
		if strings.TrimSpace(l) == "" {
			continue
		}
		// allow indented raw strings in tests
		out = append(out, strings.TrimPrefix(l, "\t\t"))
	}
	return strings.Join(out, "\n")
}

func TestTreeSkeletonSynthesis(t *testing.T) {
	treeCase(t, "empty document", "", `
| <html>
|   <head>
|   <body>`)

	treeCase(t, "text only", "hello", `
| <html>
|   <head>
|   <body>
|     "hello"`)

	treeCase(t, "doctype only", "<!DOCTYPE html>", `
| <!DOCTYPE html>
| <html>
|   <head>
|   <body>`)

	treeCase(t, "explicit skeleton", "<!DOCTYPE html><html><head></head><body>x</body></html>", `
| <!DOCTYPE html>
| <html>
|   <head>
|   <body>
|     "x"`)

	treeCase(t, "head content routed", "<title>T</title><p>b", `
| <html>
|   <head>
|     <title>
|       "T"
|   <body>
|     <p>
|       "b"`)

	treeCase(t, "html attrs merged", `<html lang="en"><html class="x">`, `
| <html>
|   class="x"
|   lang="en"
|   <head>
|   <body>`)
}

func TestTreeImpliedEndTags(t *testing.T) {
	treeCase(t, "nested p closes", "<body><p>one<p>two", `
| <html>
|   <head>
|   <body>
|     <p>
|       "one"
|     <p>
|       "two"`)

	treeCase(t, "li siblings", "<ul><li>a<li>b</ul>", `
| <html>
|   <head>
|   <body>
|     <ul>
|       <li>
|         "a"
|       <li>
|         "b"`)

	treeCase(t, "dd dt", "<dl><dt>k<dd>v</dl>", `
| <html>
|   <head>
|   <body>
|     <dl>
|       <dt>
|         "k"
|       <dd>
|         "v"`)

	treeCase(t, "heading closes heading", "<h1>a<h2>b", `
| <html>
|   <head>
|   <body>
|     <h1>
|       "a"
|     <h2>
|       "b"`)

	// A stray </p> before any content is dropped in "before html" mode…
	treeCase(t, "p end before body ignored", "</p>", `
| <html>
|   <head>
|   <body>`)

	// …but inside the body the spec synthesizes an empty p element.
	treeCase(t, "p end without open", "<body></p>", `
| <html>
|   <head>
|   <body>
|     <p>`)
}

func TestTreeTables(t *testing.T) {
	treeCase(t, "implied tbody", "<table><tr><td>c</td></tr></table>", `
| <html>
|   <head>
|   <body>
|     <table>
|       <tbody>
|         <tr>
|           <td>
|             "c"`)

	treeCase(t, "foster parented element", "<table><tr><strong>X</strong></tr></table>", `
| <html>
|   <head>
|   <body>
|     <strong>
|       "X"
|     <table>
|       <tbody>
|         <tr>`)

	treeCase(t, "foster parented text", "<table>oops<tr><td>a</table>", `
| <html>
|   <head>
|   <body>
|     "oops"
|     <table>
|       <tbody>
|         <tr>
|           <td>
|             "a"`)

	treeCase(t, "whitespace stays in table", "<table>  <tr><td>a</table>", `
| <html>
|   <head>
|   <body>
|     <table>
|       "  "
|       <tbody>
|         <tr>
|           <td>
|             "a"`)

	treeCase(t, "caption and colgroup", "<table><caption>c</caption><colgroup><col></colgroup><tr><td>x</table>", `
| <html>
|   <head>
|   <body>
|     <table>
|       <caption>
|         "c"
|       <colgroup>
|         <col>
|       <tbody>
|         <tr>
|           <td>
|             "x"`)

	treeCase(t, "cell closes cell", "<table><tr><td>a<td>b</table>", `
| <html>
|   <head>
|   <body>
|     <table>
|       <tbody>
|         <tr>
|           <td>
|             "a"
|           <td>
|             "b"`)

	treeCase(t, "nested table closes row context", "<table><tr><td><table><tr><td>i</table></table>", `
| <html>
|   <head>
|   <body>
|     <table>
|       <tbody>
|         <tr>
|           <td>
|             <table>
|               <tbody>
|                 <tr>
|                   <td>
|                     "i"`)

	treeCase(t, "hidden input stays in table", `<table><input type="hidden"><tr><td>x</table>`, `
| <html>
|   <head>
|   <body>
|     <table>
|       <input>
|         type="hidden"
|       <tbody>
|         <tr>
|           <td>
|             "x"`)

	treeCase(t, "visible input foster parents", `<table><input type="text"><tr><td>x</table>`, `
| <html>
|   <head>
|   <body>
|     <input>
|       type="text"
|     <table>
|       <tbody>
|         <tr>
|           <td>
|             "x"`)
}

func TestTreeFormattingElements(t *testing.T) {
	treeCase(t, "simple adoption agency", "<b>bold<p>both</b>plain</p>", `
| <html>
|   <head>
|   <body>
|     <b>
|       "bold"
|     <p>
|       <b>
|         "both"
|       "plain"`)

	treeCase(t, "a resets a", `<a href="/1">one<a href="/2">two`, `
| <html>
|   <head>
|   <body>
|     <a>
|       href="/1"
|       "one"
|     <a>
|       href="/2"
|       "two"`)

	treeCase(t, "formatting nests into block", "<b>x<p>y", `
| <html>
|   <head>
|   <body>
|     <b>
|       "x"
|       <p>
|         "y"`)

	treeCase(t, "reconstruct after closed p", "<p><b>x</p><p>y", `
| <html>
|   <head>
|   <body>
|     <p>
|       <b>
|         "x"
|     <p>
|       <b>
|         "y"`)

	treeCase(t, "misnested i b", "<p>1<b>2<i>3</b>4</i>5", `
| <html>
|   <head>
|   <body>
|     <p>
|       "1"
|       <b>
|         "2"
|         <i>
|           "3"
|       <i>
|         "4"
|       "5"`)
}

func TestTreeRawText(t *testing.T) {
	treeCase(t, "script content opaque", `<script>if (a < b) { x("</div>"); }</script>`, `
| <html>
|   <head>
|     <script>
|       "if (a < b) { x("</div>"); }"
|   <body>`)

	treeCase(t, "style content opaque", "<style>a > b { color: red }</style>", `
| <html>
|   <head>
|     <style>
|       "a > b { color: red }"
|   <body>`)

	treeCase(t, "textarea keeps markup as text", "<body><textarea><p>x</p></textarea>after", `
| <html>
|   <head>
|   <body>
|     <textarea>
|       "<p>x</p>"
|     "after"`)

	treeCase(t, "textarea skips leading newline", "<body><textarea>\nkeep</textarea>", `
| <html>
|   <head>
|   <body>
|     <textarea>
|       "keep"`)

	treeCase(t, "title rcdata decodes entities", "<title>a &amp; b</title>", `
| <html>
|   <head>
|     <title>
|       "a & b"
|   <body>`)

	treeCase(t, "script double escape", "<script><!--<script>alert(1)</script>--></script>", `
| <html>
|   <head>
|     <script>
|       "<!--<script>alert(1)</script>-->"
|   <body>`)
}

func TestTreeForeignContent(t *testing.T) {
	treeCase(t, "svg subtree", `<body><svg viewBox="0 0 1 1"><circle r="1"/></svg>`, `
| <html>
|   <head>
|   <body>
|     <svg svg>
|       viewBox="0 0 1 1"
|       <svg circle>
|         r="1"`)

	treeCase(t, "svg case adjustment", "<svg><lineargradient></lineargradient></svg>", `
| <html>
|   <head>
|   <body>
|     <svg svg>
|       <svg linearGradient>`)

	treeCase(t, "math mi integration point", "<math><mi><b>x</b></mi></math>", `
| <html>
|   <head>
|   <body>
|     <math math>
|       <math mi>
|         <b>
|           "x"`)

	treeCase(t, "breakout from svg", "<svg><g><div>html</div></svg>", `
| <html>
|   <head>
|   <body>
|     <svg svg>
|       <svg g>
|     <div>
|       "html"`)

	treeCase(t, "font with color breaks out", `<svg><font color="red">x</font></svg>`, `
| <html>
|   <head>
|   <body>
|     <svg svg>
|     <font>
|       color="red"
|       "x"`)

	treeCase(t, "font without attrs stays foreign", `<svg><font>x</font></svg>`, `
| <html>
|   <head>
|   <body>
|     <svg svg>
|       <svg font>
|         "x"`)

	treeCase(t, "foreignObject is html island", "<svg><foreignobject><p>para</p></foreignobject></svg>", `
| <html>
|   <head>
|   <body>
|     <svg svg>
|       <svg foreignObject>
|         <p>
|           "para"`)

	treeCase(t, "cdata in foreign content", "<svg><desc><![CDATA[a<b]]></desc></svg>", `
| <html>
|   <head>
|   <body>
|     <svg svg>
|       <svg desc>
|         "a<b"`)

	treeCase(t, "annotation-xml html encoding", `<math><annotation-xml encoding="text/html"><div>d</div></annotation-xml></math>`, `
| <html>
|   <head>
|   <body>
|     <math math>
|       <math annotation-xml>
|         encoding="text/html"
|         <div>
|           "d"`)
}

func TestTreeSelect(t *testing.T) {
	treeCase(t, "options", "<select><option>a<option>b</select>", `
| <html>
|   <head>
|   <body>
|     <select>
|       <option>
|         "a"
|       <option>
|         "b"`)

	treeCase(t, "optgroup closes option", "<select><option>a<optgroup label=g><option>b</select>", `
| <html>
|   <head>
|   <body>
|     <select>
|       <option>
|         "a"
|       <optgroup>
|         label="g"
|         <option>
|           "b"`)

	treeCase(t, "tags stripped inside select", "<select><option><p id=private>secret</p></select>", `
| <html>
|   <head>
|   <body>
|     <select>
|       <option>
|         "secret"`)

	treeCase(t, "nested select closes", "<select><option>a<select>", `
| <html>
|   <head>
|   <body>
|     <select>
|       <option>
|         "a"`)

	treeCase(t, "input pops select", "<select><option>a<input name=x>", `
| <html>
|   <head>
|   <body>
|     <select>
|       <option>
|         "a"
|     <input>
|       name="x"`)
}

func TestTreeFormPointer(t *testing.T) {
	treeCase(t, "nested form ignored", `<form action="/a"><form action="/b"><input name=q></form>`, `
| <html>
|   <head>
|   <body>
|     <form>
|       action="/a"
|       <input>
|         name="q"`)

	treeCase(t, "sibling forms allowed", `<form action="/a"></form><form action="/b"></form>`, `
| <html>
|   <head>
|   <body>
|     <form>
|       action="/a"
|     <form>
|       action="/b"`)
}

func TestTreeBodyMerging(t *testing.T) {
	treeCase(t, "second body merges attrs", `<body class="a"><p>x</p><body class="b" id="i">`, `
| <html>
|   <head>
|   <body>
|     class="a"
|     id="i"
|     <p>
|       "x"`)

	treeCase(t, "content after body goes back in", "<body><p>x</p></body><div>late</div>", `
| <html>
|   <head>
|   <body>
|     <p>
|       "x"
|     <div>
|       "late"`)
}

func TestTreeComments(t *testing.T) {
	treeCase(t, "comment placement", "<!--top--><html><!--in html--><head></head><body>x</body></html><!--after-->", `
| <!-- top -->
| <html>
|   <!-- in html -->
|   <head>
|   <body>
|     "x"
| <!-- after -->`)

	treeCase(t, "bogus comment from ?", "<?php echo ?><p>x", `
| <!-- ?php echo ? -->
| <html>
|   <head>
|   <body>
|     <p>
|       "x"`)
}

func TestTreeHeadEdgeCases(t *testing.T) {
	treeCase(t, "meta after head reroutes into head", `<head><title>t</title></head><meta charset="utf-8"><body>x`, `
| <html>
|   <head>
|     <title>
|       "t"
|     <meta>
|       charset="utf-8"
|   <body>
|     "x"`)

	treeCase(t, "div breaks head", "<head><title>t</title><div>d</div></head>", `
| <html>
|   <head>
|     <title>
|       "t"
|   <body>
|     <div>
|       "d"`)

	treeCase(t, "meta in body stays in body", "<body><p>x</p><meta name=late>", `
| <html>
|   <head>
|   <body>
|     <p>
|       "x"
|     <meta>
|       name="late"`)
}

func TestTreeImageRetagged(t *testing.T) {
	treeCase(t, "image becomes img", `<image src="/x.png">`, `
| <html>
|   <head>
|   <body>
|     <img>
|       src="/x.png"`)
}

func TestTreeEOFAutoClose(t *testing.T) {
	res, err := Parse([]byte("<body><div><ul><li>x"))
	if err != nil {
		t.Fatal(err)
	}
	div := res.Doc.Find(func(n *Node) bool { return n.IsElement("div") })
	li := res.Doc.Find(func(n *Node) bool { return n.IsElement("li") })
	if div == nil || !div.AutoClosedAtEOF {
		t.Fatal("div not flagged auto-closed")
	}
	if li == nil || !li.AutoClosedAtEOF {
		t.Fatal("li not flagged auto-closed")
	}
	var allowed, disallowed int
	for _, e := range eventsByKind(res, EventAutoClosedAtEOF) {
		if e.Allowed {
			allowed++
		} else {
			disallowed++
		}
	}
	// li is allowed to remain open at EOF; div and ul are not.
	if allowed != 1 || disallowed != 2 {
		t.Fatalf("allowed=%d disallowed=%d events=%v", allowed, disallowed, res.Events)
	}
}

func TestTreeFragmentContexts(t *testing.T) {
	cases := []struct {
		context string
		input   string
		find    string
	}{
		{"div", "<p>x</p>", "p"},
		{"table", "<tr><td>x</td></tr>", "td"},
		{"select", "<option>x</option>", "option"},
		{"textarea", "<p>not an element</p>", ""},
	}
	for _, tc := range cases {
		res, err := ParseFragment([]byte(tc.input), tc.context)
		if err != nil {
			t.Fatalf("%s: %v", tc.context, err)
		}
		p := res.Doc.Find(func(n *Node) bool {
			return n.Type == ElementNode && n.Data == tc.find
		})
		if tc.find == "" {
			if got := res.Doc.Text(); got != "<p>not an element</p>" {
				t.Fatalf("textarea context: text = %q", got)
			}
			continue
		}
		if p == nil {
			t.Fatalf("%s context: %s not found in %s", tc.context, tc.find, dumpTree(res.Doc))
		}
	}
}

// TestW3CValidatorKiller: the Figure 7 document that breaks the W3C
// validator must parse to completion here, with errors recorded instead of
// parsing aborted.
func TestW3CValidatorKiller(t *testing.T) {
	const doc = `<!DOCTYPE html>
<html lang="en">
<head>
<title>Test</title>
<meta charset="UTF-8">
</head>
<body>
<math><mtext><table><mglyph><style><!--</style><img title="--&gt;&lt;img src=1 onerror=alert(1)&gt;">
</body>
</html>`
	res, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	// The whole document must have been processed: the html element is
	// closed properly and the img exists.
	img := res.Doc.Find(func(n *Node) bool { return n.Type == ElementNode && n.Data == "img" })
	if img == nil {
		t.Fatal("parser stopped early: img missing")
	}
	if len(res.Errors) == 0 && len(res.Events) == 0 {
		t.Fatal("no diagnostics recorded for a violating document")
	}
}

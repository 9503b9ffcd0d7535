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

// URLAttribute reports whether name is an attribute whose value the
// platform treats as a URL (the DE3_1/DM2_3 attribute set). Exported so
// the repair engine's DE3_1 strategy matches the rule predicate exactly
// instead of drifting on a private copy of the list.
func URLAttribute(name string) bool { return urlAttributes[name] }

// TargetAttributeTag reports whether tag is an element whose target
// attribute names a browsing context (the DE3_3 element set).
func TargetAttributeTag(tag string) bool { return targetAttributeTags[tag] }

// ruleDE1 detects textarea elements that were never terminated: the parser
// closes them at EOF, so everything following the injection point —
// including markup containing secrets — becomes the textarea's value and
// is submitted with the surrounding form (paper Figure 3).
var ruleDE1 = Rule{
	ID: "DE1", Name: "Non-terminated textarea element",
	Doc:   "An unterminated <textarea> swallows everything to end-of-file; injected before secret content inside an attacker-supplied form, the secret submits to the attacker's server without any script running (paper §3.2.1, Figure 3).",
	Group: DataExfiltration, Category: DefinitionViolation,
	Check: func(p *Page) []Finding {
		return eventFindings(p, "DE1", htmlparse.EventAutoClosedAtEOF,
			func(e htmlparse.TreeEvent) bool { return e.Detail == "textarea" })
	},
}

// ruleDE2 detects select/option elements left open at EOF. The leak is
// plain text only: the parser strips tags inside select, keeping their
// character data (paper §3.2.1).
var ruleDE2 = Rule{
	ID: "DE2", Name: "Non-terminated select and option elements",
	Doc:   "An unterminated <select>/<option> swallows following content as plain text (tags stripped, text kept), exfiltrating it through form submission (paper §3.2.1).",
	Group: DataExfiltration, Category: DefinitionViolation,
	Check: func(p *Page) []Finding {
		return eventFindings(p, "DE2", htmlparse.EventAutoClosedAtEOF,
			func(e htmlparse.TreeEvent) bool {
				return e.Detail == "select" || e.Detail == "option" || e.Detail == "optgroup"
			})
	},
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
	for _, a := range t.Attr {
		if !urlAttributes[a.Name] {
			continue
		}
		if strings.ContainsRune(a.RawValue, '\n') && strings.ContainsRune(a.RawValue, '<') {
			emit(Finding{
				RuleID: "DE3_1", Pos: a.Pos,
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
	for _, a := range t.Attr {
		if strings.Contains(strings.ToLower(a.RawValue), "<script") {
			emit(Finding{
				RuleID: "DE3_2", Pos: a.Pos,
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
	if t.Type != htmlparse.StartTagToken || !targetAttributeTags[t.Data] {
		return
	}
	for _, a := range t.Attr {
		if a.Name == "target" && strings.ContainsRune(a.RawValue, '\n') {
			emit(Finding{
				RuleID: "DE3_3", Pos: a.Pos,
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
	Check: func(p *Page) []Finding {
		return eventFindings(p, "DE4", htmlparse.EventNestedForm, nil)
	},
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

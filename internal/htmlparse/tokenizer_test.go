package htmlparse

import (
	"reflect"
	"strings"
	"testing"
)

// tokenize runs the standalone tokenizer (AutoRaw on) to completion.
func tokenize(t *testing.T, input string) ([]Token, []ParseError) {
	t.Helper()
	pre, err := Preprocess([]byte(input))
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	z := NewTokenizer(pre.Input)
	var out []Token
	for {
		tok := z.Next()
		if tok.Type == EOFToken {
			break
		}
		out = append(out, tok)
	}
	return out, z.Errors()
}

// tokenSummary renders tokens compactly for comparison.
func tokenSummary(tokens []Token) []string {
	var out []string
	for i := range tokens {
		out = append(out, tokens[i].String())
	}
	return out
}

func wantTokens(t *testing.T, input string, want ...string) {
	t.Helper()
	tokens, _ := tokenize(t, input)
	got := tokenSummary(tokens)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tokenize(%q):\n got  %q\n want %q", input, got, want)
	}
}

func wantError(t *testing.T, input string, code ErrorCode) {
	t.Helper()
	_, errs := tokenize(t, input)
	for _, e := range errs {
		if e.Code == code {
			return
		}
	}
	t.Fatalf("tokenize(%q): error %s missing; got %v", input, code, errs)
}

func wantNoError(t *testing.T, input string, code ErrorCode) {
	t.Helper()
	_, errs := tokenize(t, input)
	for _, e := range errs {
		if e.Code == code {
			t.Fatalf("tokenize(%q): unexpected error %s", input, code)
		}
	}
}

func TestTokenizeBasicTags(t *testing.T) {
	wantTokens(t, `<p>x</p>`, "<p>", "#text:x", "</p>")
	wantTokens(t, `<BR>`, "<br>")
	wantTokens(t, `<input type="text" value='v' checked>`,
		`<input type="text" value="v" checked="">`)
	wantTokens(t, `<img src=logo.png>`, `<img src="logo.png">`)
	wantTokens(t, `<br/>`, "<br/>")
	wantTokens(t, `<a b=1 c=2>x`, `<a b="1" c="2">`, "#text:x")
}

func TestTokenizeAttributeDetails(t *testing.T) {
	tokens, _ := tokenize(t, `<a x="1&amp;2" y='sq' z=unq w>`)
	if len(tokens) != 1 {
		t.Fatalf("tokens = %v", tokens)
	}
	a := tokens[0].Attr
	if len(a) != 4 {
		t.Fatalf("attrs = %v", a)
	}
	if a[0].Value != "1&2" || a[0].RawValue != "1&amp;2" || a[0].Quote != '"' {
		t.Fatalf("attr x = %+v", a[0])
	}
	if a[1].Quote != '\'' || a[1].Value != "sq" {
		t.Fatalf("attr y = %+v", a[1])
	}
	if a[2].Quote != 0 || a[2].Value != "unq" {
		t.Fatalf("attr z = %+v", a[2])
	}
	if a[3].Value != "" || a[3].Quote != 0 {
		t.Fatalf("attr w = %+v", a[3])
	}
}

// The missing-attribute-value detail names the attribute with no value.
func TestTokenizeMissingAttributeValueDetail(t *testing.T) {
	for in, want := range map[string]string{`<div a=>`: "a", `<div a b=>`: "b"} {
		_, errs := tokenize(t, in)
		var got []string
		for _, e := range errs {
			if e.Code == ErrMissingAttributeValue {
				got = append(got, e.Detail)
			}
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf("%s: missing-attribute-value details %q, want [%q]", in, got, want)
		}
	}
}

func TestTokenizeAttributeCaseAndDuplicates(t *testing.T) {
	tokens, errs := tokenize(t, `<div ID=a id=b Class=c>`)
	a := tokens[0].Attr
	if a[0].Name != "id" || a[1].Name != "id" || a[2].Name != "class" {
		t.Fatalf("attrs = %v", a)
	}
	if !a[1].Duplicate || a[0].Duplicate {
		t.Fatalf("duplicate flags wrong: %v", a)
	}
	found := false
	for _, e := range errs {
		if e.Code == ErrDuplicateAttribute && e.Detail == "id" {
			found = true
		}
	}
	if !found {
		t.Fatalf("duplicate-attribute error missing: %v", errs)
	}
	if v, ok := tokens[0].LookupAttr("id"); !ok || v != "a" {
		t.Fatalf("LookupAttr returned %q (first attribute must win)", v)
	}
}

func TestTokenizeErrorStates(t *testing.T) {
	wantError(t, `<img/src=x>`, ErrUnexpectedSolidusInTag)
	wantError(t, `<img src="a"b="c">`, ErrMissingWhitespaceBetweenAttributes)
	wantError(t, `<div a=1 a=2>`, ErrDuplicateAttribute)
	wantError(t, `<div a"b=c>`, ErrUnexpectedCharacterInAttributeName)
	wantError(t, `<div =x>`, ErrUnexpectedEqualsSignBeforeAttrName)
	wantError(t, `<div a=b"c>`, ErrUnexpectedCharInUnquotedAttrValue)
	wantError(t, `<div a=>`, ErrMissingAttributeValue)
	wantError(t, `<div `, ErrEOFInTag)
	wantError(t, `<`, ErrEOFBeforeTagName)
	wantError(t, `</>`, ErrMissingEndTagName)
	wantError(t, `<3>`, ErrInvalidFirstCharacterOfTagName)
	wantError(t, `<?xml?>`, ErrUnexpectedQuestionMarkInsteadOfTag)
	wantError(t, `</div x=1>`, ErrEndTagWithAttributes)
	wantError(t, `</div/>`, ErrEndTagWithTrailingSolidus)

	// The negative space: well-formed markup raises none of the above.
	for _, code := range []ErrorCode{
		ErrUnexpectedSolidusInTag, ErrMissingWhitespaceBetweenAttributes,
		ErrDuplicateAttribute, ErrUnexpectedCharacterInAttributeName,
	} {
		wantNoError(t, `<a href="x" title='y' data-z=1>text</a> <br/>`, code)
	}
}

func TestTokenizeSelfClosingVsSolidus(t *testing.T) {
	// A trailing /> is self-closing syntax, not FB1.
	wantNoError(t, `<br/>`, ErrUnexpectedSolidusInTag)
	wantNoError(t, `<img src="a"/>`, ErrUnexpectedSolidusInTag)
	// But a slash in the middle is.
	wantError(t, `<img src="a"/alt="b">`, ErrUnexpectedSolidusInTag)
}

func TestTokenizeCharacterReferences(t *testing.T) {
	wantTokens(t, "a&amp;b", "#text:a&b")
	wantTokens(t, "&lt;tag&gt;", "#text:<tag>")
	wantTokens(t, "&#65;&#x42;", "#text:AB")
	wantTokens(t, "&notit;", "#text:¬it;") // legacy prefix match
	wantTokens(t, "&nosuch;x", "#text:&nosuch;x")
	wantTokens(t, "&", "#text:&")
	wantTokens(t, "&;", "#text:&;")
	wantTokens(t, "100 &euro", "#text:100 &euro") // euro is not a legacy entity
	wantTokens(t, "&copy 2022", "#text:© 2022")   // copy is

	wantError(t, "&#;", ErrAbsenceOfDigitsInNumericCharRef)
	wantError(t, "&#0;", ErrNullCharacterReference)
	wantError(t, "&#x110000;", ErrCharRefOutsideUnicodeRange)
	wantError(t, "&#xD800;", ErrSurrogateCharacterReference)
	wantError(t, "&#xFDD0;", ErrNoncharacterCharacterReference)
	wantError(t, "&#65", ErrMissingSemicolonAfterCharRef)
	wantError(t, "&amp", ErrMissingSemicolonAfterCharRef)
	wantError(t, "&unknown;", ErrUnknownNamedCharacterReference)

	// Control reference remapping (windows-1252 repertoire).
	wantTokens(t, "&#x80;", "#text:€")
	wantTokens(t, "&#x92;", "#text:’")
}

func TestTokenizeAttributeCharRefQuirk(t *testing.T) {
	// In attributes, a legacy (no-semicolon) reference followed by '=' or
	// an alphanumeric is NOT decoded — the historical compatibility rule.
	tokens, _ := tokenize(t, `<a href="?a=b&not=1&notx&not.">`)
	v, _ := tokens[0].LookupAttr("href")
	if v != "?a=b&not=1&notx¬." {
		t.Fatalf("href = %q", v)
	}
	// With a semicolon it always decodes.
	tokens, _ = tokenize(t, `<a href="?a&not;b">`)
	v, _ = tokens[0].LookupAttr("href")
	if v != "?a¬b" {
		t.Fatalf("href = %q", v)
	}
}

func TestTokenizeComments(t *testing.T) {
	wantTokens(t, "<!--hi-->", "<!--hi-->")
	wantTokens(t, "<!---->", "<!---->")
	wantTokens(t, "<!--a-b--c-->", "<!--a-b--c-->")
	wantTokens(t, "<!--x--!>", "<!--x-->")
	wantError(t, "<!--x--!>", ErrIncorrectlyClosedComment)
	wantError(t, "<!-->", ErrAbruptClosingOfEmptyComment)
	wantError(t, "<!--", ErrEOFInComment)
	wantError(t, "<!x>", ErrIncorrectlyOpenedComment)
	wantError(t, "<!--a<!--b-->", ErrNestedComment)
	// The mXSS-relevant case: <!-- inside a comment's text is preserved.
	wantTokens(t, "<!--<!-- nested -->", "<!--<!-- nested -->")
}

func TestTokenizeDoctype(t *testing.T) {
	tokens, _ := tokenize(t, "<!DOCTYPE html>")
	if tokens[0].Type != DoctypeToken || tokens[0].Data != "html" || tokens[0].ForceQuirks {
		t.Fatalf("doctype = %+v", tokens[0])
	}
	tokens, _ = tokenize(t, `<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.01//EN" "http://www.w3.org/TR/html4/strict.dtd">`)
	d := tokens[0]
	if d.PublicID != "-//W3C//DTD HTML 4.01//EN" || d.SystemID != "http://www.w3.org/TR/html4/strict.dtd" {
		t.Fatalf("doctype ids = %+v", d)
	}
	wantError(t, "<!DOCTYPE>", ErrMissingDoctypeName)
	wantError(t, "<!DOCTYPE html PUBLIC>", ErrMissingDoctypePublicIdentifier)
	wantError(t, "<!DOCTYPE html SYSTEM>", ErrMissingDoctypeSystemIdentifier)
	wantError(t, "<!DOCTYPE html BOGUS>", ErrInvalidCharacterSequenceAfterDT)
	wantError(t, "<!DOCTYPE", ErrEOFInDoctype)
	wantError(t, "<!DOCTYPEhtml>", ErrMissingWhitespaceBeforeDoctypeName)
}

// TestTokenizeBigTransformedStrings builds strings of replaced
// characters past bigString, where addRune doubles the buffer, one after
// another in the same accumulator: each comes out whole.
func TestTokenizeBigTransformedStrings(t *testing.T) {
	n := bigString / 2 // each NUL becomes three bytes of U+FFFD
	nuls := strings.Repeat("\x00", n)
	tokens, _ := tokenize(t, `<!DOCTYPE html PUBLIC "`+nuls+`" "`+nuls+`"><!--`+nuls+`-->`)
	want := strings.Repeat("\uFFFD", n)
	if len(tokens) != 2 {
		t.Fatalf("got %d tokens, want 2", len(tokens))
	}
	if d := tokens[0]; d.PublicID != want || d.SystemID != want {
		t.Fatalf("doctype ids of %d and %d bytes, want %d each", len(d.PublicID), len(d.SystemID), len(want))
	}
	if c := tokens[1]; c.Type != CommentToken || c.Data != want {
		t.Fatalf("comment of %d bytes, want %d", len(c.Data), len(want))
	}
}

func TestTokenizeRawText(t *testing.T) {
	wantTokens(t, "<style>a<b</style>", "<style>", "#text:a<b", "</style>")
	wantTokens(t, "<textarea></div></textarea>", "<textarea>", "#text:</div>", "</textarea>")
	wantTokens(t, "<title>&amp;</title>", "<title>", "#text:&", "</title>")
	// RAWTEXT does not decode character references.
	wantTokens(t, "<style>&amp;</style>", "<style>", "#text:&amp;", "</style>")
	// Case-insensitive appropriate end tag.
	wantTokens(t, "<STYLE>x</StYlE>", "<style>", "#text:x", "</style>")
	// A non-matching end tag is text.
	wantTokens(t, "<style>a</styl></style>", "<style>", "#text:a</styl>", "</style>")
}

func TestTokenizeScriptEscapes(t *testing.T) {
	// </script> inside a double-escaped (<!--<script>) block does not end
	// the element.
	wantTokens(t, `<script><!--<script></script>--></script>`,
		"<script>", "#text:<!--<script></script>-->", "</script>")
	// Single-escaped: </script> ends it.
	wantTokens(t, `<script><!--x--></script>`,
		"<script>", "#text:<!--x-->", "</script>")
	wantError(t, "<script><!--", ErrEOFInScriptHTMLCommentLikeText)
}

func TestTokenizePlaintext(t *testing.T) {
	wantTokens(t, "<plaintext></plaintext><div>",
		"<plaintext>", "#text:</plaintext><div>")
}

func TestTokenizeCDATAOutsideForeign(t *testing.T) {
	// In HTML content CDATA is a bogus comment with a specific error.
	wantError(t, "<![CDATA[x]]>", ErrCDATAInHTMLContent)
	tokens, _ := tokenize(t, "<![CDATA[x]]>")
	if tokens[0].Type != CommentToken || !strings.HasPrefix(tokens[0].Data, "[CDATA[") {
		t.Fatalf("tokens = %v", tokens)
	}
}

func TestTokenizePositions(t *testing.T) {
	const input = "line1\n<div>\n  <span a=1>"
	tokens, _ := tokenize(t, input)
	ps := []Position{{Offset: tokens[3].Attr[0].Pos}, {Offset: tokens[3].Pos}, {Offset: tokens[1].Pos}, {Offset: tokens[0].Pos}}
	ResolvePositions([]byte(input), ps, func(p *Position) *Position { return p })
	attr, span, div, text := ps[0], ps[1], ps[2], ps[3]
	if tokens[0].Type != CharacterToken || text.Line != 1 || text.Col != 1 {
		t.Fatalf("text pos = %+v", text)
	}
	if div.Line != 2 {
		t.Fatalf("div pos = %+v", div)
	}
	if span.Line != 3 {
		t.Fatalf("span pos = %+v", span)
	}
	if attr.Line != 3 || attr.Col < 9 {
		t.Fatalf("attr pos = %+v", attr)
	}
}

func TestTokenizeNullHandling(t *testing.T) {
	wantError(t, "a\x00b", ErrUnexpectedNullCharacter)
	// In data state the NUL is passed through (the tree stage drops it);
	// in RCDATA it becomes U+FFFD.
	tokens, _ := tokenize(t, "<textarea>a\x00b</textarea>")
	if tokens[1].Data != "a�b" {
		t.Fatalf("rcdata NUL = %q", tokens[1].Data)
	}
}

func TestTokenizeEOFRepeats(t *testing.T) {
	pre, _ := Preprocess([]byte("x"))
	z := NewTokenizer(pre.Input)
	for i := 0; i < 3; i++ {
		tok := z.Next()
		if i > 0 && tok.Type != EOFToken {
			t.Fatalf("call %d: %v", i, tok)
		}
	}
}

func TestPreprocess(t *testing.T) {
	p, err := Preprocess([]byte("a\r\nb\rc\nd"))
	if err != nil {
		t.Fatal(err)
	}
	if string(p.Input) != "a\nb\nc\nd" {
		t.Fatalf("normalized = %q", p.Input)
	}
	if _, err := Preprocess([]byte{0xff, 0xfe, 'a'}); err != ErrNotUTF8 {
		t.Fatalf("invalid UTF-8: err = %v", err)
	}
	p, _ = Preprocess([]byte("a\x01b"))
	if len(p.Errors) != 1 || p.Errors[0].Code != ErrControlCharacterInInputStream {
		t.Fatalf("control char errors = %v", p.Errors)
	}
	p, _ = Preprocess([]byte("a﷐b"))
	if len(p.Errors) != 1 || p.Errors[0].Code != ErrNoncharacterInInputStream {
		t.Fatalf("noncharacter errors = %v", p.Errors)
	}
	// NUL passes preprocessing (handled per tokenizer state).
	p, _ = Preprocess([]byte("a\x00b"))
	if len(p.Errors) != 0 {
		t.Fatalf("NUL flagged at preprocess: %v", p.Errors)
	}
}

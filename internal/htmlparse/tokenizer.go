package htmlparse

import (
	"bytes"
	"strings"
	"unicode/utf8"
)

// state enumerates the tokenizer states of the HTML Living Standard,
// section 13.2.5. The character reference states are implemented as a
// helper routine instead of explicit states, which is an equivalent
// formulation (the spec's return-state mechanism maps onto a call).
type state int

const (
	stateData state = iota
	stateRCDATA
	stateRAWTEXT
	stateScriptData
	statePlaintext
	stateTagOpen
	stateEndTagOpen
	stateTagName
	stateRCDATALessThan
	stateRCDATAEndTagOpen
	stateRCDATAEndTagName
	stateRAWTEXTLessThan
	stateRAWTEXTEndTagOpen
	stateRAWTEXTEndTagName
	stateScriptDataLessThan
	stateScriptDataEndTagOpen
	stateScriptDataEndTagName
	stateScriptDataEscapeStart
	stateScriptDataEscapeStartDash
	stateScriptDataEscaped
	stateScriptDataEscapedDash
	stateScriptDataEscapedDashDash
	stateScriptDataEscapedLessThan
	stateScriptDataEscapedEndTagOpen
	stateScriptDataEscapedEndTagName
	stateScriptDataDoubleEscapeStart
	stateScriptDataDoubleEscaped
	stateScriptDataDoubleEscapedDash
	stateScriptDataDoubleEscapedDashDash
	stateScriptDataDoubleEscapedLessThan
	stateScriptDataDoubleEscapeEnd
	stateBeforeAttributeName
	stateAttributeName
	stateAfterAttributeName
	stateBeforeAttributeValue
	stateAttributeValueDoubleQuoted
	stateAttributeValueSingleQuoted
	stateAttributeValueUnquoted
	stateAfterAttributeValueQuoted
	stateSelfClosingStartTag
	stateBogusComment
	stateMarkupDeclarationOpen
	stateCommentStart
	stateCommentStartDash
	stateComment
	stateCommentLessThan
	stateCommentLessThanBang
	stateCommentLessThanBangDash
	stateCommentLessThanBangDashDash
	stateCommentEndDash
	stateCommentEnd
	stateCommentEndBang
	stateDoctype
	stateBeforeDoctypeName
	stateDoctypeName
	stateAfterDoctypeName
	stateAfterDoctypePublicKeyword
	stateBeforeDoctypePublicIdentifier
	stateDoctypePublicIdentifierDoubleQuoted
	stateDoctypePublicIdentifierSingleQuoted
	stateAfterDoctypePublicIdentifier
	stateBetweenDoctypePublicAndSystemIdentifiers
	stateAfterDoctypeSystemKeyword
	stateBeforeDoctypeSystemIdentifier
	stateDoctypeSystemIdentifierDoubleQuoted
	stateDoctypeSystemIdentifierSingleQuoted
	stateAfterDoctypeSystemIdentifier
	stateBogusDoctype
	stateCDATASection
	stateCDATASectionBracket
	stateCDATASectionEnd
)

// rawTextTags maps tag names to the tokenizer state their content is
// parsed in when the element is in the HTML namespace.
var rawTextTags = map[string]state{
	"title":     stateRCDATA,
	"textarea":  stateRCDATA,
	"style":     stateRAWTEXT,
	"xmp":       stateRAWTEXT,
	"iframe":    stateRAWTEXT,
	"noembed":   stateRAWTEXT,
	"noframes":  stateRAWTEXT,
	"noscript":  stateRAWTEXT, // scripting-enabled profile, as in browsers
	"script":    stateScriptData,
	"plaintext": statePlaintext,
}

const eofRune = rune(-1)

// Tokenizer turns a preprocessed character stream into tokens, recording
// every parse error it passes instead of failing — the "error tolerance"
// behaviour under study.
type Tokenizer struct {
	input []byte
	pos   int

	// one-step back support for the spec's "reconsume" instruction
	prevPos int

	state state

	// AutoRaw makes the tokenizer switch itself into RCDATA / RAWTEXT /
	// script data states when it emits a matching start tag. This is the
	// behaviour wanted when the tokenizer runs standalone; the tree builder
	// disables it and drives the switches, since the correct switch depends
	// on the namespace context (a <style> inside <svg> is not raw text —
	// the distinction the Figure 1 mXSS abuses).
	AutoRaw bool

	// AllowCDATA, when non-nil, is consulted at <![CDATA[ to decide whether
	// a CDATA section may start (true while the adjusted current node is in
	// a foreign namespace). The tree builder installs this hook; standalone
	// the construct is the spec's cdata-in-html-content bogus comment.
	AllowCDATA func() bool

	lastStartTag string

	// onError takes each parse error: to the observer in a Parser, into
	// errors in a tokenizer from NewTokenizer.
	onError func(ParseError)
	errors  []ParseError
	queue   []Token
	qhead   int // queue read index; lets Next reuse the queue's backing array

	// Token strings in progress. text is the pending character run, which
	// starts at textPos; data is the current tag's name (until the tag is
	// emitted), comment or doctype field; name and value belong to the
	// current attribute.
	text, data, name, value strAcc
	textPos                 int

	cur Token

	attrPending bool
	attrQuote   byte
	attrPos     int
	// valStart is the offset of the current attribute value's first byte,
	// or -1 while the attribute has no value.
	valStart int
	// tmpStart is the offset where the letters of the spec's temporary
	// buffer begin: a raw-text end tag name, or a script double-escape
	// keyword.
	tmpStart   int
	emittedEOF bool
}

// strAcc accumulates one token string. While everything added is one
// contiguous run of untransformed input, the string is only the view
// input[start:end]. The first transformed byte (case folding, U+FFFD for
// NUL, a decoded character reference) or discontiguous run copies the
// view into buf, which takes everything from then on. take hands out the
// view itself or a copy of buf, so a plain run is never copied and, once
// buf has grown, a transformed one allocates only its result.
type strAcc struct {
	start, end int
	copied     bool
	buf        []byte //hv:view recycled scratch, reset to [:0] by take
}

//hv:hotpath emptiness test behind every text append
func (a *strAcc) empty() bool { return !a.copied && a.start == a.end }

// add appends the input bytes in[from:to].
//
//hv:hotpath every source byte of every token string passes through here
func (a *strAcc) add(in []byte, from, to int) {
	switch {
	case from == to:
	case a.copied:
		a.buf = append(a.buf, in[from:to]...)
	case a.start == a.end:
		a.start, a.end = from, to
	case a.end == from:
		a.end = to
	default:
		a.spill(in)
		a.buf = append(a.buf, in[from:to]...)
	}
}

// addRune appends r, a character that is not the input's at this point.
//
//hv:hotpath per-rune transformed append into recycled scratch
func (a *strAcc) addRune(in []byte, r rune) {
	a.spill(in)
	a.buf = utf8.AppendRune(a.buf, r)
}

// addString appends a decoded character reference.
//
//hv:hotpath decoded character reference append into recycled scratch
func (a *strAcc) addString(in []byte, s string) {
	a.spill(in)
	a.buf = append(a.buf, s...)
}

//hv:hotpath the one copy of a view into buf
func (a *strAcc) spill(in []byte) {
	if !a.copied {
		a.buf = append(a.buf[:0], in[a.start:a.end]...)
		a.copied = true
	}
}

// bytes returns the string so far, a view of in or of buf.
//
//hv:view aliases the input or the recycled buf
func (a *strAcc) bytes(in []byte) []byte {
	if a.copied {
		return a.buf
	}
	return in[a.start:a.end]
}

// take returns the string — a view of in while it is one untransformed
// run, else a copy of buf — and empties a.
//
//hv:view a plain run comes back as a view of in
func (a *strAcc) take(in []byte) string {
	s := zcString(in[a.start:a.end])
	if a.copied {
		s = string(a.buf)
	}
	a.reset()
	return s
}

// reset empties a, keeping buf's capacity.
func (a *strAcc) reset() { *a = strAcc{buf: a.buf[:0]} }

// NewTokenizer returns a tokenizer over a preprocessed input stream (see
// Preprocess). Standalone use gets automatic raw-text switching.
func NewTokenizer(input []byte) *Tokenizer {
	z := &Tokenizer{input: input, state: stateData, AutoRaw: true}
	z.onError = func(e ParseError) { z.errors = append(z.errors, e) }
	return z
}

// Errors returns the parse errors recorded so far, in input order.
func (z *Tokenizer) Errors() []ParseError { return z.errors }

// StartRawText switches the content model for the just-emitted start tag,
// as the tree builder does in the "generic raw text / RCDATA parsing
// algorithm". tag must be lowercase.
func (z *Tokenizer) StartRawText(tag string) {
	if s, ok := rawTextTags[tag]; ok {
		z.state = s
		z.lastStartTag = tag
	}
}

//hv:hotpath per-character cursor advance, one call per input rune
func (z *Tokenizer) next() rune {
	z.prevPos = z.pos
	if z.pos >= len(z.input) {
		return eofRune
	}
	r, size := utf8.DecodeRune(z.input[z.pos:])
	z.pos += size
	return r
}

// back un-consumes the most recently consumed character ("reconsume").
//
//hv:hotpath reconsume companion to next
func (z *Tokenizer) back() {
	z.pos = z.prevPos
}

//hv:hotpath lookahead companion to next
func (z *Tokenizer) peek() rune {
	if z.pos >= len(z.input) {
		return eofRune
	}
	r, _ := utf8.DecodeRune(z.input[z.pos:])
	return r
}

// ---- bulk scanning (the memchr-style hot path) ----

// scanWindow is the first window scanUntil searches. Each further window
// doubles, so a call reads at most twice as far as its nearest stop byte
// (or scanWindow bytes), however far away the other stop bytes lie.
// Searching the whole rest of the input for every stop byte would read
// past a far stop again on each chunk: quadratic on a long run of
// character references or comment dashes.
const scanWindow = 256

// scanUntil consumes the maximal run of input containing neither stop
// byte nor NUL (NUL always terminates a run because every content state
// treats it specially). Pass the same byte twice to scan for a single
// stop byte. The stop byte itself is left unconsumed for the caller's
// next() switch.
//
//hv:hotpath memchr-style bulk scan, the benchmark-gated fast path
func (z *Tokenizer) scanUntil(stop1, stop2 byte) {
	s := z.input[z.pos:]
	n := len(s)
	for lo, hi := 0, scanWindow; lo < len(s); lo, hi = hi, 2*hi {
		end := min(hi, len(s))
		w := s[lo:end]
		if i := bytes.IndexByte(w, stop1); i >= 0 {
			w = w[:i]
		}
		if stop2 != stop1 {
			if i := bytes.IndexByte(w, stop2); i >= 0 {
				w = w[:i]
			}
		}
		if stop1 != 0 {
			if i := bytes.IndexByte(w, 0); i >= 0 {
				w = w[:i]
			}
		}
		if lo+len(w) < end {
			n = lo + len(w)
			break
		}
	}
	z.pos += n
}

// scanTable consumes the maximal run of bytes b with safe[b] set. Tables
// mark every byte a state passes through verbatim; bytes needing a
// transformation (case folding, NUL replacement), a transition, or a
// parse error stay unsafe so the per-rune switch handles them.
//
//hv:hotpath table-driven bulk scan, the benchmark-gated fast path
func (z *Tokenizer) scanTable(safe *[256]bool) {
	s := z.input
	i := z.pos
	for i < len(s) && safe[s[i]] {
		i++
	}
	z.pos = i
}

// tagNameSafe marks bytes a tag name carries verbatim: everything except
// the terminators (whitespace, '/', '>'), NUL (replacement) and ASCII
// uppercase (case folding). Non-ASCII bytes are safe — multi-byte runes
// pass through tag names unchanged.
var tagNameSafe = makeSafeTable("\x00\t\n\f\r />", true)

// attrNameSafe additionally stops at '=' (value separator) and the
// quote/'<' characters that raise unexpected-character-in-attribute-name.
var attrNameSafe = makeSafeTable("\x00\t\n\f\r />=\"'<", true)

// unquotedValueSafe stops at whitespace, '&', '>', NUL and the characters
// that raise unexpected-character-in-unquoted-attribute-value.
var unquotedValueSafe = makeSafeTable("\x00\t\n\f\r &>\"'<=`", false)

// makeSafeTable builds a table with every byte safe except those in
// unsafe; foldUpper additionally marks 'A'..'Z' unsafe.
func makeSafeTable(unsafeBytes string, foldUpper bool) *[256]bool {
	var t [256]bool
	for i := range t {
		t[i] = true
	}
	for i := 0; i < len(unsafeBytes); i++ {
		t[unsafeBytes[i]] = false
	}
	if foldUpper {
		for b := 'A'; b <= 'Z'; b++ {
			t[b] = false
		}
	}
	return &t
}

func (z *Tokenizer) parseError(code ErrorCode, detail string) {
	z.onError(ParseError{Code: code, Pos: z.pos, Detail: detail})
}

// ---- the pending character run ----
//
// A run starts at the first byte of a scanned chunk. Any other first
// append starts it at the character consumed last: for a '<' or "</"
// that turns out to be text, the character after it; for a character
// reference, its last character. The recorded token positions depend on
// this rule.

//hv:hotpath run-start bookkeeping for every text append
func (z *Tokenizer) beginText() {
	if z.text.empty() {
		z.textPos = z.prevPos
	}
}

// addText adds the input bytes [from, to) to the pending run.
//
//hv:hotpath source-byte text accumulation
func (z *Tokenizer) addText(from, to int) {
	z.beginText()
	z.text.add(z.input, from, to)
}

// addTextChar adds the character just consumed to the pending run.
//
//hv:hotpath per-character text accumulation
func (z *Tokenizer) addTextChar() { z.addText(z.prevPos, z.pos) }

// addTextRune adds r, a replacement character, to the pending run.
//
//hv:hotpath per-rune text accumulation into recycled scratch
func (z *Tokenizer) addTextRune(r rune) {
	z.beginText()
	z.text.addRune(z.input, r)
}

// scanText adds the run scanUntil consumes to the pending run.
//
//hv:hotpath chunked text accumulation, zero-copy fast path
func (z *Tokenizer) scanText(stop1, stop2 byte) {
	start := z.pos
	z.scanUntil(stop1, stop2)
	if z.pos == start {
		return
	}
	if z.text.empty() {
		z.textPos = start
	}
	z.text.add(z.input, start, z.pos)
}

// textCharRef decodes a character reference into the pending run.
func (z *Tokenizer) textCharRef() {
	fresh := z.text.empty()
	z.consumeCharRef(&z.text, false)
	if fresh {
		z.textPos = z.prevPos
	}
}

func (z *Tokenizer) flushText() {
	if z.text.empty() {
		return
	}
	z.queue = append(z.queue, Token{Type: CharacterToken, Data: z.text.take(z.input), Pos: z.textPos})
}

func (z *Tokenizer) emit(t *Token) {
	z.flushText()
	if t.Type == StartTagToken {
		z.lastStartTag = t.Data
		if z.AutoRaw && !t.SelfClosing {
			if s, ok := rawTextTags[t.Data]; ok {
				z.state = s
			}
		}
	}
	z.queue = append(z.queue, *t)
}

func (z *Tokenizer) emitEOF() {
	z.flushText()
	z.queue = append(z.queue, Token{Type: EOFToken, Pos: z.pos})
	z.emittedEOF = true
}

// Next returns the next token. After the input is exhausted it returns
// EOFToken forever.
func (z *Tokenizer) Next() Token { return *z.nextToken() }

// nextToken returns the next token in place: the queue slot that holds
// it, valid until the following call, which may refill the slot.
func (z *Tokenizer) nextToken() *Token {
	for z.qhead >= len(z.queue) {
		// Drained: rewind so step() refills the same backing array.
		z.queue = z.queue[:0]
		z.qhead = 0
		if z.emittedEOF {
			z.queue = append(z.queue, Token{Type: EOFToken, Pos: z.pos})
			break
		}
		z.step()
	}
	t := &z.queue[z.qhead]
	z.qhead++
	return t
}

// ---- current tag/comment/doctype helpers ----

func (z *Tokenizer) newTag(tt TokenType) {
	z.cur = Token{Type: tt, Pos: z.pos}
}

// addChar adds the character just consumed to a.
func (z *Tokenizer) addChar(a *strAcc) { a.add(z.input, z.prevPos, z.pos) }

// addLower adds r, the character just consumed, to a with ASCII case
// folded.
func (z *Tokenizer) addLower(a *strAcc, r rune) {
	if isASCIIUpper(r) {
		a.addRune(z.input, toLowerRune(r))
		return
	}
	z.addChar(a)
}

// emitComment emits the current comment token with its accumulated data.
func (z *Tokenizer) emitComment() {
	z.cur.Data = z.data.take(z.input)
	z.emit(&z.cur)
}

func (z *Tokenizer) startNewAttr() {
	z.attrQuote = 0
	z.attrPos = z.pos
	z.valStart = -1
	z.attrPending = true
}

// finishAttr commits the in-progress attribute to the current tag token,
// flagging duplicates (the DM3 signal).
func (z *Tokenizer) finishAttr() {
	if !z.attrPending {
		return
	}
	z.attrPending = false
	a := Attribute{
		Name:  z.name.take(z.input),
		Quote: z.attrQuote,
		Pos:   z.attrPos,
	}
	if z.valStart >= 0 {
		// A value is finished on the delimiter just consumed; its raw
		// form is the source between the delimiters.
		a.Value = z.value.take(z.input)
		a.RawValue = zcString(z.input[z.valStart:z.prevPos])
	}
	for i := range z.cur.Attr {
		if z.cur.Attr[i].Name == a.Name {
			a.Duplicate = true
			z.parseError(ErrDuplicateAttribute, a.Name)
			break
		}
	}
	z.cur.Attr = append(z.cur.Attr, a)
}

// emitCurrentTag emits the current tag token, its name taken from data,
// where it stays through the attribute states.
func (z *Tokenizer) emitCurrentTag() {
	z.cur.Data = z.data.take(z.input)
	z.finishAttr()
	if z.cur.Type == EndTagToken {
		if len(z.cur.Attr) > 0 {
			z.parseError(ErrEndTagWithAttributes, z.cur.Data)
			z.cur.Attr = nil
		}
		if z.cur.SelfClosing {
			z.parseError(ErrEndTagWithTrailingSolidus, z.cur.Data)
			z.cur.SelfClosing = false
		}
	}
	z.emit(&z.cur)
}

// appropriateEndTag reports whether the end tag name in progress matches
// the last emitted start tag (relevant in RCDATA/RAWTEXT/script states).
func (z *Tokenizer) appropriateEndTag() bool {
	return string(z.data.bytes(z.input)) == z.lastStartTag
}

// ---- character references (spec 13.2.5.72 .. 13.2.5.80) ----

// consumeCharRef runs the character reference algorithm on the input after
// a '&' and adds the result to a: the replacement text, or the consumed
// characters themselves when they name nothing. inAttr selects the
// attribute-value variant.
func (z *Tokenizer) consumeCharRef(a *strAcc, inAttr bool) {
	amp := z.pos - 1
	r := z.peek()
	switch {
	case isASCIIAlnum(r):
		z.consumeNamedCharRef(a, inAttr, amp)
	case r == '#':
		z.next()
		z.consumeNumericCharRef(a, amp)
	default:
		a.add(z.input, amp, z.pos)
	}
}

func (z *Tokenizer) consumeNamedCharRef(a *strAcc, inAttr bool, amp int) {
	// Greedily take alphanumeric characters (bounded by the longest name),
	// then find the longest match with or without a trailing semicolon.
	start := amp + 1
	end := start
	for end < len(z.input) && end-start < maxEntityNameLen && isASCIIAlnumByte(z.input[end]) {
		end++
	}
	candidate := zcString(z.input[start:end])
	for l := len(candidate); l > 0; l-- {
		name := candidate[:l]
		withSemicolon := start+l < len(z.input) && z.input[start+l] == ';'
		if withSemicolon {
			if rep, ok := namedEntities[name]; ok {
				z.advanceTo(start + l + 1)
				a.addString(z.input, rep)
				return
			}
		}
		if rep, ok := legacyEntities[name]; ok {
			// Historical quirk: inside an attribute, a legacy reference
			// followed by '=' or an alphanumeric is NOT decoded.
			if inAttr && start+l < len(z.input) {
				nb := z.input[start+l]
				if nb == '=' || isASCIIAlnumByte(nb) {
					continue
				}
			}
			z.advanceTo(start + l)
			z.parseError(ErrMissingSemicolonAfterCharRef, name)
			a.addString(z.input, rep)
			return
		}
	}
	// No match: ambiguous ampersand. Flush the characters as-is; if the run
	// ends with a semicolon this is an unknown-named-character-reference.
	z.advanceTo(end)
	if end < len(z.input) && z.input[end] == ';' && end > start {
		z.parseError(ErrUnknownNamedCharacterReference, candidate)
	}
	a.add(z.input, amp, end)
}

func isASCIIAlnumByte(b byte) bool {
	return ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

// advanceTo moves the cursor to absolute offset off (a rune boundary).
// The reconsume snapshot lands on the last rune before off, exactly as a
// next() loop would leave it.
func (z *Tokenizer) advanceTo(off int) {
	if off <= z.pos {
		return
	}
	_, last := utf8.DecodeLastRune(z.input[z.pos:off])
	z.prevPos, z.pos = off-last, off
}

func (z *Tokenizer) consumeNumericCharRef(a *strAcc, amp int) {
	code := 0
	digits := 0
	hex := false
	if r := z.peek(); r == 'x' || r == 'X' {
		hex = true
		z.next()
	}
	for {
		r := z.peek()
		if hex && isASCIIHex(r) {
			z.next()
			code = code*16 + hexVal(r)
			digits++
		} else if !hex && isASCIIDigit(r) {
			z.next()
			code = code*10 + int(r-'0')
			digits++
		} else {
			break
		}
		if code > 0x10FFFF {
			code = 0x110000 // clamp; still counts as out of range
		}
	}
	if digits == 0 {
		z.parseError(ErrAbsenceOfDigitsInNumericCharRef, "")
		a.add(z.input, amp, z.pos)
		return
	}
	if z.peek() == ';' {
		z.next()
	} else {
		z.parseError(ErrMissingSemicolonAfterCharRef, "")
	}
	r := rune(code)
	switch {
	case code == 0:
		z.parseError(ErrNullCharacterReference, "")
		r = '�'
	case code > 0x10FFFF:
		z.parseError(ErrCharRefOutsideUnicodeRange, "")
		r = '�'
	case r >= 0xD800 && r <= 0xDFFF:
		z.parseError(ErrSurrogateCharacterReference, "")
		r = '�'
	case isNoncharacter(r):
		z.parseError(ErrNoncharacterCharacterReference, "")
	case isBadControl(r) || r == 0x0D:
		z.parseError(ErrControlCharacterReference, "")
		if rep, ok := numericReplacements[r]; ok {
			r = rep
		}
	}
	a.addRune(z.input, r)
}

func hexVal(r rune) int {
	switch {
	case isASCIIDigit(r):
		return int(r - '0')
	case r >= 'a' && r <= 'f':
		return int(r-'a') + 10
	default:
		return int(r-'A') + 10
	}
}

// ---- the state machine ----

// step consumes input in the current state until it either emits at least
// one token or transitions; it implements one spec state's character rules
// per invocation round.
func (z *Tokenizer) step() {
	switch z.state {
	case stateData:
		z.dataState()
	case stateRCDATA:
		z.rcdataState()
	case stateRAWTEXT:
		z.rawtextState()
	case stateScriptData:
		z.scriptDataState()
	case statePlaintext:
		z.plaintextState()
	case stateTagOpen:
		z.tagOpenState()
	case stateEndTagOpen:
		z.endTagOpenState()
	case stateTagName:
		z.tagNameState()
	case stateRCDATALessThan:
		z.rawLessThanState(stateRCDATA, stateRCDATAEndTagOpen)
	case stateRCDATAEndTagOpen:
		z.rawEndTagOpenState(stateRCDATA, stateRCDATAEndTagName)
	case stateRCDATAEndTagName:
		z.rawEndTagNameState(stateRCDATA)
	case stateRAWTEXTLessThan:
		z.rawLessThanState(stateRAWTEXT, stateRAWTEXTEndTagOpen)
	case stateRAWTEXTEndTagOpen:
		z.rawEndTagOpenState(stateRAWTEXT, stateRAWTEXTEndTagName)
	case stateRAWTEXTEndTagName:
		z.rawEndTagNameState(stateRAWTEXT)
	case stateScriptDataLessThan:
		z.scriptDataLessThanState()
	case stateScriptDataEndTagOpen:
		z.rawEndTagOpenState(stateScriptData, stateScriptDataEndTagName)
	case stateScriptDataEndTagName:
		z.rawEndTagNameState(stateScriptData)
	case stateScriptDataEscapeStart:
		z.scriptDataEscapeStartState()
	case stateScriptDataEscapeStartDash:
		z.scriptDataEscapeStartDashState()
	case stateScriptDataEscaped:
		z.scriptDataEscapedState()
	case stateScriptDataEscapedDash:
		z.scriptDataEscapedDashState()
	case stateScriptDataEscapedDashDash:
		z.scriptDataEscapedDashDashState()
	case stateScriptDataEscapedLessThan:
		z.scriptDataEscapedLessThanState()
	case stateScriptDataEscapedEndTagOpen:
		z.rawEndTagOpenState(stateScriptDataEscaped, stateScriptDataEscapedEndTagName)
	case stateScriptDataEscapedEndTagName:
		z.rawEndTagNameState(stateScriptDataEscaped)
	case stateScriptDataDoubleEscapeStart:
		z.scriptDataDoubleEscapeStartState()
	case stateScriptDataDoubleEscaped:
		z.scriptDataDoubleEscapedState()
	case stateScriptDataDoubleEscapedDash:
		z.scriptDataDoubleEscapedDashState()
	case stateScriptDataDoubleEscapedDashDash:
		z.scriptDataDoubleEscapedDashDashState()
	case stateScriptDataDoubleEscapedLessThan:
		z.scriptDataDoubleEscapedLessThanState()
	case stateScriptDataDoubleEscapeEnd:
		z.scriptDataDoubleEscapeEndState()
	case stateBeforeAttributeName:
		z.beforeAttributeNameState()
	case stateAttributeName:
		z.attributeNameState()
	case stateAfterAttributeName:
		z.afterAttributeNameState()
	case stateBeforeAttributeValue:
		z.beforeAttributeValueState()
	case stateAttributeValueDoubleQuoted:
		z.attributeValueQuotedState('"')
	case stateAttributeValueSingleQuoted:
		z.attributeValueQuotedState('\'')
	case stateAttributeValueUnquoted:
		z.attributeValueUnquotedState()
	case stateAfterAttributeValueQuoted:
		z.afterAttributeValueQuotedState()
	case stateSelfClosingStartTag:
		z.selfClosingStartTagState()
	case stateBogusComment:
		z.bogusCommentState()
	case stateMarkupDeclarationOpen:
		z.markupDeclarationOpenState()
	case stateCommentStart:
		z.commentStartState()
	case stateCommentStartDash:
		z.commentStartDashState()
	case stateComment:
		z.commentState()
	case stateCommentLessThan:
		z.commentLessThanState()
	case stateCommentLessThanBang:
		z.commentLessThanBangState()
	case stateCommentLessThanBangDash:
		z.commentLessThanBangDashState()
	case stateCommentLessThanBangDashDash:
		z.commentLessThanBangDashDashState()
	case stateCommentEndDash:
		z.commentEndDashState()
	case stateCommentEnd:
		z.commentEndState()
	case stateCommentEndBang:
		z.commentEndBangState()
	case stateDoctype:
		z.doctypeState()
	case stateBeforeDoctypeName:
		z.beforeDoctypeNameState()
	case stateDoctypeName:
		z.doctypeNameState()
	case stateAfterDoctypeName:
		z.afterDoctypeNameState()
	case stateAfterDoctypePublicKeyword:
		z.afterDoctypePublicKeywordState()
	case stateBeforeDoctypePublicIdentifier:
		z.beforeDoctypePublicIdentifierState()
	case stateDoctypePublicIdentifierDoubleQuoted:
		z.doctypePublicIdentifierState('"')
	case stateDoctypePublicIdentifierSingleQuoted:
		z.doctypePublicIdentifierState('\'')
	case stateAfterDoctypePublicIdentifier:
		z.afterDoctypePublicIdentifierState()
	case stateBetweenDoctypePublicAndSystemIdentifiers:
		z.betweenDoctypePublicAndSystemIdentifiersState()
	case stateAfterDoctypeSystemKeyword:
		z.afterDoctypeSystemKeywordState()
	case stateBeforeDoctypeSystemIdentifier:
		z.beforeDoctypeSystemIdentifierState()
	case stateDoctypeSystemIdentifierDoubleQuoted:
		z.doctypeSystemIdentifierState('"')
	case stateDoctypeSystemIdentifierSingleQuoted:
		z.doctypeSystemIdentifierState('\'')
	case stateAfterDoctypeSystemIdentifier:
		z.afterDoctypeSystemIdentifierState()
	case stateBogusDoctype:
		z.bogusDoctypeState()
	case stateCDATASection:
		z.cdataSectionState()
	case stateCDATASectionBracket:
		z.cdataSectionBracketState()
	case stateCDATASectionEnd:
		z.cdataSectionEndState()
	}
}

func (z *Tokenizer) dataState() {
	for {
		z.scanText('<', '&')
		switch r := z.next(); r {
		case '&':
			z.textCharRef()
		case '<':
			z.state = stateTagOpen
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.addTextChar()
		case eofRune:
			z.emitEOF()
			return
		default:
			z.addTextChar()
		}
	}
}

func (z *Tokenizer) rcdataState() {
	for {
		z.scanText('<', '&')
		switch r := z.next(); r {
		case '&':
			z.textCharRef()
		case '<':
			z.state = stateRCDATALessThan
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.addTextRune('�')
		case eofRune:
			z.emitEOF()
			return
		default:
			z.addTextChar()
		}
	}
}

func (z *Tokenizer) rawtextState() {
	for {
		z.scanText('<', '<')
		switch r := z.next(); r {
		case '<':
			z.state = stateRAWTEXTLessThan
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.addTextRune('�')
		case eofRune:
			z.emitEOF()
			return
		default:
			z.addTextChar()
		}
	}
}

func (z *Tokenizer) scriptDataState() {
	for {
		z.scanText('<', '<')
		switch r := z.next(); r {
		case '<':
			z.state = stateScriptDataLessThan
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.addTextRune('�')
		case eofRune:
			z.emitEOF()
			return
		default:
			z.addTextChar()
		}
	}
}

func (z *Tokenizer) plaintextState() {
	for {
		z.scanText(0, 0)
		switch r := z.next(); r {
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.addTextRune('�')
		case eofRune:
			z.emitEOF()
			return
		default:
			z.addTextChar()
		}
	}
}

func (z *Tokenizer) tagOpenState() {
	switch r := z.next(); {
	case r == '!':
		z.state = stateMarkupDeclarationOpen
	case r == '/':
		z.state = stateEndTagOpen
	case isASCIIAlpha(r):
		z.newTag(StartTagToken)
		z.back()
		z.state = stateTagName
	case r == '?':
		z.parseError(ErrUnexpectedQuestionMarkInsteadOfTag, "")
		z.cur = Token{Type: CommentToken, Pos: z.pos}
		z.back()
		z.state = stateBogusComment
	case r == eofRune:
		z.parseError(ErrEOFBeforeTagName, "")
		z.addText(z.prevPos-1, z.prevPos)
		z.emitEOF()
	default:
		z.parseError(ErrInvalidFirstCharacterOfTagName, string(r))
		z.addText(z.prevPos-1, z.prevPos)
		z.back()
		z.state = stateData
	}
}

func (z *Tokenizer) endTagOpenState() {
	switch r := z.next(); {
	case isASCIIAlpha(r):
		z.newTag(EndTagToken)
		z.back()
		z.state = stateTagName
	case r == '>':
		z.parseError(ErrMissingEndTagName, "")
		z.state = stateData
	case r == eofRune:
		z.parseError(ErrEOFBeforeTagName, "")
		z.addText(z.prevPos-2, z.prevPos)
		z.emitEOF()
	default:
		z.parseError(ErrInvalidFirstCharacterOfTagName, string(r))
		z.cur = Token{Type: CommentToken, Pos: z.pos}
		z.back()
		z.state = stateBogusComment
	}
}

func (z *Tokenizer) tagNameState() {
	for {
		off := z.pos
		z.scanTable(tagNameSafe)
		z.data.add(z.input, off, z.pos)
		r := z.next()
		switch {
		case isWhitespace(r):
			z.state = stateBeforeAttributeName
			return
		case r == '/':
			z.state = stateSelfClosingStartTag
			return
		case r == '>':
			z.state = stateData
			z.emitCurrentTag()
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.data.addRune(z.input, '�')
		case r == eofRune:
			z.parseError(ErrEOFInTag, "")
			z.emitEOF()
			return
		default:
			z.addLower(&z.data, r)
		}
	}
}

// rawLessThanState handles the "< in RCDATA/RAWTEXT" states.
func (z *Tokenizer) rawLessThanState(content, endTagOpen state) {
	if z.next() == '/' {
		z.state = endTagOpen
		return
	}
	z.addText(z.prevPos-1, z.prevPos)
	z.back()
	z.state = content
}

func (z *Tokenizer) rawEndTagOpenState(content, endTagName state) {
	if r := z.next(); isASCIIAlpha(r) {
		z.newTag(EndTagToken)
		z.tmpStart = z.prevPos
		z.back()
		z.state = endTagName
		return
	}
	z.addText(z.prevPos-2, z.prevPos)
	z.back()
	z.state = content
}

func (z *Tokenizer) rawEndTagNameState(content state) {
	for {
		r := z.next()
		switch {
		case isWhitespace(r) && z.appropriateEndTag():
			z.state = stateBeforeAttributeName
			return
		case r == '/' && z.appropriateEndTag():
			z.state = stateSelfClosingStartTag
			return
		case r == '>' && z.appropriateEndTag():
			z.state = stateData
			z.emitCurrentTag()
			return
		case isASCIIAlpha(r):
			z.addLower(&z.data, r)
		default:
			// Not this element's end tag: "</" and the letters are text.
			z.data.reset()
			z.addText(z.tmpStart-2, z.prevPos)
			z.back()
			z.state = content
			return
		}
	}
}

func (z *Tokenizer) scriptDataLessThanState() {
	switch r := z.next(); r {
	case '/':
		z.state = stateScriptDataEndTagOpen
	case '!':
		z.state = stateScriptDataEscapeStart
		z.addText(z.prevPos-1, z.pos)
	default:
		z.addText(z.prevPos-1, z.prevPos)
		z.back()
		z.state = stateScriptData
	}
}

func (z *Tokenizer) scriptDataEscapeStartState() {
	if z.next() == '-' {
		z.state = stateScriptDataEscapeStartDash
		z.addTextChar()
		return
	}
	z.back()
	z.state = stateScriptData
}

func (z *Tokenizer) scriptDataEscapeStartDashState() {
	if z.next() == '-' {
		z.state = stateScriptDataEscapedDashDash
		z.addTextChar()
		return
	}
	z.back()
	z.state = stateScriptData
}

func (z *Tokenizer) scriptDataEscapedState() {
	switch r := z.next(); r {
	case '-':
		z.state = stateScriptDataEscapedDash
		z.addTextChar()
	case '<':
		z.state = stateScriptDataEscapedLessThan
	case 0:
		z.parseError(ErrUnexpectedNullCharacter, "")
		z.addTextRune('�')
	case eofRune:
		z.parseError(ErrEOFInScriptHTMLCommentLikeText, "")
		z.emitEOF()
	default:
		z.addTextChar()
	}
}

func (z *Tokenizer) scriptDataEscapedDashState() {
	switch r := z.next(); r {
	case '-':
		z.state = stateScriptDataEscapedDashDash
		z.addTextChar()
	case '<':
		z.state = stateScriptDataEscapedLessThan
	case 0:
		z.parseError(ErrUnexpectedNullCharacter, "")
		z.state = stateScriptDataEscaped
		z.addTextRune('�')
	case eofRune:
		z.parseError(ErrEOFInScriptHTMLCommentLikeText, "")
		z.emitEOF()
	default:
		z.state = stateScriptDataEscaped
		z.addTextChar()
	}
}

func (z *Tokenizer) scriptDataEscapedDashDashState() {
	switch r := z.next(); r {
	case '-':
		z.addTextChar()
	case '<':
		z.state = stateScriptDataEscapedLessThan
	case '>':
		z.state = stateScriptData
		z.addTextChar()
	case 0:
		z.parseError(ErrUnexpectedNullCharacter, "")
		z.state = stateScriptDataEscaped
		z.addTextRune('�')
	case eofRune:
		z.parseError(ErrEOFInScriptHTMLCommentLikeText, "")
		z.emitEOF()
	default:
		z.state = stateScriptDataEscaped
		z.addTextChar()
	}
}

func (z *Tokenizer) scriptDataEscapedLessThanState() {
	switch r := z.next(); {
	case r == '/':
		z.state = stateScriptDataEscapedEndTagOpen
	case isASCIIAlpha(r):
		z.tmpStart = z.prevPos
		z.addText(z.prevPos-1, z.prevPos)
		z.back()
		z.state = stateScriptDataDoubleEscapeStart
	default:
		z.addText(z.prevPos-1, z.prevPos)
		z.back()
		z.state = stateScriptDataEscaped
	}
}

// tmpIsScript reports whether the letters since tmpStart, up to the
// character just consumed, spell "script" in any case.
func (z *Tokenizer) tmpIsScript() bool {
	return strings.EqualFold(zcString(z.input[z.tmpStart:z.prevPos]), "script")
}

func (z *Tokenizer) scriptDataDoubleEscapeStartState() {
	r := z.next()
	switch {
	case isWhitespace(r) || r == '/' || r == '>':
		if z.tmpIsScript() {
			z.state = stateScriptDataDoubleEscaped
		} else {
			z.state = stateScriptDataEscaped
		}
		z.addTextChar()
	case isASCIIAlpha(r):
		z.addTextChar()
	default:
		z.back()
		z.state = stateScriptDataEscaped
	}
}

func (z *Tokenizer) scriptDataDoubleEscapedState() {
	switch r := z.next(); r {
	case '-':
		z.state = stateScriptDataDoubleEscapedDash
		z.addTextChar()
	case '<':
		z.state = stateScriptDataDoubleEscapedLessThan
		z.addTextChar()
	case 0:
		z.parseError(ErrUnexpectedNullCharacter, "")
		z.addTextRune('�')
	case eofRune:
		z.parseError(ErrEOFInScriptHTMLCommentLikeText, "")
		z.emitEOF()
	default:
		z.addTextChar()
	}
}

func (z *Tokenizer) scriptDataDoubleEscapedDashState() {
	switch r := z.next(); r {
	case '-':
		z.state = stateScriptDataDoubleEscapedDashDash
		z.addTextChar()
	case '<':
		z.state = stateScriptDataDoubleEscapedLessThan
		z.addTextChar()
	case 0:
		z.parseError(ErrUnexpectedNullCharacter, "")
		z.state = stateScriptDataDoubleEscaped
		z.addTextRune('�')
	case eofRune:
		z.parseError(ErrEOFInScriptHTMLCommentLikeText, "")
		z.emitEOF()
	default:
		z.state = stateScriptDataDoubleEscaped
		z.addTextChar()
	}
}

func (z *Tokenizer) scriptDataDoubleEscapedDashDashState() {
	switch r := z.next(); r {
	case '-':
		z.addTextChar()
	case '<':
		z.state = stateScriptDataDoubleEscapedLessThan
		z.addTextChar()
	case '>':
		z.state = stateScriptData
		z.addTextChar()
	case 0:
		z.parseError(ErrUnexpectedNullCharacter, "")
		z.state = stateScriptDataDoubleEscaped
		z.addTextRune('�')
	case eofRune:
		z.parseError(ErrEOFInScriptHTMLCommentLikeText, "")
		z.emitEOF()
	default:
		z.state = stateScriptDataDoubleEscaped
		z.addTextChar()
	}
}

func (z *Tokenizer) scriptDataDoubleEscapedLessThanState() {
	if z.next() == '/' {
		z.tmpStart = z.pos
		z.state = stateScriptDataDoubleEscapeEnd
		z.addTextChar()
		return
	}
	z.back()
	z.state = stateScriptDataDoubleEscaped
}

func (z *Tokenizer) scriptDataDoubleEscapeEndState() {
	r := z.next()
	switch {
	case isWhitespace(r) || r == '/' || r == '>':
		if z.tmpIsScript() {
			z.state = stateScriptDataEscaped
		} else {
			z.state = stateScriptDataDoubleEscaped
		}
		z.addTextChar()
	case isASCIIAlpha(r):
		z.addTextChar()
	default:
		z.back()
		z.state = stateScriptDataDoubleEscaped
	}
}

func (z *Tokenizer) beforeAttributeNameState() {
	for {
		r := z.next()
		switch {
		case isWhitespace(r):
			// ignore
		case r == '/' || r == '>' || r == eofRune:
			z.back()
			z.state = stateAfterAttributeName
			return
		case r == '=':
			z.parseError(ErrUnexpectedEqualsSignBeforeAttrName, "")
			z.startNewAttr()
			z.addChar(&z.name)
			z.state = stateAttributeName
			return
		default:
			z.startNewAttr()
			z.back()
			z.state = stateAttributeName
			return
		}
	}
}

func (z *Tokenizer) attributeNameState() {
	for {
		off := z.pos
		z.scanTable(attrNameSafe)
		z.name.add(z.input, off, z.pos)
		r := z.next()
		switch {
		case isWhitespace(r) || r == '/' || r == '>' || r == eofRune:
			z.back()
			z.state = stateAfterAttributeName
			return
		case r == '=':
			z.state = stateBeforeAttributeValue
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.name.addRune(z.input, '�')
		case r == '"' || r == '\'' || r == '<':
			z.parseError(ErrUnexpectedCharacterInAttributeName, string(r))
			z.addChar(&z.name)
		default:
			z.addLower(&z.name, r)
		}
	}
}

func (z *Tokenizer) afterAttributeNameState() {
	for {
		r := z.next()
		switch {
		case isWhitespace(r):
			// ignore
		case r == '/':
			z.finishAttr()
			z.state = stateSelfClosingStartTag
			return
		case r == '=':
			z.state = stateBeforeAttributeValue
			return
		case r == '>':
			z.finishAttr()
			z.state = stateData
			z.emitCurrentTag()
			return
		case r == eofRune:
			z.parseError(ErrEOFInTag, "")
			z.emitEOF()
			return
		default:
			z.finishAttr()
			z.startNewAttr()
			z.back()
			z.state = stateAttributeName
			return
		}
	}
}

func (z *Tokenizer) beforeAttributeValueState() {
	for {
		r := z.next()
		switch {
		case isWhitespace(r):
			// ignore
		case r == '"':
			z.attrQuote = '"'
			z.valStart = z.pos
			z.state = stateAttributeValueDoubleQuoted
			return
		case r == '\'':
			z.attrQuote = '\''
			z.valStart = z.pos
			z.state = stateAttributeValueSingleQuoted
			return
		case r == '>':
			z.parseError(ErrMissingAttributeValue, string(z.name.bytes(z.input)))
			z.finishAttr()
			z.state = stateData
			z.emitCurrentTag()
			return
		default:
			z.back()
			z.valStart = z.pos
			z.state = stateAttributeValueUnquoted
			return
		}
	}
}

func (z *Tokenizer) attributeValueQuotedState(quote rune) {
	for {
		off := z.pos
		z.scanUntil(byte(quote), '&')
		z.value.add(z.input, off, z.pos)
		r := z.next()
		switch {
		case r == quote:
			z.finishAttr()
			z.state = stateAfterAttributeValueQuoted
			return
		case r == '&':
			z.consumeCharRef(&z.value, true)
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.value.addRune(z.input, '�')
		case r == eofRune:
			z.parseError(ErrEOFInTag, "")
			z.emitEOF()
			return
		default:
			z.addChar(&z.value)
		}
	}
}

func (z *Tokenizer) attributeValueUnquotedState() {
	for {
		off := z.pos
		z.scanTable(unquotedValueSafe)
		z.value.add(z.input, off, z.pos)
		r := z.next()
		switch {
		case isWhitespace(r):
			z.finishAttr()
			z.state = stateBeforeAttributeName
			return
		case r == '&':
			z.consumeCharRef(&z.value, true)
		case r == '>':
			z.finishAttr()
			z.state = stateData
			z.emitCurrentTag()
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.value.addRune(z.input, '�')
		case r == '"' || r == '\'' || r == '<' || r == '=' || r == '`':
			z.parseError(ErrUnexpectedCharInUnquotedAttrValue, string(r))
			z.addChar(&z.value)
		case r == eofRune:
			z.parseError(ErrEOFInTag, "")
			z.emitEOF()
			return
		default:
			z.addChar(&z.value)
		}
	}
}

func (z *Tokenizer) afterAttributeValueQuotedState() {
	r := z.next()
	switch {
	case isWhitespace(r):
		z.state = stateBeforeAttributeName
	case r == '/':
		z.state = stateSelfClosingStartTag
	case r == '>':
		z.state = stateData
		z.emitCurrentTag()
	case r == eofRune:
		z.parseError(ErrEOFInTag, "")
		z.emitEOF()
	default:
		// The FB2 signal: two attributes with no whitespace between them.
		z.parseError(ErrMissingWhitespaceBetweenAttributes, "")
		z.back()
		z.state = stateBeforeAttributeName
	}
}

func (z *Tokenizer) selfClosingStartTagState() {
	r := z.next()
	switch {
	case r == '>':
		z.cur.SelfClosing = true
		z.state = stateData
		z.emitCurrentTag()
	case r == eofRune:
		z.parseError(ErrEOFInTag, "")
		z.emitEOF()
	default:
		// The FB1 signal: a solidus used as attribute separator.
		z.parseError(ErrUnexpectedSolidusInTag, "")
		z.back()
		z.state = stateBeforeAttributeName
	}
}

func (z *Tokenizer) bogusCommentState() {
	for {
		off := z.pos
		z.scanUntil('>', '>')
		z.data.add(z.input, off, z.pos)
		switch r := z.next(); r {
		case '>':
			z.state = stateData
			z.emitComment()
			return
		case eofRune:
			z.emitComment()
			z.emitEOF()
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.data.addRune(z.input, '�')
		default:
			z.addChar(&z.data)
		}
	}
}

func (z *Tokenizer) markupDeclarationOpenState() {
	rest := z.input[z.pos:]
	switch {
	case len(rest) >= 2 && rest[0] == '-' && rest[1] == '-':
		z.advanceTo(z.pos + 2)
		z.cur = Token{Type: CommentToken, Pos: z.pos}
		z.state = stateCommentStart
	case len(rest) >= 7 && strings.EqualFold(string(rest[:7]), "doctype"):
		z.advanceTo(z.pos + 7)
		z.state = stateDoctype
	case len(rest) >= 7 && string(rest[:7]) == "[CDATA[":
		z.advanceTo(z.pos + 7)
		// Whether CDATA is legal depends on the adjusted current node being
		// in a foreign namespace; the tree builder owns that knowledge and
		// toggles AllowCDATA. Standalone, treat it as the spec's
		// cdata-in-html-content bogus comment.
		if z.AllowCDATA != nil && z.AllowCDATA() {
			z.state = stateCDATASection
		} else {
			z.parseError(ErrCDATAInHTMLContent, "")
			z.cur = Token{Type: CommentToken, Pos: z.pos}
			z.data.add(z.input, z.pos-len("[CDATA["), z.pos)
			z.state = stateBogusComment
		}
	default:
		z.parseError(ErrIncorrectlyOpenedComment, "")
		z.cur = Token{Type: CommentToken, Pos: z.pos}
		z.state = stateBogusComment
	}
}

func (z *Tokenizer) commentStartState() {
	switch r := z.next(); r {
	case '-':
		z.state = stateCommentStartDash
	case '>':
		z.parseError(ErrAbruptClosingOfEmptyComment, "")
		z.state = stateData
		z.emitComment()
	default:
		z.back()
		z.state = stateComment
	}
}

func (z *Tokenizer) commentStartDashState() {
	switch r := z.next(); r {
	case '-':
		z.state = stateCommentEnd
	case '>':
		z.parseError(ErrAbruptClosingOfEmptyComment, "")
		z.state = stateData
		z.emitComment()
	case eofRune:
		z.parseError(ErrEOFInComment, "")
		z.emitComment()
		z.emitEOF()
	default:
		z.data.add(z.input, z.prevPos-1, z.prevPos)
		z.back()
		z.state = stateComment
	}
}

func (z *Tokenizer) commentState() {
	for {
		off := z.pos
		z.scanUntil('<', '-')
		z.data.add(z.input, off, z.pos)
		switch r := z.next(); r {
		case '<':
			z.addChar(&z.data)
			z.state = stateCommentLessThan
			return
		case '-':
			z.state = stateCommentEndDash
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.data.addRune(z.input, '�')
		case eofRune:
			z.parseError(ErrEOFInComment, "")
			z.emitComment()
			z.emitEOF()
			return
		default:
			z.addChar(&z.data)
		}
	}
}

func (z *Tokenizer) commentLessThanState() {
	switch r := z.next(); r {
	case '!':
		z.addChar(&z.data)
		z.state = stateCommentLessThanBang
	case '<':
		z.addChar(&z.data)
	default:
		z.back()
		z.state = stateComment
	}
}

func (z *Tokenizer) commentLessThanBangState() {
	if z.next() == '-' {
		z.state = stateCommentLessThanBangDash
		return
	}
	z.back()
	z.state = stateComment
}

func (z *Tokenizer) commentLessThanBangDashState() {
	if z.next() == '-' {
		z.state = stateCommentLessThanBangDashDash
		return
	}
	z.back()
	z.state = stateCommentEndDash
}

func (z *Tokenizer) commentLessThanBangDashDashState() {
	r := z.next()
	if r != '>' && r != eofRune {
		z.parseError(ErrNestedComment, "")
	}
	z.back()
	z.state = stateCommentEnd
}

func (z *Tokenizer) commentEndDashState() {
	switch r := z.next(); r {
	case '-':
		z.state = stateCommentEnd
	case eofRune:
		z.parseError(ErrEOFInComment, "")
		z.emitComment()
		z.emitEOF()
	default:
		z.data.add(z.input, z.prevPos-1, z.prevPos)
		z.back()
		z.state = stateComment
	}
}

func (z *Tokenizer) commentEndState() {
	switch r := z.next(); r {
	case '>':
		z.state = stateData
		z.emitComment()
	case '!':
		z.state = stateCommentEndBang
	case '-':
		// "---": the first dash of the pending pair is data.
		z.data.add(z.input, z.prevPos-2, z.prevPos-1)
	case eofRune:
		z.parseError(ErrEOFInComment, "")
		z.emitComment()
		z.emitEOF()
	default:
		z.data.add(z.input, z.prevPos-2, z.prevPos)
		z.back()
		z.state = stateComment
	}
}

func (z *Tokenizer) commentEndBangState() {
	switch r := z.next(); r {
	case '-':
		z.data.add(z.input, z.prevPos-3, z.prevPos)
		z.state = stateCommentEndDash
	case '>':
		z.parseError(ErrIncorrectlyClosedComment, "")
		z.state = stateData
		z.emitComment()
	case eofRune:
		z.parseError(ErrEOFInComment, "")
		z.emitComment()
		z.emitEOF()
	default:
		z.data.add(z.input, z.prevPos-3, z.prevPos)
		z.back()
		z.state = stateComment
	}
}

func (z *Tokenizer) doctypeState() {
	r := z.next()
	switch {
	case isWhitespace(r):
		z.state = stateBeforeDoctypeName
	case r == '>':
		z.back()
		z.state = stateBeforeDoctypeName
	case r == eofRune:
		z.parseError(ErrEOFInDoctype, "")
		z.emit(&Token{Type: DoctypeToken, ForceQuirks: true, Pos: z.pos})
		z.emitEOF()
	default:
		z.parseError(ErrMissingWhitespaceBeforeDoctypeName, "")
		z.back()
		z.state = stateBeforeDoctypeName
	}
}

func (z *Tokenizer) beforeDoctypeNameState() {
	for {
		r := z.next()
		switch {
		case isWhitespace(r):
			// ignore
		case r == '>':
			z.parseError(ErrMissingDoctypeName, "")
			z.state = stateData
			z.emit(&Token{Type: DoctypeToken, ForceQuirks: true, Pos: z.pos})
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.emit(&Token{Type: DoctypeToken, ForceQuirks: true, Pos: z.pos})
			z.emitEOF()
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.cur = Token{Type: DoctypeToken, Pos: z.pos}
			z.data.addRune(z.input, '�')
			z.state = stateDoctypeName
			return
		default:
			z.cur = Token{Type: DoctypeToken, Pos: z.pos}
			z.addLower(&z.data, r)
			z.state = stateDoctypeName
			return
		}
	}
}

func (z *Tokenizer) doctypeNameState() {
	for {
		r := z.next()
		switch {
		case isWhitespace(r):
			z.cur.Data = z.data.take(z.input)
			z.state = stateAfterDoctypeName
			return
		case r == '>':
			z.cur.Data = z.data.take(z.input)
			z.state = stateData
			z.emit(&z.cur)
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.data.addRune(z.input, '�')
		case r == eofRune:
			z.cur.Data = z.data.take(z.input)
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(&z.cur)
			z.emitEOF()
			return
		default:
			z.addLower(&z.data, r)
		}
	}
}

func (z *Tokenizer) afterDoctypeNameState() {
	for {
		r := z.next()
		switch {
		case isWhitespace(r):
			// ignore
		case r == '>':
			z.state = stateData
			z.emit(&z.cur)
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(&z.cur)
			z.emitEOF()
			return
		default:
			rest := z.input[z.prevPos:]
			if len(rest) >= 6 && strings.EqualFold(string(rest[:6]), "public") {
				z.advanceTo(z.prevPos + 6)
				z.state = stateAfterDoctypePublicKeyword
				return
			}
			if len(rest) >= 6 && strings.EqualFold(string(rest[:6]), "system") {
				z.advanceTo(z.prevPos + 6)
				z.state = stateAfterDoctypeSystemKeyword
				return
			}
			z.parseError(ErrInvalidCharacterSequenceAfterDT, "")
			z.cur.ForceQuirks = true
			z.back()
			z.state = stateBogusDoctype
			return
		}
	}
}

func (z *Tokenizer) afterDoctypePublicKeywordState() {
	r := z.next()
	switch {
	case isWhitespace(r):
		z.state = stateBeforeDoctypePublicIdentifier
	case r == '"':
		z.parseError(ErrMissingWhitespaceAfterDoctypeKW, "")
		z.state = stateDoctypePublicIdentifierDoubleQuoted
	case r == '\'':
		z.parseError(ErrMissingWhitespaceAfterDoctypeKW, "")
		z.state = stateDoctypePublicIdentifierSingleQuoted
	case r == '>':
		z.parseError(ErrMissingDoctypePublicIdentifier, "")
		z.cur.ForceQuirks = true
		z.state = stateData
		z.emit(&z.cur)
	case r == eofRune:
		z.parseError(ErrEOFInDoctype, "")
		z.cur.ForceQuirks = true
		z.emit(&z.cur)
		z.emitEOF()
	default:
		z.parseError(ErrMissingQuoteBeforeDoctypePublicID, "")
		z.cur.ForceQuirks = true
		z.back()
		z.state = stateBogusDoctype
	}
}

func (z *Tokenizer) beforeDoctypePublicIdentifierState() {
	for {
		r := z.next()
		switch {
		case isWhitespace(r):
		case r == '"':
			z.state = stateDoctypePublicIdentifierDoubleQuoted
			return
		case r == '\'':
			z.state = stateDoctypePublicIdentifierSingleQuoted
			return
		case r == '>':
			z.parseError(ErrMissingDoctypePublicIdentifier, "")
			z.cur.ForceQuirks = true
			z.state = stateData
			z.emit(&z.cur)
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(&z.cur)
			z.emitEOF()
			return
		default:
			z.parseError(ErrMissingQuoteBeforeDoctypePublicID, "")
			z.cur.ForceQuirks = true
			z.back()
			z.state = stateBogusDoctype
			return
		}
	}
}

func (z *Tokenizer) doctypePublicIdentifierState(quote rune) {
	for {
		r := z.next()
		switch {
		case r == quote:
			z.cur.PublicID = z.data.take(z.input)
			z.state = stateAfterDoctypePublicIdentifier
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.data.addRune(z.input, '�')
		case r == '>':
			z.cur.PublicID = z.data.take(z.input)
			z.parseError(ErrAbruptDoctypePublicIdentifier, "")
			z.cur.ForceQuirks = true
			z.state = stateData
			z.emit(&z.cur)
			return
		case r == eofRune:
			z.cur.PublicID = z.data.take(z.input)
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(&z.cur)
			z.emitEOF()
			return
		default:
			z.addChar(&z.data)
		}
	}
}

func (z *Tokenizer) afterDoctypePublicIdentifierState() {
	r := z.next()
	switch {
	case isWhitespace(r):
		z.state = stateBetweenDoctypePublicAndSystemIdentifiers
	case r == '>':
		z.state = stateData
		z.emit(&z.cur)
	case r == '"':
		z.parseError(ErrMissingWhitespaceBetweenDTIDs, "")
		z.state = stateDoctypeSystemIdentifierDoubleQuoted
	case r == '\'':
		z.parseError(ErrMissingWhitespaceBetweenDTIDs, "")
		z.state = stateDoctypeSystemIdentifierSingleQuoted
	case r == eofRune:
		z.parseError(ErrEOFInDoctype, "")
		z.cur.ForceQuirks = true
		z.emit(&z.cur)
		z.emitEOF()
	default:
		z.parseError(ErrMissingQuoteBeforeDoctypeSystemID, "")
		z.cur.ForceQuirks = true
		z.back()
		z.state = stateBogusDoctype
	}
}

func (z *Tokenizer) betweenDoctypePublicAndSystemIdentifiersState() {
	for {
		r := z.next()
		switch {
		case isWhitespace(r):
		case r == '>':
			z.state = stateData
			z.emit(&z.cur)
			return
		case r == '"':
			z.state = stateDoctypeSystemIdentifierDoubleQuoted
			return
		case r == '\'':
			z.state = stateDoctypeSystemIdentifierSingleQuoted
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(&z.cur)
			z.emitEOF()
			return
		default:
			z.parseError(ErrMissingQuoteBeforeDoctypeSystemID, "")
			z.cur.ForceQuirks = true
			z.back()
			z.state = stateBogusDoctype
			return
		}
	}
}

func (z *Tokenizer) afterDoctypeSystemKeywordState() {
	r := z.next()
	switch {
	case isWhitespace(r):
		z.state = stateBeforeDoctypeSystemIdentifier
	case r == '"':
		z.parseError(ErrMissingWhitespaceAfterDoctypeKW, "")
		z.state = stateDoctypeSystemIdentifierDoubleQuoted
	case r == '\'':
		z.parseError(ErrMissingWhitespaceAfterDoctypeKW, "")
		z.state = stateDoctypeSystemIdentifierSingleQuoted
	case r == '>':
		z.parseError(ErrMissingDoctypeSystemIdentifier, "")
		z.cur.ForceQuirks = true
		z.state = stateData
		z.emit(&z.cur)
	case r == eofRune:
		z.parseError(ErrEOFInDoctype, "")
		z.cur.ForceQuirks = true
		z.emit(&z.cur)
		z.emitEOF()
	default:
		z.parseError(ErrMissingQuoteBeforeDoctypeSystemID, "")
		z.cur.ForceQuirks = true
		z.back()
		z.state = stateBogusDoctype
	}
}

func (z *Tokenizer) beforeDoctypeSystemIdentifierState() {
	for {
		r := z.next()
		switch {
		case isWhitespace(r):
		case r == '"':
			z.state = stateDoctypeSystemIdentifierDoubleQuoted
			return
		case r == '\'':
			z.state = stateDoctypeSystemIdentifierSingleQuoted
			return
		case r == '>':
			z.parseError(ErrMissingDoctypeSystemIdentifier, "")
			z.cur.ForceQuirks = true
			z.state = stateData
			z.emit(&z.cur)
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(&z.cur)
			z.emitEOF()
			return
		default:
			z.parseError(ErrMissingQuoteBeforeDoctypeSystemID, "")
			z.cur.ForceQuirks = true
			z.back()
			z.state = stateBogusDoctype
			return
		}
	}
}

func (z *Tokenizer) doctypeSystemIdentifierState(quote rune) {
	for {
		r := z.next()
		switch {
		case r == quote:
			z.cur.SystemID = z.data.take(z.input)
			z.state = stateAfterDoctypeSystemIdentifier
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.data.addRune(z.input, '�')
		case r == '>':
			z.cur.SystemID = z.data.take(z.input)
			z.parseError(ErrAbruptDoctypeSystemIdentifier, "")
			z.cur.ForceQuirks = true
			z.state = stateData
			z.emit(&z.cur)
			return
		case r == eofRune:
			z.cur.SystemID = z.data.take(z.input)
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(&z.cur)
			z.emitEOF()
			return
		default:
			z.addChar(&z.data)
		}
	}
}

func (z *Tokenizer) afterDoctypeSystemIdentifierState() {
	for {
		r := z.next()
		switch {
		case isWhitespace(r):
		case r == '>':
			z.state = stateData
			z.emit(&z.cur)
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(&z.cur)
			z.emitEOF()
			return
		default:
			z.parseError(ErrUnexpectedCharacterAfterDTSystemID, "")
			z.back()
			z.state = stateBogusDoctype
			return
		}
	}
}

func (z *Tokenizer) bogusDoctypeState() {
	for {
		r := z.next()
		switch r {
		case '>':
			z.state = stateData
			z.emit(&z.cur)
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
		case eofRune:
			z.emit(&z.cur)
			z.emitEOF()
			return
		}
	}
}

func (z *Tokenizer) cdataSectionState() {
	for {
		z.scanText(']', ']')
		switch r := z.next(); r {
		case ']':
			z.state = stateCDATASectionBracket
			return
		case eofRune:
			z.parseError(ErrEOFInCDATA, "")
			z.emitEOF()
			return
		default:
			// NUL reaches here (scanUntil always stops on it); CDATA carries
			// it through verbatim, matching the spec's lack of a tokenizer
			// error in this state.
			z.addTextChar()
		}
	}
}

func (z *Tokenizer) cdataSectionBracketState() {
	if z.next() == ']' {
		z.state = stateCDATASectionEnd
		return
	}
	z.addText(z.prevPos-1, z.prevPos)
	z.back()
	z.state = stateCDATASection
}

func (z *Tokenizer) cdataSectionEndState() {
	switch r := z.next(); r {
	case ']':
		// "]]]": the first bracket of the pending pair is text.
		z.addText(z.prevPos-2, z.prevPos-1)
	case '>':
		z.state = stateData
	default:
		z.addText(z.prevPos-2, z.prevPos)
		z.back()
		z.state = stateCDATASection
	}
}

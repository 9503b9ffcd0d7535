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
	line  int
	col   int

	// one-step back support for the spec's "reconsume" instruction
	prevPos, prevLine, prevCol int

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

	errors []ParseError
	queue  []Token
	qhead  int // queue read index; lets Next reuse the queue's backing array

	textBuf  []byte //hv:view recycled text scratch, reset to [:0] between parses
	textPos  Position
	haveText bool
	// Zero-copy text tracking: while a pending character run is exactly one
	// contiguous, untransformed span of the input, it is carried as
	// [spanStart, spanEnd) instead of being copied into textBuf. The first
	// transformation (character reference, NUL replacement) or
	// discontinuity materializes the span into textBuf and falls back to
	// the copying path.
	spanStart, spanEnd int
	spanOK             bool

	cur Token

	attrName  []byte //hv:view recycled attribute-name scratch
	attrValue []byte //hv:view recycled attribute-value scratch
	attrRaw   []byte //hv:view recycled raw-attribute-value scratch
	// Zero-copy attribute tracking, same scheme as the text span: while the
	// in-progress attribute name (or value) is one untransformed input
	// span, no bytes are copied and finishAttr emits string views instead.
	nameSpanStart, nameSpanEnd int
	nameSpanOK                 bool
	valSpanStart, valSpanEnd   int
	valSpanOK                  bool
	attrPending                bool

	attrQuote  byte
	attrPos    Position
	tmpBuf     []byte //hv:view recycled character-reference scratch
	emittedEOF bool
}

// NewTokenizer returns a tokenizer over a preprocessed input stream (see
// Preprocess). Standalone use gets automatic raw-text switching.
func NewTokenizer(input []byte) *Tokenizer {
	return &Tokenizer{input: input, line: 1, col: 1, state: stateData, AutoRaw: true}
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

// position reports the tokenizer's current position.
func (z *Tokenizer) position() Position {
	return Position{Offset: z.pos, Line: z.line, Col: z.col}
}

//hv:hotpath per-character cursor advance, one call per input rune
func (z *Tokenizer) next() rune {
	z.prevPos, z.prevLine, z.prevCol = z.pos, z.line, z.col
	if z.pos >= len(z.input) {
		return eofRune
	}
	r, size := utf8.DecodeRune(z.input[z.pos:])
	z.pos += size
	if r == '\n' {
		z.line++
		z.col = 1
	} else {
		z.col++
	}
	return r
}

// back un-consumes the most recently consumed character ("reconsume").
//
//hv:hotpath reconsume companion to next
func (z *Tokenizer) back() {
	z.pos, z.line, z.col = z.prevPos, z.prevLine, z.prevCol
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

var nlSlice = []byte{'\n'}

// advance moves the cursor past chunk (which must start at z.pos),
// updating line/col bookkeeping in bulk: one newline count and one rune
// count per chunk instead of per-character work. It does not touch the
// one-step reconsume state; callers never back() across a chunk.
//
//hv:hotpath bulk cursor bookkeeping behind every chunk scan
func (z *Tokenizer) advance(chunk []byte) {
	if nl := bytes.Count(chunk, nlSlice); nl > 0 {
		z.line += nl
		z.col = 1 + utf8.RuneCount(chunk[bytes.LastIndexByte(chunk, '\n')+1:])
	} else {
		z.col += utf8.RuneCount(chunk)
	}
	z.pos += len(chunk)
}

// scanUntil consumes and returns the maximal run of input containing
// neither stop byte nor NUL (NUL always terminates a run because every
// content state treats it specially). Pass the same byte twice to scan
// for a single stop byte. The stop byte itself is left unconsumed for the
// caller's next() switch.
//
//hv:hotpath memchr-style bulk scan, the benchmark-gated fast path
func (z *Tokenizer) scanUntil(stop1, stop2 byte) []byte {
	s := z.input[z.pos:]
	n := len(s)
	if i := bytes.IndexByte(s, stop1); i >= 0 {
		n = i
	}
	if stop2 != stop1 {
		if i := bytes.IndexByte(s[:n], stop2); i >= 0 {
			n = i
		}
	}
	if stop1 != 0 {
		if i := bytes.IndexByte(s[:n], 0); i >= 0 {
			n = i
		}
	}
	if n == 0 {
		return nil
	}
	chunk := s[:n]
	z.advance(chunk)
	return chunk
}

// scanTable consumes and returns the maximal run of bytes b with safe[b]
// set. Tables mark every byte a state passes through verbatim; bytes
// needing a transformation (case folding, NUL replacement), a transition,
// or a parse error stay unsafe so the per-rune switch handles them.
//
//hv:hotpath table-driven bulk scan, the benchmark-gated fast path
func (z *Tokenizer) scanTable(safe *[256]bool) []byte {
	s := z.input
	i := z.pos
	for i < len(s) && safe[s[i]] {
		i++
	}
	if i == z.pos {
		return nil
	}
	chunk := s[z.pos:i]
	z.advance(chunk)
	return chunk
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
	z.errors = append(z.errors, ParseError{Code: code, Pos: z.position(), Detail: detail})
}

//hv:hotpath per-rune text accumulation into recycled scratch
func (z *Tokenizer) appendText(r rune) {
	if !z.haveText {
		// The run starts at the character just consumed.
		z.textPos = Position{Offset: z.prevPos, Line: z.prevLine, Col: z.prevCol}
		z.haveText = true
	}
	z.materializeTextSpan()
	z.textBuf = utf8.AppendRune(z.textBuf, r)
}

//hv:hotpath text accumulation for decoded character references
func (z *Tokenizer) appendTextString(s string) {
	if s == "" {
		return
	}
	if !z.haveText {
		z.textPos = Position{Offset: z.prevPos, Line: z.prevLine, Col: z.prevCol}
		z.haveText = true
	}
	z.materializeTextSpan()
	z.textBuf = append(z.textBuf, s...)
}

// appendTextChunk adds a bulk-scanned input span [off, off+n) to the
// pending character run. A run that starts with a chunk stays a zero-copy
// span while subsequent chunks extend it contiguously; any per-rune
// append or discontinuity first materializes the span into textBuf.
//
//hv:hotpath chunked text accumulation, zero-copy span fast path
func (z *Tokenizer) appendTextChunk(off, n, line, col int) {
	if !z.haveText {
		z.textPos = Position{Offset: off, Line: line, Col: col}
		z.haveText = true
		z.spanStart, z.spanEnd, z.spanOK = off, off+n, true
		return
	}
	if z.spanOK && z.spanEnd == off {
		z.spanEnd += n
		return
	}
	z.materializeTextSpan()
	z.textBuf = append(z.textBuf, z.input[off:off+n]...)
}

//hv:hotpath span fallback shared by every text append
func (z *Tokenizer) materializeTextSpan() {
	if z.spanOK {
		z.textBuf = append(z.textBuf, z.input[z.spanStart:z.spanEnd]...)
		z.spanOK = false
	}
}

func (z *Tokenizer) flushText() {
	if !z.haveText {
		return
	}
	var data string
	if z.spanOK && len(z.textBuf) == 0 {
		data = zcString(z.input[z.spanStart:z.spanEnd])
	} else {
		z.materializeTextSpan()
		data = string(z.textBuf)
	}
	z.queue = append(z.queue, Token{Type: CharacterToken, Data: data, Pos: z.textPos})
	z.textBuf = z.textBuf[:0]
	z.haveText = false
	z.spanOK = false
}

func (z *Tokenizer) emit(t Token) {
	z.flushText()
	if t.Type == StartTagToken {
		z.lastStartTag = t.Data
		if z.AutoRaw && !t.SelfClosing {
			if s, ok := rawTextTags[t.Data]; ok {
				z.state = s
			}
		}
	}
	z.queue = append(z.queue, t)
}

func (z *Tokenizer) emitEOF() {
	z.flushText()
	z.queue = append(z.queue, Token{Type: EOFToken, Pos: z.position()})
	z.emittedEOF = true
}

// Next returns the next token. After the input is exhausted it returns
// EOFToken forever.
func (z *Tokenizer) Next() Token {
	for z.qhead >= len(z.queue) {
		if z.emittedEOF {
			return Token{Type: EOFToken, Pos: z.position()}
		}
		// Drained: rewind so step() refills the same backing array.
		z.queue = z.queue[:0]
		z.qhead = 0
		z.step()
	}
	t := z.queue[z.qhead]
	z.qhead++
	return t
}

// ---- current tag/comment/doctype helpers ----

func (z *Tokenizer) newTag(tt TokenType) {
	z.cur = Token{Type: tt, Pos: z.position()}
}

func (z *Tokenizer) startNewAttr() {
	z.attrName = z.attrName[:0]
	z.attrValue = z.attrValue[:0]
	z.attrRaw = z.attrRaw[:0]
	z.attrQuote = 0
	z.attrPos = z.position()
	z.nameSpanOK = false
	z.valSpanOK = false
	z.attrPending = true
}

// appendNameChunk adds a bulk-scanned span to the in-progress attribute
// name, keeping it zero-copy while it is one contiguous untransformed run.
//
//hv:hotpath chunked attribute-name accumulation
func (z *Tokenizer) appendNameChunk(off, n int) {
	if z.nameSpanOK && z.nameSpanEnd == off {
		z.nameSpanEnd += n
		return
	}
	if !z.nameSpanOK && len(z.attrName) == 0 {
		z.nameSpanStart, z.nameSpanEnd, z.nameSpanOK = off, off+n, true
		return
	}
	z.materializeNameSpan()
	z.attrName = append(z.attrName, z.input[off:off+n]...)
}

//hv:hotpath span fallback for attribute names
func (z *Tokenizer) materializeNameSpan() {
	if z.nameSpanOK {
		z.attrName = append(z.attrName, z.input[z.nameSpanStart:z.nameSpanEnd]...)
		z.nameSpanOK = false
	}
}

// appendValueChunk is appendNameChunk for the value; a plain byte run
// contributes identically to the decoded value and the raw source, so one
// span stands in for both buffers.
//
//hv:hotpath chunked attribute-value accumulation
func (z *Tokenizer) appendValueChunk(off, n int) {
	if z.valSpanOK && z.valSpanEnd == off {
		z.valSpanEnd += n
		return
	}
	if !z.valSpanOK && len(z.attrValue) == 0 && len(z.attrRaw) == 0 {
		z.valSpanStart, z.valSpanEnd, z.valSpanOK = off, off+n, true
		return
	}
	z.materializeValSpan()
	z.attrValue = append(z.attrValue, z.input[off:off+n]...)
	z.attrRaw = append(z.attrRaw, z.input[off:off+n]...)
}

//hv:hotpath span fallback for attribute values
func (z *Tokenizer) materializeValSpan() {
	if z.valSpanOK {
		z.attrValue = append(z.attrValue, z.input[z.valSpanStart:z.valSpanEnd]...)
		z.attrRaw = append(z.attrRaw, z.input[z.valSpanStart:z.valSpanEnd]...)
		z.valSpanOK = false
	}
}

// finishAttr commits the in-progress attribute to the current tag token,
// flagging duplicates (the DM3 signal).
func (z *Tokenizer) finishAttr() {
	if !z.attrPending {
		return
	}
	z.attrPending = false
	var name string
	if z.nameSpanOK && len(z.attrName) == 0 {
		name = zcString(z.input[z.nameSpanStart:z.nameSpanEnd])
	} else {
		z.materializeNameSpan()
		name = string(z.attrName)
	}
	a := Attribute{
		Name:  name,
		Quote: z.attrQuote,
		Pos:   z.attrPos,
	}
	if z.valSpanOK && len(z.attrValue) == 0 && len(z.attrRaw) == 0 {
		v := zcString(z.input[z.valSpanStart:z.valSpanEnd])
		a.Value, a.RawValue = v, v
	} else {
		z.materializeValSpan()
		a.Value = string(z.attrValue)
		a.RawValue = string(z.attrRaw)
	}
	for i := range z.cur.Attr {
		if z.cur.Attr[i].Name == name {
			a.Duplicate = true
			z.parseError(ErrDuplicateAttribute, name)
			break
		}
	}
	z.cur.Attr = append(z.cur.Attr, a)
	z.attrName = z.attrName[:0]
	z.attrValue = z.attrValue[:0]
	z.attrRaw = z.attrRaw[:0]
	z.attrQuote = 0
	z.nameSpanOK = false
	z.valSpanOK = false
}

func (z *Tokenizer) emitCurrentTag() {
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
	z.emit(z.cur)
}

// appropriateEndTag reports whether the current end tag token matches the
// last emitted start tag (relevant in RCDATA/RAWTEXT/script states).
func (z *Tokenizer) appropriateEndTag() bool {
	return z.cur.Data == z.lastStartTag
}

// ---- character references (spec 13.2.5.72 .. 13.2.5.80) ----

// consumeCharRef runs the character reference algorithm. inAttr selects the
// attribute-value variant. It returns the decoded text and the raw source
// consumed (for RawValue bookkeeping).
func (z *Tokenizer) consumeCharRef(inAttr bool) (decoded, raw string) {
	start := z.pos // position after '&'
	r := z.peek()
	switch {
	case isASCIIAlnum(r):
		return z.consumeNamedCharRef(inAttr, start)
	case r == '#':
		z.next()
		return z.consumeNumericCharRef(start)
	default:
		return "&", "&"
	}
}

func (z *Tokenizer) consumeNamedCharRef(inAttr bool, start int) (decoded, raw string) {
	// Greedily take alphanumeric characters (bounded by the longest name),
	// then find the longest match with or without a trailing semicolon.
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
				return rep, "&" + name + ";"
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
			return rep, "&" + name
		}
	}
	// No match: ambiguous ampersand. Flush the characters as-is; if the run
	// ends with a semicolon this is an unknown-named-character-reference.
	z.advanceTo(end)
	if end < len(z.input) && z.input[end] == ';' && end > start {
		z.parseError(ErrUnknownNamedCharacterReference, candidate)
	}
	return "&" + candidate, "&" + candidate
}

func isASCIIAlnumByte(b byte) bool {
	return ('a' <= b && b <= 'z') || ('A' <= b && b <= 'Z') || ('0' <= b && b <= '9')
}

// advanceTo moves the cursor to absolute offset off (a rune boundary),
// updating line/col in bulk. The reconsume snapshot lands on the last rune
// of the chunk, exactly as a next() loop would leave it.
func (z *Tokenizer) advanceTo(off int) {
	if off <= z.pos {
		return
	}
	chunk := z.input[z.pos:off]
	_, last := utf8.DecodeLastRune(chunk)
	if pre := chunk[:len(chunk)-last]; len(pre) > 0 {
		z.advance(pre)
	}
	z.prevPos, z.prevLine, z.prevCol = z.pos, z.line, z.col
	z.advance(chunk[len(chunk)-last:])
}

func (z *Tokenizer) consumeNumericCharRef(ampStart int) (decoded, raw string) {
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
	rawRef := "&" + string(z.input[ampStart:z.pos])
	if digits == 0 {
		z.parseError(ErrAbsenceOfDigitsInNumericCharRef, "")
		return rawRef, rawRef
	}
	if z.peek() == ';' {
		z.next()
		rawRef += ";"
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
	return string(r), rawRef
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

// flushCharRefToAttr appends a decoded reference to the current attribute.
func (z *Tokenizer) flushCharRefToAttr() {
	dec, raw := z.consumeCharRef(true)
	z.materializeValSpan()
	z.attrValue = append(z.attrValue, dec...)
	z.attrRaw = append(z.attrRaw, raw...)
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
		off, line, col := z.pos, z.line, z.col
		if chunk := z.scanUntil('<', '&'); chunk != nil {
			z.appendTextChunk(off, len(chunk), line, col)
		}
		switch r := z.next(); r {
		case '&':
			dec, _ := z.consumeCharRef(false)
			z.appendTextString(dec)
		case '<':
			z.state = stateTagOpen
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.appendText(0)
		case eofRune:
			z.emitEOF()
			return
		default:
			z.appendText(r)
		}
	}
}

func (z *Tokenizer) rcdataState() {
	for {
		off, line, col := z.pos, z.line, z.col
		if chunk := z.scanUntil('<', '&'); chunk != nil {
			z.appendTextChunk(off, len(chunk), line, col)
		}
		switch r := z.next(); r {
		case '&':
			dec, _ := z.consumeCharRef(false)
			z.appendTextString(dec)
		case '<':
			z.state = stateRCDATALessThan
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.appendText('�')
		case eofRune:
			z.emitEOF()
			return
		default:
			z.appendText(r)
		}
	}
}

func (z *Tokenizer) rawtextState() {
	for {
		off, line, col := z.pos, z.line, z.col
		if chunk := z.scanUntil('<', '<'); chunk != nil {
			z.appendTextChunk(off, len(chunk), line, col)
		}
		switch r := z.next(); r {
		case '<':
			z.state = stateRAWTEXTLessThan
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.appendText('�')
		case eofRune:
			z.emitEOF()
			return
		default:
			z.appendText(r)
		}
	}
}

func (z *Tokenizer) scriptDataState() {
	for {
		off, line, col := z.pos, z.line, z.col
		if chunk := z.scanUntil('<', '<'); chunk != nil {
			z.appendTextChunk(off, len(chunk), line, col)
		}
		switch r := z.next(); r {
		case '<':
			z.state = stateScriptDataLessThan
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.appendText('�')
		case eofRune:
			z.emitEOF()
			return
		default:
			z.appendText(r)
		}
	}
}

func (z *Tokenizer) plaintextState() {
	for {
		off, line, col := z.pos, z.line, z.col
		if chunk := z.scanUntil(0, 0); chunk != nil {
			z.appendTextChunk(off, len(chunk), line, col)
		}
		switch r := z.next(); r {
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.appendText('�')
		case eofRune:
			z.emitEOF()
			return
		default:
			z.appendText(r)
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
		z.cur = Token{Type: CommentToken, Pos: z.position()}
		z.back()
		z.state = stateBogusComment
	case r == eofRune:
		z.parseError(ErrEOFBeforeTagName, "")
		z.appendText('<')
		z.emitEOF()
	default:
		z.parseError(ErrInvalidFirstCharacterOfTagName, string(r))
		z.appendText('<')
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
		z.appendTextString("</")
		z.emitEOF()
	default:
		z.parseError(ErrInvalidFirstCharacterOfTagName, string(r))
		z.cur = Token{Type: CommentToken, Pos: z.position()}
		z.back()
		z.state = stateBogusComment
	}
}

func (z *Tokenizer) tagNameState() {
	// Fast path: most tag names are a single lowercase run ending at a
	// terminator, which commits as a zero-copy view of the input. The slow
	// buffer only exists once a byte needs folding or replacement.
	start := z.pos
	var slow []byte
	for {
		z.scanTable(tagNameSafe)
		end := z.pos
		r := z.next()
		switch {
		case isWhitespace(r):
			z.commitTagName(slow, start, end)
			z.state = stateBeforeAttributeName
			return
		case r == '/':
			z.commitTagName(slow, start, end)
			z.state = stateSelfClosingStartTag
			return
		case r == '>':
			z.commitTagName(slow, start, end)
			z.state = stateData
			z.emitCurrentTag()
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			slow = append(slow, z.input[start:end]...)
			slow = utf8.AppendRune(slow, '�')
			start = z.pos
		case r == eofRune:
			z.parseError(ErrEOFInTag, "")
			z.emitEOF()
			return
		default:
			slow = append(slow, z.input[start:end]...)
			slow = utf8.AppendRune(slow, toLowerRune(r))
			start = z.pos
		}
	}
}

func (z *Tokenizer) commitTagName(slow []byte, start, end int) {
	if slow == nil {
		z.cur.Data = zcString(z.input[start:end])
		return
	}
	z.cur.Data = string(append(slow, z.input[start:end]...))
}

// rawLessThanState handles the "< in RCDATA/RAWTEXT" states.
func (z *Tokenizer) rawLessThanState(content, endTagOpen state) {
	if z.next() == '/' {
		z.tmpBuf = z.tmpBuf[:0]
		z.state = endTagOpen
		return
	}
	z.appendText('<')
	z.back()
	z.state = content
}

func (z *Tokenizer) rawEndTagOpenState(content, endTagName state) {
	if r := z.next(); isASCIIAlpha(r) {
		z.newTag(EndTagToken)
		z.back()
		z.state = endTagName
		return
	}
	z.appendTextString("</")
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
			z.cur.Data += string(toLowerRune(r))
			z.tmpBuf = utf8.AppendRune(z.tmpBuf, r)
		default:
			z.appendTextString("</")
			z.appendTextString(string(z.tmpBuf))
			z.back()
			z.state = content
			return
		}
	}
}

func (z *Tokenizer) scriptDataLessThanState() {
	switch r := z.next(); r {
	case '/':
		z.tmpBuf = z.tmpBuf[:0]
		z.state = stateScriptDataEndTagOpen
	case '!':
		z.state = stateScriptDataEscapeStart
		z.appendTextString("<!")
	default:
		z.appendText('<')
		z.back()
		z.state = stateScriptData
	}
}

func (z *Tokenizer) scriptDataEscapeStartState() {
	if z.next() == '-' {
		z.state = stateScriptDataEscapeStartDash
		z.appendText('-')
		return
	}
	z.back()
	z.state = stateScriptData
}

func (z *Tokenizer) scriptDataEscapeStartDashState() {
	if z.next() == '-' {
		z.state = stateScriptDataEscapedDashDash
		z.appendText('-')
		return
	}
	z.back()
	z.state = stateScriptData
}

func (z *Tokenizer) scriptDataEscapedState() {
	switch r := z.next(); r {
	case '-':
		z.state = stateScriptDataEscapedDash
		z.appendText('-')
	case '<':
		z.state = stateScriptDataEscapedLessThan
	case 0:
		z.parseError(ErrUnexpectedNullCharacter, "")
		z.appendText('�')
	case eofRune:
		z.parseError(ErrEOFInScriptHTMLCommentLikeText, "")
		z.emitEOF()
	default:
		z.appendText(r)
	}
}

func (z *Tokenizer) scriptDataEscapedDashState() {
	switch r := z.next(); r {
	case '-':
		z.state = stateScriptDataEscapedDashDash
		z.appendText('-')
	case '<':
		z.state = stateScriptDataEscapedLessThan
	case 0:
		z.parseError(ErrUnexpectedNullCharacter, "")
		z.state = stateScriptDataEscaped
		z.appendText('�')
	case eofRune:
		z.parseError(ErrEOFInScriptHTMLCommentLikeText, "")
		z.emitEOF()
	default:
		z.state = stateScriptDataEscaped
		z.appendText(r)
	}
}

func (z *Tokenizer) scriptDataEscapedDashDashState() {
	switch r := z.next(); r {
	case '-':
		z.appendText('-')
	case '<':
		z.state = stateScriptDataEscapedLessThan
	case '>':
		z.state = stateScriptData
		z.appendText('>')
	case 0:
		z.parseError(ErrUnexpectedNullCharacter, "")
		z.state = stateScriptDataEscaped
		z.appendText('�')
	case eofRune:
		z.parseError(ErrEOFInScriptHTMLCommentLikeText, "")
		z.emitEOF()
	default:
		z.state = stateScriptDataEscaped
		z.appendText(r)
	}
}

func (z *Tokenizer) scriptDataEscapedLessThanState() {
	switch r := z.next(); {
	case r == '/':
		z.tmpBuf = z.tmpBuf[:0]
		z.state = stateScriptDataEscapedEndTagOpen
	case isASCIIAlpha(r):
		z.tmpBuf = z.tmpBuf[:0]
		z.appendText('<')
		z.back()
		z.state = stateScriptDataDoubleEscapeStart
	default:
		z.appendText('<')
		z.back()
		z.state = stateScriptDataEscaped
	}
}

func (z *Tokenizer) scriptDataDoubleEscapeStartState() {
	r := z.next()
	switch {
	case isWhitespace(r) || r == '/' || r == '>':
		if string(z.tmpBuf) == "script" {
			z.state = stateScriptDataDoubleEscaped
		} else {
			z.state = stateScriptDataEscaped
		}
		z.appendText(r)
	case isASCIIAlpha(r):
		z.tmpBuf = utf8.AppendRune(z.tmpBuf, toLowerRune(r))
		z.appendText(r)
	default:
		z.back()
		z.state = stateScriptDataEscaped
	}
}

func (z *Tokenizer) scriptDataDoubleEscapedState() {
	switch r := z.next(); r {
	case '-':
		z.state = stateScriptDataDoubleEscapedDash
		z.appendText('-')
	case '<':
		z.state = stateScriptDataDoubleEscapedLessThan
		z.appendText('<')
	case 0:
		z.parseError(ErrUnexpectedNullCharacter, "")
		z.appendText('�')
	case eofRune:
		z.parseError(ErrEOFInScriptHTMLCommentLikeText, "")
		z.emitEOF()
	default:
		z.appendText(r)
	}
}

func (z *Tokenizer) scriptDataDoubleEscapedDashState() {
	switch r := z.next(); r {
	case '-':
		z.state = stateScriptDataDoubleEscapedDashDash
		z.appendText('-')
	case '<':
		z.state = stateScriptDataDoubleEscapedLessThan
		z.appendText('<')
	case 0:
		z.parseError(ErrUnexpectedNullCharacter, "")
		z.state = stateScriptDataDoubleEscaped
		z.appendText('�')
	case eofRune:
		z.parseError(ErrEOFInScriptHTMLCommentLikeText, "")
		z.emitEOF()
	default:
		z.state = stateScriptDataDoubleEscaped
		z.appendText(r)
	}
}

func (z *Tokenizer) scriptDataDoubleEscapedDashDashState() {
	switch r := z.next(); r {
	case '-':
		z.appendText('-')
	case '<':
		z.state = stateScriptDataDoubleEscapedLessThan
		z.appendText('<')
	case '>':
		z.state = stateScriptData
		z.appendText('>')
	case 0:
		z.parseError(ErrUnexpectedNullCharacter, "")
		z.state = stateScriptDataDoubleEscaped
		z.appendText('�')
	case eofRune:
		z.parseError(ErrEOFInScriptHTMLCommentLikeText, "")
		z.emitEOF()
	default:
		z.state = stateScriptDataDoubleEscaped
		z.appendText(r)
	}
}

func (z *Tokenizer) scriptDataDoubleEscapedLessThanState() {
	if z.next() == '/' {
		z.tmpBuf = z.tmpBuf[:0]
		z.state = stateScriptDataDoubleEscapeEnd
		z.appendText('/')
		return
	}
	z.back()
	z.state = stateScriptDataDoubleEscaped
}

func (z *Tokenizer) scriptDataDoubleEscapeEndState() {
	r := z.next()
	switch {
	case isWhitespace(r) || r == '/' || r == '>':
		if string(z.tmpBuf) == "script" {
			z.state = stateScriptDataEscaped
		} else {
			z.state = stateScriptDataDoubleEscaped
		}
		z.appendText(r)
	case isASCIIAlpha(r):
		z.tmpBuf = utf8.AppendRune(z.tmpBuf, toLowerRune(r))
		z.appendText(r)
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
			z.attrName = append(z.attrName, '=')
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
		if chunk := z.scanTable(attrNameSafe); chunk != nil {
			z.appendNameChunk(off, len(chunk))
		}
		r := z.next()
		switch {
		case isWhitespace(r) || r == '/' || r == '>' || r == eofRune:
			z.back()
			z.state = stateAfterAttributeName
			return
		case r == '=':
			z.state = stateBeforeAttributeValue
			return
		case isASCIIUpper(r):
			z.materializeNameSpan()
			z.attrName = utf8.AppendRune(z.attrName, toLowerRune(r))
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.materializeNameSpan()
			z.attrName = utf8.AppendRune(z.attrName, '�')
		case r == '"' || r == '\'' || r == '<':
			z.parseError(ErrUnexpectedCharacterInAttributeName, string(r))
			z.materializeNameSpan()
			z.attrName = utf8.AppendRune(z.attrName, r)
		default:
			z.materializeNameSpan()
			z.attrName = utf8.AppendRune(z.attrName, r)
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
			z.state = stateAttributeValueDoubleQuoted
			return
		case r == '\'':
			z.attrQuote = '\''
			z.state = stateAttributeValueSingleQuoted
			return
		case r == '>':
			z.parseError(ErrMissingAttributeValue, string(z.attrName))
			z.finishAttr()
			z.state = stateData
			z.emitCurrentTag()
			return
		default:
			z.back()
			z.state = stateAttributeValueUnquoted
			return
		}
	}
}

func (z *Tokenizer) attributeValueQuotedState(quote rune) {
	for {
		off := z.pos
		if chunk := z.scanUntil(byte(quote), '&'); chunk != nil {
			z.appendValueChunk(off, len(chunk))
		}
		r := z.next()
		switch {
		case r == quote:
			z.finishAttr()
			z.state = stateAfterAttributeValueQuoted
			return
		case r == '&':
			z.flushCharRefToAttr()
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.materializeValSpan()
			z.attrValue = utf8.AppendRune(z.attrValue, '�')
			z.attrRaw = append(z.attrRaw, 0)
		case r == eofRune:
			z.parseError(ErrEOFInTag, "")
			z.emitEOF()
			return
		default:
			z.materializeValSpan()
			z.attrValue = utf8.AppendRune(z.attrValue, r)
			z.attrRaw = utf8.AppendRune(z.attrRaw, r)
		}
	}
}

func (z *Tokenizer) attributeValueUnquotedState() {
	for {
		off := z.pos
		if chunk := z.scanTable(unquotedValueSafe); chunk != nil {
			z.appendValueChunk(off, len(chunk))
		}
		r := z.next()
		switch {
		case isWhitespace(r):
			z.finishAttr()
			z.state = stateBeforeAttributeName
			return
		case r == '&':
			z.flushCharRefToAttr()
		case r == '>':
			z.finishAttr()
			z.state = stateData
			z.emitCurrentTag()
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.materializeValSpan()
			z.attrValue = utf8.AppendRune(z.attrValue, '�')
			z.attrRaw = append(z.attrRaw, 0)
		case r == '"' || r == '\'' || r == '<' || r == '=' || r == '`':
			z.parseError(ErrUnexpectedCharInUnquotedAttrValue, string(r))
			z.materializeValSpan()
			z.attrValue = utf8.AppendRune(z.attrValue, r)
			z.attrRaw = utf8.AppendRune(z.attrRaw, r)
		case r == eofRune:
			z.parseError(ErrEOFInTag, "")
			z.emitEOF()
			return
		default:
			z.materializeValSpan()
			z.attrValue = utf8.AppendRune(z.attrValue, r)
			z.attrRaw = utf8.AppendRune(z.attrRaw, r)
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
		if chunk := z.scanUntil('>', '>'); chunk != nil {
			z.appendComment(chunk)
		}
		switch r := z.next(); r {
		case '>':
			z.state = stateData
			z.emit(z.cur)
			return
		case eofRune:
			z.emit(z.cur)
			z.emitEOF()
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.cur.Data += "�"
		default:
			z.cur.Data += string(r)
		}
	}
}

// appendComment grows the current comment token's data. The first chunk of
// a comment becomes a zero-copy view; later chunks (split by '-', '<' or
// replacements) fall back to concatenation, which comment syntax keeps rare.
func (z *Tokenizer) appendComment(chunk []byte) {
	if z.cur.Data == "" {
		z.cur.Data = zcString(chunk)
		return
	}
	z.cur.Data += string(chunk)
}

func (z *Tokenizer) markupDeclarationOpenState() {
	rest := z.input[z.pos:]
	switch {
	case len(rest) >= 2 && rest[0] == '-' && rest[1] == '-':
		z.advanceTo(z.pos + 2)
		z.cur = Token{Type: CommentToken, Pos: z.position()}
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
			z.cur = Token{Type: CommentToken, Data: "[CDATA[", Pos: z.position()}
			z.state = stateBogusComment
		}
	default:
		z.parseError(ErrIncorrectlyOpenedComment, "")
		z.cur = Token{Type: CommentToken, Pos: z.position()}
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
		z.emit(z.cur)
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
		z.emit(z.cur)
	case eofRune:
		z.parseError(ErrEOFInComment, "")
		z.emit(z.cur)
		z.emitEOF()
	default:
		z.cur.Data += "-"
		z.back()
		z.state = stateComment
	}
}

func (z *Tokenizer) commentState() {
	for {
		if chunk := z.scanUntil('<', '-'); chunk != nil {
			z.appendComment(chunk)
		}
		switch r := z.next(); r {
		case '<':
			z.cur.Data += "<"
			z.state = stateCommentLessThan
			return
		case '-':
			z.state = stateCommentEndDash
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.cur.Data += "�"
		case eofRune:
			z.parseError(ErrEOFInComment, "")
			z.emit(z.cur)
			z.emitEOF()
			return
		default:
			z.cur.Data += string(r)
		}
	}
}

func (z *Tokenizer) commentLessThanState() {
	switch r := z.next(); r {
	case '!':
		z.cur.Data += "!"
		z.state = stateCommentLessThanBang
	case '<':
		z.cur.Data += "<"
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
		z.emit(z.cur)
		z.emitEOF()
	default:
		z.cur.Data += "-"
		z.back()
		z.state = stateComment
	}
}

func (z *Tokenizer) commentEndState() {
	switch r := z.next(); r {
	case '>':
		z.state = stateData
		z.emit(z.cur)
	case '!':
		z.state = stateCommentEndBang
	case '-':
		z.cur.Data += "-"
	case eofRune:
		z.parseError(ErrEOFInComment, "")
		z.emit(z.cur)
		z.emitEOF()
	default:
		z.cur.Data += "--"
		z.back()
		z.state = stateComment
	}
}

func (z *Tokenizer) commentEndBangState() {
	switch r := z.next(); r {
	case '-':
		z.cur.Data += "--!"
		z.state = stateCommentEndDash
	case '>':
		z.parseError(ErrIncorrectlyClosedComment, "")
		z.state = stateData
		z.emit(z.cur)
	case eofRune:
		z.parseError(ErrEOFInComment, "")
		z.emit(z.cur)
		z.emitEOF()
	default:
		z.cur.Data += "--!"
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
		z.emit(Token{Type: DoctypeToken, ForceQuirks: true, Pos: z.position()})
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
			z.emit(Token{Type: DoctypeToken, ForceQuirks: true, Pos: z.position()})
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.emit(Token{Type: DoctypeToken, ForceQuirks: true, Pos: z.position()})
			z.emitEOF()
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.cur = Token{Type: DoctypeToken, Data: "�", Pos: z.position()}
			z.state = stateDoctypeName
			return
		default:
			z.cur = Token{Type: DoctypeToken, Data: string(toLowerRune(r)), Pos: z.position()}
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
			z.state = stateAfterDoctypeName
			return
		case r == '>':
			z.state = stateData
			z.emit(z.cur)
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.cur.Data += "�"
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(z.cur)
			z.emitEOF()
			return
		default:
			z.cur.Data += string(toLowerRune(r))
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
			z.emit(z.cur)
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(z.cur)
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
		z.emit(z.cur)
	case r == eofRune:
		z.parseError(ErrEOFInDoctype, "")
		z.cur.ForceQuirks = true
		z.emit(z.cur)
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
			z.emit(z.cur)
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(z.cur)
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
			z.state = stateAfterDoctypePublicIdentifier
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.cur.PublicID += "�"
		case r == '>':
			z.parseError(ErrAbruptDoctypePublicIdentifier, "")
			z.cur.ForceQuirks = true
			z.state = stateData
			z.emit(z.cur)
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(z.cur)
			z.emitEOF()
			return
		default:
			z.cur.PublicID += string(r)
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
		z.emit(z.cur)
	case r == '"':
		z.parseError(ErrMissingWhitespaceBetweenDTIDs, "")
		z.state = stateDoctypeSystemIdentifierDoubleQuoted
	case r == '\'':
		z.parseError(ErrMissingWhitespaceBetweenDTIDs, "")
		z.state = stateDoctypeSystemIdentifierSingleQuoted
	case r == eofRune:
		z.parseError(ErrEOFInDoctype, "")
		z.cur.ForceQuirks = true
		z.emit(z.cur)
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
			z.emit(z.cur)
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
			z.emit(z.cur)
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
		z.emit(z.cur)
	case r == eofRune:
		z.parseError(ErrEOFInDoctype, "")
		z.cur.ForceQuirks = true
		z.emit(z.cur)
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
			z.emit(z.cur)
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(z.cur)
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
			z.state = stateAfterDoctypeSystemIdentifier
			return
		case r == 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
			z.cur.SystemID += "�"
		case r == '>':
			z.parseError(ErrAbruptDoctypeSystemIdentifier, "")
			z.cur.ForceQuirks = true
			z.state = stateData
			z.emit(z.cur)
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(z.cur)
			z.emitEOF()
			return
		default:
			z.cur.SystemID += string(r)
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
			z.emit(z.cur)
			return
		case r == eofRune:
			z.parseError(ErrEOFInDoctype, "")
			z.cur.ForceQuirks = true
			z.emit(z.cur)
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
			z.emit(z.cur)
			return
		case 0:
			z.parseError(ErrUnexpectedNullCharacter, "")
		case eofRune:
			z.emit(z.cur)
			z.emitEOF()
			return
		}
	}
}

func (z *Tokenizer) cdataSectionState() {
	for {
		off, line, col := z.pos, z.line, z.col
		if chunk := z.scanUntil(']', ']'); chunk != nil {
			z.appendTextChunk(off, len(chunk), line, col)
		}
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
			z.appendText(r)
		}
	}
}

func (z *Tokenizer) cdataSectionBracketState() {
	if z.next() == ']' {
		z.state = stateCDATASectionEnd
		return
	}
	z.appendText(']')
	z.back()
	z.state = stateCDATASection
}

func (z *Tokenizer) cdataSectionEndState() {
	switch r := z.next(); r {
	case ']':
		z.appendText(']')
	case '>':
		z.state = stateData
	default:
		z.appendTextString("]]")
		z.back()
		z.state = stateCDATASection
	}
}

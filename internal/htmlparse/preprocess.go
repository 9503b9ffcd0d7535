package htmlparse

import (
	"errors"
	"unicode/utf8"
)

// ErrNotUTF8 reports that the input byte stream is not valid UTF-8. The
// measurement pipeline filters such documents out instead of guessing the
// encoding, exactly as the paper does (section 4.1): the benefit of
// supporting 45+ legacy encodings is negligible compared to the risk of
// mis-decoding skewing the results.
var ErrNotUTF8 = errors.New("htmlparse: input is not valid UTF-8")

// Preprocessed is the output of the input stream preprocessor: a normalized
// character stream plus any parse errors raised during normalization.
type Preprocessed struct {
	// Input is valid UTF-8 with all CR and CRLF sequences replaced by LF.
	Input []byte
	// Errors holds noncharacter / control character stream errors.
	Errors []ParseError
}

// Preprocess implements the Byte Stream Decoder and Input Stream
// Preprocessor stages of the HTML parsing process (spec 13.2.3):
//
//   - it verifies the stream decodes as UTF-8 (returning ErrNotUTF8
//     otherwise, so callers can filter the document),
//   - it normalizes newlines by replacing CRLF pairs and lone CR with LF,
//   - it reports surrogate-in-input-stream, noncharacter-in-input-stream
//     and control-character-in-input-stream parse errors.
//
// NUL bytes are preserved here; the tokenizer handles them per-state
// (unexpected-null-character).
func Preprocess(b []byte) (*Preprocessed, error) {
	p := &Preprocessed{Input: make([]byte, 0, len(b))}
	for i := 0; i < len(b); {
		// Bulk-copy runs of plain ASCII (no normalization, no stream
		// error) in one append; the rune-at-a-time path below only sees
		// CRs, controls and non-ASCII.
		if j := i; preSafe[b[j]] {
			for j++; j < len(b) && preSafe[b[j]]; j++ {
			}
			p.Input = append(p.Input, b[i:j]...)
			i = j
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			// An invalid or truncated sequence, or an encoded surrogate:
			// exactly what utf8.Valid rejects. A literal U+FFFD decodes
			// with size 3.
			return nil, ErrNotUTF8
		case r == '\r':
			// CRLF -> LF, lone CR -> LF.
			if i+1 < len(b) && b[i+1] == '\n' {
				i++
			}
			p.Input = append(p.Input, '\n')
			i++
			continue
		case isNoncharacter(r):
			p.Errors = append(p.Errors, ParseError{Code: ErrNoncharacterInInputStream, Pos: len(p.Input)})
		case isBadControl(r):
			p.Errors = append(p.Errors, ParseError{Code: ErrControlCharacterInInputStream, Pos: len(p.Input)})
		}
		p.Input = append(p.Input, b[i:i+size]...)
		i += size
	}
	return p, nil
}

// preSafe marks the bytes Preprocess may copy verbatim without
// normalization or error checks: printable ASCII plus TAB, LF, FF and NUL
// (NUL passes through here — the tokenizer flags it per-state).
var preSafe = makePreSafeTable()

func makePreSafeTable() *[256]bool {
	var t [256]bool
	t[0x00], t['\t'], t['\n'], t['\f'] = true, true, true, true
	for b := 0x20; b < 0x7F; b++ {
		t[b] = true
	}
	return &t
}

// isNoncharacter reports whether r is a Unicode noncharacter
// (U+FDD0..U+FDEF and the last two code points of every plane).
func isNoncharacter(r rune) bool {
	if r >= 0xFDD0 && r <= 0xFDEF {
		return true
	}
	return r&0xFFFE == 0xFFFE && r <= 0x10FFFF
}

// isBadControl reports whether r is a control character that the input
// stream preprocessor flags: C0 controls other than NUL and ASCII
// whitespace, plus DEL and the C1 range.
func isBadControl(r rune) bool {
	switch r {
	case 0, '\t', '\n', '\f', '\r', ' ':
		return false
	}
	return (r >= 0 && r < 0x20) || (r >= 0x7F && r <= 0x9F)
}

package htmlparse

import (
	"bytes"
	"reflect"
	"testing"
	"unicode/utf8"
)

// refPreprocess is the two-pass Preprocess the one-pass one replaced: a
// utf8.Valid pass over the input, then the copy loop with LF on the
// rune-at-a-time path.
func refPreprocess(b []byte) (*Preprocessed, error) {
	if !utf8.Valid(b) {
		return nil, ErrNotUTF8
	}
	p := &Preprocessed{Input: make([]byte, 0, len(b))}
	for i := 0; i < len(b); {
		if j := i; b[j] != '\n' && preSafe[b[j]] {
			for j++; j < len(b) && b[j] != '\n' && preSafe[b[j]]; j++ {
			}
			p.Input = append(p.Input, b[i:j]...)
			i = j
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		switch {
		case r == '\r':
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

// FuzzPreprocess holds Preprocess to refPreprocess: the same ErrNotUTF8
// verdict, and on valid input the same normalized bytes and stream errors.
func FuzzPreprocess(f *testing.F) {
	for _, s := range []string{
		"",
		"plain <p>ascii</p>\n",
		"\xffstart", "mid\x80dle", "end\xfe",
		"\xc3", "ab\xc3", "\xe2\x82", "ab\xe2\x82", "\xf0\x9f\x98", "ab\xf0\x9f\x98",
		"\xc3(", "\xe2\x28\xa1", "\xf0\x28\x8c\xbc",
		"\xed\xa0\x80", "a\xed\xbf\xbfb", "\xc0\xaf", "\xf4\x90\x80\x80",
		"\xef\xbf\xbd", "lit \xef\xbf\xbd eral",
		"\r", "\r\n", "\n\r", "a\r", "\rb", "a\r\nb\rc\n\rd", "\r\r\n\n",
		"\u0080\u0085\u009f", "\x01\x07\x1f\x7f", "\x00\t\f ",
		"﷐﷯￾￿", "\U0001fffe\U0010ffff", "é€😀",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := refPreprocess(b)
		got, err := Preprocess(b)
		if err != wantErr {
			t.Fatalf("%q: error %v, reference %v", b, err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got.Input, want.Input) {
			t.Fatalf("%q: input %q, reference %q", b, got.Input, want.Input)
		}
		if !reflect.DeepEqual(got.Errors, want.Errors) {
			t.Fatalf("%q: errors %v, reference %v", b, got.Errors, want.Errors)
		}
	})
}

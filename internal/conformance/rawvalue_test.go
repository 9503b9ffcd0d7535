package conformance

import (
	"testing"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// TestRawValueIsSource holds every attribute's RawValue to the source
// bytes between its value's delimiters, re-found from the attribute's
// position, over every corpus case and every page of the snapshot.
func TestRawValueIsSource(t *testing.T) {
	attrs := 0
	check := func(id string, input []byte) {
		res, err := htmlparse.Parse(input)
		if err == htmlparse.ErrNotUTF8 {
			return
		}
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, tok := range res.Tokens {
			for _, a := range tok.Attr {
				attrs++
				if want := sourceValue(res.Input, a.Pos); a.RawValue != want {
					t.Errorf("%s: attribute %q at %v: RawValue %q, source %q", id, a.Name, a.Pos, a.RawValue, want)
				}
			}
		}
	}
	forEachCorpusCase(t, check)
	for _, p := range snapshotPages() {
		check(p.id, p.body)
	}
	if attrs < 1000 {
		t.Fatalf("checked only %d attributes", attrs)
	}
}

// sourceValue re-reads the attribute whose position is pos (just past
// the first character of its name) and returns the source between its
// value's delimiters, or "" when it has no value.
func sourceValue(in []byte, pos int) string {
	isSpace := func(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\f' }
	i := pos
	for i < len(in) && !isSpace(in[i]) && in[i] != '/' && in[i] != '>' && in[i] != '=' {
		i++
	}
	for i < len(in) && isSpace(in[i]) {
		i++
	}
	if i == len(in) || in[i] != '=' {
		return ""
	}
	for i++; i < len(in) && isSpace(in[i]); i++ {
	}
	if i == len(in) {
		return ""
	}
	switch q := in[i]; q {
	case '"', '\'':
		end := i + 1
		for end < len(in) && in[end] != q {
			end++
		}
		return string(in[i+1 : end])
	case '>':
		return ""
	}
	end := i
	for end < len(in) && !isSpace(in[end]) && in[end] != '>' {
		end++
	}
	return string(in[i:end])
}

package htmlparse

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"unicode/utf8"
)

// naivePosition resolves one offset on its own: the newlines before it,
// and the code points since the last of them.
func naivePosition(in []byte, off int) Position {
	start := bytes.LastIndexByte(in[:off], '\n') + 1
	return Position{Offset: off, Line: 1 + bytes.Count(in[:off], nlSlice), Col: 1 + utf8.RuneCount(in[start:off])}
}

// offsetBytes encodes offsets the way FuzzResolvePositions reads them.
func offsetBytes(offs ...uint16) []byte {
	out := make([]byte, 0, 2*len(offs))
	for _, o := range offs {
		out = binary.LittleEndian.AppendUint16(out, o)
	}
	return out
}

// FuzzResolvePositions holds the one-walk resolver to naivePosition on
// arbitrary input (through Preprocess, as the parser sees it) and
// arbitrary offsets in [0, len]: unsorted, repeated, and inside runes.
// Each two bytes of offs pick one offset, modulo len+1.
func FuzzResolvePositions(f *testing.F) {
	long := strings.Repeat("aé€😀", 64)
	var many []uint16
	for o := len(long); o >= 0; o -= 3 {
		many = append(many, uint16(o))
	}
	for _, seed := range []struct {
		in   string
		offs []byte
	}{
		{"", offsetBytes(0, 0)},
		{"a\r\nb\r\nc", offsetBytes(5, 0, 2, 3, 2)},
		{"a\rb\r\rc", offsetBytes(1, 2, 3, 4, 5, 6)},
		{"é\n€x\n😀y", offsetBytes(0, 2, 3, 6, 7, 8, 12, 13)},
		{"é\n€x\n😀y", offsetBytes(13, 0)},
		{"a\x00b\n\x00\x00", offsetBytes(6, 1, 4, 5, 6)},
		{"<p>x</p>", offsetBytes(8, 8, 0)},
		{long, offsetBytes(many...)},
	} {
		f.Add([]byte(seed.in), seed.offs)
	}
	f.Fuzz(func(t *testing.T, data, offs []byte) {
		pre, err := Preprocess(data)
		if err != nil {
			return
		}
		in := pre.Input
		ps := make([]Position, len(offs)/2)
		for i := range ps {
			ps[i].Offset = int(binary.LittleEndian.Uint16(offs[2*i:])) % (len(in) + 1)
		}
		ResolvePositions(in, ps, func(p *Position) *Position { return p })
		for _, p := range ps {
			if want := naivePosition(in, p.Offset); p != want {
				t.Fatalf("offset %d of %q: resolved %d:%d, want %d:%d", p.Offset, in, p.Line, p.Col, want.Line, want.Col)
			}
		}
	})
}

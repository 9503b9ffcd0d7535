package htmlparse

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"unicode/utf8"
)

// Position is a source position as it is printed: a byte offset into the
// preprocessed input stream (Result.Input) with its 1-based line and
// column. The column counts code points. The parser records only the
// offset (the Pos of a Token, Attribute, ParseError, TreeEvent or Node);
// ResolvePositions fills Line and Col for the positions a caller prints.
type Position struct {
	Offset int
	Line   int
	Col    int
}

func (p Position) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

var nlSlice = []byte{'\n'}

// ResolvePositions fills Line and Col of the position pos returns for
// each item from its Offset into input, the preprocessed stream the
// offsets index. Lines break at '\n' (preprocessing turned every CR into
// one). Every offset must lie in [0, len(input)]; it equals len(input)
// for the EOF errors. The offsets may come in any order and repeat: they
// are resolved in offset order in one forward walk, counting newlines
// and code points only between consecutive offsets, so a page costs one
// pass over its input however many positions it prints.
func ResolvePositions[T any](input []byte, items []T, pos func(*T) *Position) {
	ps := make([]*Position, len(items))
	for i := range items {
		ps[i] = pos(&items[i])
	}
	slices.SortFunc(ps, func(a, b *Position) int { return cmp.Compare(a.Offset, b.Offset) })
	// at is the last resolved offset that starts a rune, and line and col
	// are its position. Counting on from inside a rune would count the
	// rune's tail bytes as code points of their own.
	at, line, col := 0, 1, 1
	for _, p := range ps {
		seg := input[at:p.Offset]
		if n := bytes.Count(seg, nlSlice); n > 0 {
			p.Line = line + n
			p.Col = 1 + utf8.RuneCount(seg[bytes.LastIndexByte(seg, '\n')+1:])
		} else {
			p.Line, p.Col = line, col+utf8.RuneCount(seg)
		}
		if p.Offset == len(input) || utf8.RuneStart(input[p.Offset]) {
			at, line, col = p.Offset, p.Line, p.Col
		}
	}
}

package htmlparse

import "unsafe"

// zcString returns a string view of b without copying.
//
// Every call sites b inside a buffer whose bytes under the view are
// never written again: the parser's preprocessed input buffer, which is
// freshly allocated by Preprocess for each parse and never written once
// tokenization starts — including under ParseReuse, where only the
// parser scratch is recycled, never the input buffer — or the tree
// builder's merged-text buffer, which is only appended to and never
// reused for another run (treeBuilder.mergeText). The returned
// string keeps that buffer reachable, so lifetimes stay GC-managed; the
// trade-off is that a retained token or node pins its whole source page,
// which suits the measurement pipeline's parse-then-discard shape.
//
//hv:view the result aliases b's backing memory byte for byte
func zcString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

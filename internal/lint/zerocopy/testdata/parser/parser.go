// Package parser is a miniature of the repo's zero-copy tokenizer: a
// per-parse input buffer, scratch recycled with buf[:0] between parses,
// and //hv:view helpers that hand out aliasing views.
package parser

import (
	"strings"
	"unsafe"
)

// Scanner mimics the Tokenizer. input is per-parse and GC-managed;
// scratch is reused across parses, so views of it die at the next
// reset.
type Scanner struct {
	input []byte
	//hv:view recycled between parses by reset
	scratch []byte
	name    string
}

// asString re-views b's bytes as a string without copying.
//
//hv:view result aliases the argument's backing array
func asString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

var retained string

var names = make(chan string, 4)

func storeGlobal(s *Scanner) {
	n := asString(s.input)
	retained = n // want `zero-copy view \(result of //hv:view asString\) stored in package-level retained`
}

func storeGlobalUnsafe(b []byte) {
	retained = unsafe.String(unsafe.SliceData(b), len(b)) // want `zero-copy view \(unsafe.String view\) stored in package-level retained`
}

func send(s *Scanner) {
	n := asString(s.input)
	names <- n // want `zero-copy view \(result of //hv:view asString\) sent on a channel without a copy`
}

// leakName hands out a view but does not declare the contract.
func leakName(b []byte) string {
	return asString(b) // want `leakName returns a zero-copy view \(result of //hv:view asString\) but is not marked //hv:view`
}

// leakScratch is worse: the view is of recycled memory.
func (s *Scanner) leakScratch() string {
	return asString(s.scratch) // want `returning a view of recycled scratch \(result of //hv:view asString\) from leakScratch`
}

// Sidecar is heap memory outside the scratch owner.
type Sidecar struct {
	data []byte
}

func stash(s *Scanner, out *Sidecar) {
	out.data = s.scratch // want `view of recycled scratch \(recycled buffer scratch\) stored into field data`
}

var keeper []byte

func keep(b []byte) { keeper = b }

func escapeArg(s *Scanner) {
	keep(s.scratch) // want `view of recycled scratch \(recycled buffer scratch\) passed to keep, which retains parameter 0`
}

// reset recycles: the owner shuffling its own scratch is the mechanism
// the contract protects, not a violation of it.
func (s *Scanner) reset() {
	*s = Scanner{scratch: s.scratch[:0]}
}

// copies shows the sanctioned escapes: explicit copies.
func copies(s *Scanner) {
	retained = string(s.scratch)
	names <- strings.Clone(asString(s.input))
}

// deliberate shows that a justified suppression holds.
func deliberate(s *Scanner) {
	//lint:ignore zerocopy fixture demonstrating a justified suppression
	retained = asString(s.input)
}

// Stream is a pull-style wrapper with its own scratch field, refilled
// from the scanner's, handed out only through a //hv:view method.
type Stream struct {
	sc *Scanner
	//hv:view drained and re-filled by Bytes
	errScratch []byte
}

// Bytes returns the scanner's pending bytes.
//
//hv:view contents are valid only until the next call
func (st *Stream) Bytes() []byte {
	st.errScratch = append(st.errScratch[:0], st.sc.scratch...)
	return st.errScratch
}

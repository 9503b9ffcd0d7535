package htmlparse

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

// docSpans is the memory of parsed documents: the node slabs, input
// buffers, attribute arrays and node strings. Each span holds its start
// as a pointer, so the memory stays allocated and a later allocation
// cannot land in a span and fake a hit.
type docSpans []struct {
	start unsafe.Pointer
	size  uintptr
}

func (s *docSpans) add(p unsafe.Pointer, size uintptr) {
	if p != nil && size > 0 {
		*s = append(*s, struct {
			start unsafe.Pointer
			size  uintptr
		}{p, size})
	}
}

func (s *docSpans) addString(str string) {
	s.add(unsafe.Pointer(unsafe.StringData(str)), uintptr(len(str)))
}

func (s *docSpans) addAttrs(attrs []Attribute) {
	if cap(attrs) == 0 {
		return
	}
	s.add(unsafe.Pointer(unsafe.SliceData(attrs)), uintptr(cap(attrs))*unsafe.Sizeof(Attribute{}))
	for _, a := range attrs {
		s.addString(a.Name)
		s.addString(a.Value)
		s.addString(a.RawValue)
	}
}

// addDocument records the memory of a finished parse: its input buffer,
// every node's strings and attribute array, the recorded tokens' and
// events' attribute arrays, and — unless the parse was scoped, whose
// slabs the parser keeps by design — the node slabs.
func (s *docSpans) addDocument(p *Parser, pre *Preprocessed, res *Result, scoped bool) {
	s.add(unsafe.Pointer(unsafe.SliceData(pre.Input)), uintptr(cap(pre.Input)))
	if !scoped {
		for _, slab := range p.tb.arena.used {
			s.add(unsafe.Pointer(unsafe.SliceData(slab)), uintptr(cap(slab))*unsafe.Sizeof(Node{}))
		}
	}
	res.Doc.Walk(func(n *Node) bool {
		s.addString(n.Data)
		s.addString(n.PublicID)
		s.addString(n.SystemID)
		s.addAttrs(n.Attr)
		return true
	})
	for i := range res.Tokens {
		s.addAttrs(res.Tokens[i].Attr)
	}
	for i := range res.Events {
		s.addAttrs(res.Events[i].Attr)
	}
}

func (s docSpans) contains(p uintptr) bool {
	for _, r := range s {
		if lo := uintptr(r.start); p >= lo && p < lo+r.size {
			return true
		}
	}
	return false
}

// pinned reports every path under v holding a pointer into s: pointer,
// map, func and interface values, string data, and slice backing arrays
// together with every element up to the slice's capacity. Pointers are
// checked, not followed.
func pinned(v reflect.Value, path string, s docSpans, report func(string)) {
	switch v.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan:
		if !v.IsNil() && s.contains(v.Pointer()) {
			report(path)
		}
	case reflect.String:
		if v.Len() > 0 && s.contains(uintptr(unsafe.Pointer(unsafe.StringData(v.String())))) {
			report(path)
		}
	case reflect.Slice:
		if v.Cap() == 0 {
			return
		}
		if s.contains(v.Pointer()) {
			report(path)
		}
		full := v.Slice3(0, v.Cap(), v.Cap())
		for i := 0; i < full.Len(); i++ {
			pinned(full.Index(i), fmt.Sprintf("%s[%d]", path, i), s, report)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			pinned(v.Index(i), fmt.Sprintf("%s[%d]", path, i), s, report)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			pinned(v.Field(i), path+"."+v.Type().Field(i).Name, s, report)
		}
	case reflect.Interface:
		if !v.IsNil() {
			pinned(v.Elem(), path, s, report)
		}
	}
}

// TestReleasedParserPinsNothing: after release, no pointer field of the
// Parser, and no slot up to the capacity of its slices, refers to any
// document it parsed — scoped or not, in any order. Kept slabs hold only
// zeroed nodes, and a slab a returned document owns never becomes a kept
// one.
func TestReleasedParserPinsNothing(t *testing.T) {
	var docs docSpans
	p := &Parser{}
	for i, in := range observerInputs(t) {
		scoped := i%3 != 0
		pre, err := Preprocess([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.record(nil, pre, Options{}, "")
		if err != nil {
			t.Fatal(err)
		}
		docs.addDocument(p, pre, res, scoped)
		if scoped {
			p.tb.arena.recycle()
		}
		p.scrub()
		pinned(reflect.ValueOf(p).Elem(), "Parser", docs, func(path string) {
			t.Errorf("input %d (scoped %v): released parser pins a document through %s", i, scoped, path)
		})
		for k, slab := range p.tb.arena.kept {
			for j := range slab {
				if !reflect.ValueOf(slab[j]).IsZero() {
					t.Fatalf("input %d: kept slab %d node %d not cleared: %+v", i, k, j, slab[j])
				}
			}
		}
		if t.Failed() {
			return
		}
	}
}

// errorCounter is an observer that counts the errors and events it is
// handed and keeps none of them, as a check's pass does.
type errorCounter struct{ errors, events int }

func (c *errorCounter) Tag(*Token)       {}
func (c *errorCounter) Error(ParseError) { c.errors++ }
func (c *errorCounter) Event(*TreeEvent) { c.events++ }

// reportSlices calls f with the path and capacity of every ParseError or
// TreeEvent slice under v that holds capacity.
func reportSlices(v reflect.Value, path string, f func(string, int)) {
	switch v.Kind() {
	case reflect.Slice:
		if et := v.Type().Elem(); (et == reflect.TypeOf(ParseError{}) || et == reflect.TypeOf(TreeEvent{})) && v.Cap() > 0 {
			f(path, v.Cap())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			reportSlices(v.Field(i), path+"."+v.Type().Field(i).Name, f)
		}
	}
}

// TestReleasedParserKeepsNoReports: a scoped parse of 1 MiB of NULs
// reports about a million parse errors to its observer, and the released
// parser holds no ParseError or TreeEvent capacity afterwards: errors and
// events pass through the parser, they are not kept in it.
func TestReleasedParserKeepsNoReports(t *testing.T) {
	p := &Parser{}
	var nuls hostileShape
	for _, s := range hostileShapes {
		if s.name == "text of NULs" {
			nuls = s
		}
	}
	pre, err := Preprocess([]byte(nuls.input(1 << 20)))
	if err != nil {
		t.Fatal(err)
	}
	var c errorCounter
	if _, err := p.parse(nil, pre, Options{}, &c, ""); err != nil {
		t.Fatal(err)
	}
	if c.errors < 1<<20 {
		t.Fatalf("observer saw %d errors, want one per NUL at least", c.errors)
	}
	p.tb.arena.recycle()
	p.scrub()
	reportSlices(reflect.ValueOf(p).Elem(), "Parser", func(path string, n int) {
		t.Errorf("released parser keeps %s with capacity %d", path, n)
	})
}

// bigPage builds a document of about n nodes: n/2 paragraphs with one
// text node each.
func bigPage(n int) []byte {
	return []byte("<!doctype html><body>" + strings.Repeat("<p>x</p>", n/2))
}

// TestScopedParseKeepsBoundedSlabs: a scoped parse of a 10,000-node page
// leaves the parser holding at most keptSlabs slabs, and the next parse —
// scoped or not — builds from them without allocating a slab.
func TestScopedParseKeepsBoundedSlabs(t *testing.T) {
	p := &Parser{}
	pre, err := Preprocess(bigPage(10000))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.parse(nil, pre, Options{}, nil, ""); err != nil {
		t.Fatal(err)
	}
	if n := p.tb.arena.nodes; n < 10000 {
		t.Fatalf("big page built only %d nodes", n)
	}
	p.tb.arena.recycle()
	p.scrub()
	if k := len(p.tb.arena.kept); k != keptSlabs || cap(p.tb.arena.kept) > keptSlabs {
		t.Fatalf("parser keeps %d slabs (cap %d), want exactly the bound %d", k, cap(p.tb.arena.kept), keptSlabs)
	}
	for _, scoped := range []bool{false, true} {
		pre, err := Preprocess([]byte(reuseInputs[2]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.parse(nil, pre, Options{}, nil, ""); err != nil {
			t.Fatal(err)
		}
		if n := p.tb.arena.slabs; n != 0 {
			t.Fatalf("scoped=%v: parse after a kept slab allocated %d slabs", scoped, n)
		}
		before := len(p.tb.arena.kept)
		if scoped {
			p.tb.arena.recycle()
		}
		p.scrub()
		want := before
		if scoped {
			want++
		}
		if got := len(p.tb.arena.kept); got != want {
			t.Fatalf("scoped=%v: %d kept slabs after the parse, want %d", scoped, got, want)
		}
	}
}

// TestParseScopedABA: the same document checked before and after another
// one in the same pooled parser, with slabs recycled in between, parses
// exactly as a fresh Parse does — and errors, events and tokens the
// callback kept are still intact after later parses reused the slabs.
func TestParseScopedABA(t *testing.T) {
	inputs := observerInputs(t)
	type kept struct {
		errs   []ParseError
		events []TreeEvent
		tokens []Token
		want   string
	}
	var held []kept
	for i := range inputs {
		a, b := inputs[i], inputs[(i+1)%len(inputs)]
		for _, in := range []string{a, b, a} {
			plain, err := Parse([]byte(in))
			if err != nil {
				t.Fatal(err)
			}
			want := resultFingerprint(t, plain)
			rec := new(recorder)
			err = ParseScoped(context.Background(), []byte(in), Options{}, rec, func(res *Result) {
				rec.keep(res)
				if got := resultFingerprint(t, res); got != want {
					t.Fatalf("input %d: scoped parse differs from Parse:\n%s\nvs\n%s", i, got, want)
				}
				held = append(held, kept{res.Errors, res.Events, res.Tokens, fmt.Sprint(res.Errors, res.Events, res.Tokens)})
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, h := range held {
		if got := fmt.Sprint(h.errs, h.events, h.tokens); got != h.want {
			t.Fatalf("scoped parse %d: kept errors, events or tokens changed after later parses", i)
		}
	}
}

// TestParseScopedPanicDropsParser: a panicking callback propagates, and
// the parser it ran in — its tree half-used by the callback's reader —
// never returns to the pool.
func TestParseScopedPanicDropsParser(t *testing.T) {
	doc := []byte("<div><p>a</p><p>b</p></div>")
	spy := &tagSpy{}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("callback panic did not propagate")
			}
		}()
		_ = ParseScoped(context.Background(), doc, Options{}, spy, func(*Result) {
			panic("rule exploded")
		})
	}()
	poisoned := spy.last
	want, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		spy := &tagSpy{}
		err := ParseScoped(context.Background(), doc, Options{}, spy, func(res *Result) {
			spy.keep(res)
			if got := resultFingerprint(t, res); got != resultFingerprint(t, want) {
				t.Fatalf("parse %d after a callback panic differs:\n%s", i, got)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if spy.last == poisoned {
			t.Fatalf("parse %d ran in the parser whose callback panicked", i)
		}
	}
}

// TestParseScopedAbort: a canceled or over-deep scoped parse never calls
// its callback, and the parser's slabs come back cleared.
func TestParseScopedAbort(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	if err := ParseScoped(ctx, []byte("<p>x"), Options{}, nil, func(*Result) { called = true }); err != context.Canceled || called {
		t.Fatalf("canceled scoped parse: err %v, callback called %v", err, called)
	}
	deep := []byte(strings.Repeat("<div>", 100))
	err := ParseScoped(context.Background(), deep, Options{MaxTreeDepth: 10}, nil, func(*Result) { called = true })
	if err != ErrTreeDepthExceeded || called {
		t.Fatalf("over-deep scoped parse: err %v, callback called %v", err, called)
	}
	if err := ParseScoped(nil, []byte("<p>x"), Options{}, nil, func(*Result) { called = true }); err != nil || !called {
		t.Fatalf("nil-ctx scoped parse: err %v, callback called %v", err, called)
	}
}

package htmlparse

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// reuseInputs are documents that exercise the scratch state the pool
// recycles: attribute buffers, the text span, the adoption agency, foster
// parenting, raw text modes, doctypes and comments.
var reuseInputs = []string{
	"",
	"plain text only",
	"<!DOCTYPE html><html><head><title>t&amp;t</title></head><body class=\"a b\" id='x'>hi</body></html>",
	"<p><b>1<i>2</b>3</i>4",
	"<table><tr><td>a<div>foster</table>",
	"<script>var a = '<div>' + \"</scr\" + \"ipt>\";</script>",
	"<div CLASS=UPPER dup=1 dup=2 novalue>text &notareal; &#x41;&#0;</div>",
	"<!-- comment --!><![CDATA[x]]><?bogus?>",
	"<svg><foreignObject><p>html island</p></foreignObject><rect/></svg>",
	"<textarea>\n&lt;kept&gt;</textarea><plaintext>rest</wont-close>",
}

func resultFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	s := DumpTree(r.Doc)
	s += fmt.Sprintf("|mode=%v|tokens=%d|events=%d", r.Mode, len(r.Tokens), len(r.Events))
	for _, e := range r.Errors {
		s += fmt.Sprintf("|%s@%d", e.Code, e.Pos)
	}
	for _, ev := range r.Events {
		s += fmt.Sprintf("|%d:%s", ev.Kind, ev.Detail)
	}
	return s
}

// TestParseReuseMatchesParse drives the same inputs through a fresh parser
// and the pooled path, interleaved so the pooled parser's scratch is dirty
// with the previous document each time, and requires identical results.
func TestParseReuseMatchesParse(t *testing.T) {
	inputs := append([]string(nil), reuseInputs...)
	for _, name := range benchPages {
		data, err := os.ReadFile(filepath.Join("testdata", "bench", name+".html"))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, string(data))
	}
	for round := 0; round < 3; round++ {
		for i, in := range inputs {
			fresh, err := Parse([]byte(in))
			if err != nil {
				t.Fatalf("round %d input %d: Parse: %v", round, i, err)
			}
			reused, err := ParseReuse([]byte(in))
			if err != nil {
				t.Fatalf("round %d input %d: ParseReuse: %v", round, i, err)
			}
			if want, got := resultFingerprint(t, fresh), resultFingerprint(t, reused); want != got {
				t.Fatalf("round %d input %d: ParseReuse diverges from Parse\n--- fresh ---\n%s\n--- reused ---\n%s", round, i, want, got)
			}
		}
	}
}

// TestParseReuseParallel hammers the pool from many goroutines while each
// goroutine keeps validating documents it parsed earlier, so the race
// detector can see any scratch state leaking between pooled parses and any
// Result invalidated by a later reset. Scoped parses run in between, each
// checked inside its callback: the slabs they recycle must never be ones
// a held Result still uses.
func TestParseReuseParallel(t *testing.T) {
	want := make([]string, len(reuseInputs))
	for i, in := range reuseInputs {
		r, err := Parse([]byte(in))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = resultFingerprint(t, r)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			held := make([]*Result, len(reuseInputs))
			for iter := 0; iter < 50; iter++ {
				i := (g + iter) % len(reuseInputs)
				r, err := ParseReuse([]byte(reuseInputs[i]))
				if err != nil {
					errs <- err
					return
				}
				held[i] = r
				k := (i + 5) % len(reuseInputs)
				var bad error
				rec := new(recorder)
				err = ParseScoped(context.Background(), []byte(reuseInputs[k]), Options{}, rec, func(r *Result) {
					rec.keep(r)
					if got := resultFingerprint(t, r); got != want[k] {
						bad = fmt.Errorf("goroutine %d: scoped parse of input %d differs\n--- want ---\n%s\n--- got ---\n%s", g, k, want[k], got)
					}
				})
				if err == nil {
					err = bad
				}
				if err != nil {
					errs <- err
					return
				}
				// Re-check a document parsed on an earlier iteration: its
				// nodes and strings must be untouched by later pool reuse.
				j := (i + 3) % len(reuseInputs)
				if held[j] != nil {
					if got := DumpTree(held[j].Doc); got != DumpTree(held[j].Doc) || len(got) > 1<<30 {
						errs <- fmt.Errorf("unstable dump")
						return
					}
				}
			}
			for i, r := range held {
				if r == nil {
					continue
				}
				got := resultFingerprint(t, r)
				if got != want[i] {
					errs <- fmt.Errorf("goroutine %d: held result %d mutated after pool reuse\n--- want ---\n%s\n--- got ---\n%s", g, i, want[i], got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

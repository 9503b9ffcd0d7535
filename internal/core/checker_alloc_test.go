package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// streamAllocDoc builds a well-formed lowercase document of roughly `paras`
// paragraphs with one constant violation up front (an FB1 solidus), so the
// finding path is exercised while the body scales cleanly. Lowercase ASCII
// keeps the tokenizer on its zero-copy spans — the regime in which
// CheckStream's allocation count must not depend on input size.
func streamAllocDoc(paras int) []byte {
	var b strings.Builder
	b.WriteString("<!doctype html><html><head><title>t</title></head><body><img//src=x>")
	for i := 0; i < paras; i++ {
		b.WriteString(`<p class="c"><a href="/a" target="_blank">link</a> plain body text</p>`)
	}
	b.WriteString("</body></html>")
	return []byte(b.String())
}

// TestCheckStreamAllocsFlat is the O(1)-memory acceptance check: the
// number of allocations per CheckStream call must be flat across a 10×
// input-size sweep. Any per-token or per-tag allocation (token slices,
// fresh attribute arrays, copied names) would scale with the paragraph
// count and fail here.
func TestCheckStreamAllocsFlat(t *testing.T) {
	c := NewStreamingChecker()
	allocs := func(doc []byte) float64 {
		// One warm-up run primes the TokenStream pool and scratch sizes.
		if _, err := c.CheckStream(doc); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := c.CheckStream(doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(streamAllocDoc(50))
	big := allocs(streamAllocDoc(500))
	if big > base+4 {
		t.Errorf("CheckStream allocations scale with input: %.1f allocs at 1x, %.1f at 10x", base, big)
	}
}

// TestCheckOnePassAllocsFlat extends the flat-allocations bound to the
// one-pass tree check: the tree itself allocates with the input, so the
// bound is on what Check adds to a bare pooled parse (hook state, findings,
// the report). Recording and replaying a token slice would grow that
// overhead with the tag count, as would a per-tag allocation in the hook.
func TestCheckOnePassAllocsFlat(t *testing.T) {
	c := NewChecker()
	overhead := func(doc []byte) float64 {
		if _, err := c.Check(doc); err != nil {
			t.Fatal(err)
		}
		check := testing.AllocsPerRun(50, func() {
			if _, err := c.Check(doc); err != nil {
				t.Fatal(err)
			}
		})
		parse := testing.AllocsPerRun(50, func() {
			if _, err := htmlparse.ParseReuseWithOptions(doc, htmlparse.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		return check - parse
	}
	base := overhead(streamAllocDoc(50))
	big := overhead(streamAllocDoc(500))
	if big > base+2 {
		t.Errorf("Check's allocations over the parse scale with input: %.1f at 1x, %.1f at 10x", base, big)
	}
}

// TestStreamingRulesHaveStreamHooks pins the catalogue invariant the
// two-phase checker depends on: every TreeRequired=false rule must carry a
// Stream constructor (otherwise Check would silently fall back to tree
// mode), and tree rules must not pretend to stream.
func TestStreamingRulesHaveStreamHooks(t *testing.T) {
	for _, r := range Rules() {
		if !r.TreeRequired && r.Stream == nil {
			t.Errorf("rule %s: TreeRequired=false but no Stream hook", r.ID)
		}
		if r.TreeRequired && r.Stream != nil {
			t.Errorf("rule %s: TreeRequired=true yet has a Stream hook", r.ID)
		}
	}
	if NewStreamingChecker().needTree {
		t.Error("streaming checker thinks it needs a tree")
	}
	if !NewChecker().needTree {
		t.Error("full checker thinks it can skip the tree")
	}
}

// benchFixture loads one of the shared parser benchmark pages.
func benchFixture(b *testing.B, name string) []byte {
	b.Helper()
	data, err := os.ReadFile(filepath.Join("..", "htmlparse", "testdata", "bench", name+".html"))
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkCheckStream measures the constant-memory streaming check over
// the shared parser benchmark fixtures — the per-page cost of the
// crawler's -stream mode.
func BenchmarkCheckStream(b *testing.B) {
	c := NewStreamingChecker()
	for _, name := range []string{"small", "typical", "pathological"} {
		data := benchFixture(b, name)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.CheckStream(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckFull is the tree-mode counterpart, for the ablation
// comparison in EXPERIMENTS.md.
func BenchmarkCheckFull(b *testing.B) {
	c := NewChecker()
	for _, name := range []string{"small", "typical", "pathological"} {
		data := benchFixture(b, name)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.Check(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

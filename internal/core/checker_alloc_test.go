package core

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/hvscan/hvscan/internal/htmlparse"
)

// allocDoc builds a well-formed lowercase document of roughly `paras`
// paragraphs with one constant violation up front (an FB1 solidus), so the
// finding path is exercised while the body scales cleanly. Lowercase ASCII
// keeps the tokenizer on its zero-copy spans, so the parse's allocations
// grow only with the tree.
func allocDoc(paras int) []byte {
	var b strings.Builder
	b.WriteString("<!doctype html><html><head><title>t</title></head><body><img//src=x>")
	for i := 0; i < paras; i++ {
		b.WriteString(`<p class="c"><a href="/a" target="_blank">link</a> plain body text</p>`)
	}
	b.WriteString("</body></html>")
	return []byte(b.String())
}

// TestCheckOnePassAllocsFlat extends the flat-allocations bound to the
// one-pass tree check: the tree itself allocates with the input, so the
// bound is on what Check adds to a bare scoped parse, the parse it runs
// (hook state, findings, the report). Recording and replaying a token
// slice would grow that overhead with the tag count, as would a per-tag
// allocation in a hook. Both sides are counted call by call and the
// fewest taken (minAllocs), so a pooled parser dropped under the race
// detector cannot move the bound.
func TestCheckOnePassAllocsFlat(t *testing.T) {
	c := NewChecker()
	overhead := func(doc []byte) int {
		check := minAllocs(50, func() {
			if _, err := c.Check(doc); err != nil {
				t.Fatal(err)
			}
		})
		parse := minAllocs(50, func() {
			if err := htmlparse.ParseScoped(context.Background(), doc, htmlparse.Options{}, nil, func(*htmlparse.Result) {}); err != nil {
				t.Fatal(err)
			}
		})
		return int(check) - int(parse)
	}
	base := overhead(allocDoc(50))
	big := overhead(allocDoc(500))
	if big > base+2 {
		t.Errorf("Check's allocations over the parse scale with input: %d at 1x, %d at 10x", base, big)
	}
}

// minAllocs returns the fewest heap allocations one call of f made over
// runs calls after a warm-up call, each call counted alone. A sync.Pool
// that drops a Put (the race detector drops a random share on purpose)
// only ever adds allocations to a later call, so the fewest is the count
// of a call whose pools held.
func minAllocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	return least
}

// TestCheckBytesPerCall bounds the bytes a warm Check allocates per page,
// counted from runtime.MemStats.TotalAlloc, so host noise cannot move it:
// a report-only check gives its tree's node slabs back, and what is left
// is the page's input buffer, attribute arrays, errors, events and the
// report. Each call is counted alone and the median taken, because a
// pooled parser can still be dropped now and then, and a dropped
// parser's first page pays for fresh scratch and slabs. The bounds hold
// for the production build; a race-instrumented binary allocates about
// 7% more in the tokenizer alone, so it skips the gate.
func TestCheckBytesPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("the byte bounds are for the uninstrumented build")
	}
	c := NewChecker()
	for _, tc := range []struct {
		name  string
		bound uint64
	}{
		{"small", 8_000},
		{"typical", 250_000},
	} {
		data, err := os.ReadFile(filepath.Join("..", "htmlparse", "testdata", "bench", tc.name+".html"))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := c.Check(data); err != nil {
				t.Fatal(err)
			}
		}
		const calls = 51
		per := make([]uint64, calls)
		var before, after runtime.MemStats
		for i := range per {
			runtime.ReadMemStats(&before)
			if _, err := c.Check(data); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			per[i] = after.TotalAlloc - before.TotalAlloc
		}
		slices.Sort(per)
		if median := per[calls/2]; median > tc.bound {
			t.Errorf("%s: Check allocates %d B per page (median of %d), bound %d", tc.name, median, calls, tc.bound)
		}
	}
}

// benchFixture loads one of the shared parser benchmark pages. "large"
// is no file: it is typical.html with its body, from the first <body to
// the last </body>, spliced in again until the page passes 200 KiB, the
// size of the largest repair documents.
func benchFixture(b *testing.B, name string) []byte {
	b.Helper()
	file := name
	if name == "large" {
		file = "typical"
	}
	data, err := os.ReadFile(filepath.Join("..", "htmlparse", "testdata", "bench", file+".html"))
	if err != nil {
		b.Fatal(err)
	}
	if name == "large" {
		start, end := bytes.Index(data, []byte("<body")), bytes.LastIndex(data, []byte("</body>"))
		page := slices.Clone(data[:end])
		for len(page) < 200<<10 {
			page = append(page, data[start:end]...)
		}
		data = append(page, data[end:]...)
	}
	return data
}

// BenchmarkCheckFull measures the full-catalogue check over the shared
// parser benchmark fixtures.
func BenchmarkCheckFull(b *testing.B) {
	c := NewChecker()
	for _, name := range []string{"small", "typical", "pathological", "large"} {
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

package cdx

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSURT(t *testing.T) {
	cases := map[string]string{
		"https://www.example.org/path/x":   "org,example,www)/path/x",
		"http://example.org":               "org,example)/",
		"https://example.org:8080/a":       "org,example)/a",
		"https://Sub.Example.ORG/A/B?q=1":  "org,example,sub)/a/b?q=1",
		"example.org/x":                    "org,example)/x",
		"https://example.org?q=1":          "org,example)/?q=1",
		"https://bluemarket.co.uk/deals/3": "uk,co,bluemarket)/deals/3",
	}
	for in, want := range cases {
		if got := SURT(in); got != want {
			t.Errorf("SURT(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestHost(t *testing.T) {
	cases := map[string]string{
		"https://www.Example.org/path": "www.example.org",
		"example.org":                  "example.org",
		"http://a.b:443/x?y":           "a.b",
	}
	for in, want := range cases {
		if got := Host(in); got != want {
			t.Errorf("Host(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTimestamp(t *testing.T) {
	ts := Timestamp(time.Date(2022, 1, 30, 23, 59, 8, 0, time.UTC))
	if ts != "20220130235908" {
		t.Fatalf("timestamp = %q", ts)
	}
}

func sampleRecord(url string, off int64) *Record {
	return &Record{
		SURT: SURT(url), Timestamp: "20220130000000",
		URL: url, MIME: "text/html", Status: 200,
		Length: 100, Offset: off, Filename: "seg-0001.warc.gz",
	}
}

func TestLineRoundTrip(t *testing.T) {
	r := sampleRecord("https://example.org/a?x=1", 12345)
	line := r.Line()
	got, err := ParseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Fatalf("round trip: %+v vs %+v", got, r)
	}
	for _, bad := range []string{"", "only-surt", "surt ts", "surt ts notjson"} {
		if _, err := ParseLine(bad); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestIndexLookupPrefix(t *testing.T) {
	ix := &Index{}
	urls := []string{
		"https://example.org/",
		"https://example.org/a",
		"https://example.org/b",
		"https://examples.org/", // different domain, SURT-adjacent
		"https://other.net/",
	}
	for i, u := range urls {
		ix.Add(sampleRecord(u, int64(i)))
	}
	got := ix.LookupPrefix("example.org", 0)
	if len(got) != 3 {
		t.Fatalf("lookup example.org: %d records", len(got))
	}
	for _, r := range got {
		if Host(r.URL) != "example.org" {
			t.Fatalf("leaked %s", r.URL)
		}
	}
	if got := ix.LookupPrefix("example.org", 2); len(got) != 2 {
		t.Fatalf("limit ignored: %d", len(got))
	}
	if got := ix.LookupPrefix("missing.example", 0); len(got) != 0 {
		t.Fatalf("phantom results: %v", got)
	}
}

func TestIndexSerialization(t *testing.T) {
	ix := &Index{}
	ix.Add(sampleRecord("https://b.example/", 2))
	ix.Add(sampleRecord("https://a.example/", 1))
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Sorted by SURT.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "example,a)") {
		t.Fatalf("lines = %q", lines)
	}
	ix2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Len() != 2 {
		t.Fatalf("read back %d records", ix2.Len())
	}
}

// TestConcurrentFirstLookups: both a Read index and an Add-built one
// (which sorts lazily) serve concurrent first lookups; under -race this
// fails if the lazy sort is unguarded.
func TestConcurrentFirstLookups(t *testing.T) {
	build := func() *Index {
		ix := &Index{}
		for i := 0; i < 200; i++ {
			ix.Add(sampleRecord(fmt.Sprintf("https://d%03d.example/p", 199-i), int64(i)))
		}
		return ix
	}
	var buf bytes.Buffer
	if _, err := build().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	read, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*Index{"read": read, "added": build()} {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				domain := fmt.Sprintf("d%03d.example", g*7)
				if got := ix.LookupPrefix(domain, 0); len(got) != 1 || got[0].URL != "https://"+domain+"/p" {
					t.Errorf("%s: lookup %s = %v", name, domain, got)
				}
			}(g)
		}
		wg.Wait()
	}
}

package commoncrawl

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/hvscan/hvscan/internal/cdx"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/warc"
)

func synthetic(t *testing.T) *SyntheticArchive {
	t.Helper()
	return NewSynthetic(corpus.New(corpus.Config{Seed: 3, Domains: 40, MaxPages: 4}))
}

func TestSyntheticQueryAndFetch(t *testing.T) {
	arch := synthetic(t)
	crawls := arch.Crawls()
	if len(crawls) != 8 || crawls[0] != "CC-MAIN-2015-14" {
		t.Fatalf("crawls = %v", crawls)
	}
	g := arch.Generator()
	snap := corpus.Snapshots[2]
	var domain string
	for _, d := range g.Universe() {
		if g.PageCount(d, snap) >= 2 && g.Succeeds(d, snap) {
			domain = d
			break
		}
	}
	recs, err := arch.Query(context.Background(), snap.ID, domain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != g.PageCount(domain, snap) {
		t.Fatalf("records = %d, want %d", len(recs), g.PageCount(domain, snap))
	}
	for _, rec := range recs {
		cap, err := FetchCapture(context.Background(), arch, rec)
		if err != nil {
			t.Fatalf("fetch %s: %v", rec.URL, err)
		}
		if cap.URL != rec.URL {
			t.Fatalf("capture URL %q vs record %q", cap.URL, rec.URL)
		}
		if cap.Status == 200 && cap.MIME == "text/html" && len(cap.Body) == 0 {
			t.Fatalf("empty HTML body for %s", rec.URL)
		}
	}
	// HTML records must sort first (the MIME-filtered collection).
	limited, err := arch.Query(context.Background(), snap.ID, domain, 1)
	if err != nil || len(limited) != 1 {
		t.Fatalf("limit: %v %v", limited, err)
	}

	if _, err := arch.Query(context.Background(), "CC-MAIN-1999-01", domain, 0); err == nil {
		t.Fatal("unknown crawl accepted")
	}
	if _, err := arch.ReadRange(context.Background(), "nonsense", 0, 10); err == nil {
		t.Fatal("bad filename accepted")
	}
	if _, err := arch.ReadRange(context.Background(), recs[0].Filename, 1<<40, 10); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := synthetic(t)
	b := synthetic(t)
	snap := corpus.Snapshots[0]
	d := a.Generator().Universe()[0]
	ra, err := a.Query(context.Background(), snap.ID, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Query(context.Background(), snap.ID, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("lengths differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if *ra[i] != *rb[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra[i], rb[i])
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	arch := synthetic(t)
	srv := httptest.NewServer(NewServer(arch))
	defer srv.Close()
	client := NewClient(srv.URL)

	crawls := client.Crawls()
	if len(crawls) != 8 {
		t.Fatalf("crawls = %v", crawls)
	}

	g := arch.Generator()
	d := g.Universe()[1]
	snap := corpus.Snapshots[0]
	recs, err := client.Query(context.Background(), snap.ID, d, 3)
	if err != nil {
		t.Fatal(err)
	}
	direct, _ := arch.Query(context.Background(), snap.ID, d, 3)
	if len(recs) != len(direct) {
		t.Fatalf("http %d vs direct %d", len(recs), len(direct))
	}
	for i := range recs {
		capH, err := FetchCapture(context.Background(), client, recs[i])
		if err != nil {
			t.Fatal(err)
		}
		capD, err := FetchCapture(context.Background(), arch, direct[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(capH.Body) != string(capD.Body) || capH.MIME != capD.MIME {
			t.Fatalf("capture %d differs over HTTP", i)
		}
	}

	// Error paths.
	resp, err := http.Get(srv.URL + "/cc-index?crawl=&url=")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing params -> %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/cc-index?crawl=NOPE&url=x.example")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown crawl -> %d", resp.StatusCode)
	}
	req, _ := http.NewRequest("GET", srv.URL+"/data/"+recs[0].Filename, nil)
	resp, err = http.DefaultClient.Do(req) // no Range header
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing Range -> %d", resp.StatusCode)
	}
}

func TestParseRange(t *testing.T) {
	off, l, err := parseRange("bytes=10-19")
	if err != nil || off != 10 || l != 10 {
		t.Fatalf("parseRange: %d %d %v", off, l, err)
	}
	for _, bad := range []string{"", "10-19", "bytes=a-b", "bytes=9-5", "bytes=5"} {
		if _, _, err := parseRange(bad); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

// TestDiskArchive writes a small archive via hvgen's layout and reads it
// back through DiskArchive.
func TestDiskArchive(t *testing.T) {
	dir := t.TempDir()
	// Build a one-crawl layout manually (mirrors cmd/hvgen).
	g := corpus.New(corpus.Config{Seed: 5, Domains: 12, MaxPages: 3})
	snap := corpus.Snapshots[0]
	crawlDir := filepath.Join(dir, snap.ID)
	if err := os.MkdirAll(crawlDir, 0o755); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(crawlDir, "segment-0001.warc.gz")
	f, err := os.Create(segPath)
	if err != nil {
		t.Fatal(err)
	}
	w := warc.NewWriter(f)
	index := &cdx.Index{}
	total := 0
	for _, d := range g.Universe() {
		n := g.PageCount(d, snap)
		for i := 0; i < n; i++ {
			status, ctype, body := g.PageHTTP(d, snap, i)
			url := g.PageURL(d, i)
			off, length, err := w.Write(warc.NewResponse(url, snap.Date, warc.BuildHTTPResponse(status, ctype, body)))
			if err != nil {
				t.Fatal(err)
			}
			index.Add(&cdx.Record{
				SURT: cdx.SURT(url), Timestamp: cdx.Timestamp(snap.Date),
				URL: url, MIME: "text/html", Status: status,
				Length: length, Offset: off,
				Filename: snap.ID + "/segment-0001.warc.gz",
			})
			total++
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	idxFile, err := os.Create(filepath.Join(crawlDir, "index.cdxj"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := index.WriteTo(idxFile); err != nil {
		t.Fatal(err)
	}
	idxFile.Close()

	disk, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if got := disk.Crawls(); len(got) != 1 || got[0] != snap.ID {
		t.Fatalf("crawls = %v", got)
	}
	found := 0
	for _, d := range g.Universe() {
		recs, err := disk.Query(context.Background(), snap.ID, d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			cap, err := FetchCapture(context.Background(), disk, rec)
			if err != nil {
				t.Fatalf("fetch %s: %v", rec.URL, err)
			}
			// Disk reads must agree with direct generation.
			_, _, want := g.PageHTTP(d, snap, pageIndexOf(rec.URL))
			if cap.MIME == "text/html" && cap.Status == 200 && string(cap.Body) != string(want) {
				t.Fatalf("disk body differs for %s", rec.URL)
			}
			found++
		}
	}
	if found != total {
		t.Fatalf("found %d records, wrote %d", found, total)
	}

	if _, err := disk.ReadRange(context.Background(), "../outside", 0, 10); err == nil {
		t.Fatal("path traversal accepted")
	}
	if _, err := OpenDisk(t.TempDir()); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// pageIndexOf recovers the page index from a generated URL.
func pageIndexOf(url string) int {
	if strings.HasSuffix(url, "/") {
		return 0
	}
	i := strings.LastIndexByte(url, '/')
	n := 0
	for _, c := range url[i+1:] {
		n = n*10 + int(c-'0')
	}
	return n
}

// TestDiskArchiveConcurrentFirstQueries fires the crawler's access
// pattern at a freshly opened archive: many workers whose first index
// queries of a crawl arrive together. Run under -race.
func TestDiskArchiveConcurrentFirstQueries(t *testing.T) {
	dir := t.TempDir()
	recs := writeDiskFixture(t, dir, 2)
	a, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	crawl := a.Crawls()[0]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(rec *cdx.Record) {
			defer wg.Done()
			got, err := a.Query(context.Background(), crawl, cdx.Host(rec.URL), 0)
			if err != nil {
				t.Error(err)
				return
			}
			if len(got) == 0 {
				t.Errorf("query %s: no captures", cdx.Host(rec.URL))
			}
		}(recs[g%len(recs)])
	}
	wg.Wait()
}

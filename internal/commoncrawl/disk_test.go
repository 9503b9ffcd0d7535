package commoncrawl

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/hvscan/hvscan/internal/cdx"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/warc"
)

// writeDiskFixture lays out an hvgen-style archive under dir with the
// corpus spread across `segments` WARC files, returning the index
// records for every page.
func writeDiskFixture(tb testing.TB, dir string, segments int) []*cdx.Record {
	tb.Helper()
	g := corpus.New(corpus.Config{Seed: 5, Domains: 12, MaxPages: 3})
	snap := corpus.Snapshots[0]
	crawlDir := filepath.Join(dir, snap.ID)
	if err := os.MkdirAll(crawlDir, 0o755); err != nil {
		tb.Fatal(err)
	}
	files := make([]*os.File, segments)
	writers := make([]*warc.Writer, segments)
	names := make([]string, segments)
	for i := range files {
		names[i] = fmt.Sprintf("segment-%04d.warc.gz", i)
		f, err := os.Create(filepath.Join(crawlDir, names[i]))
		if err != nil {
			tb.Fatal(err)
		}
		files[i] = f
		writers[i] = warc.NewWriter(f)
	}
	index := &cdx.Index{}
	var recs []*cdx.Record
	seg := 0
	for _, d := range g.Universe() {
		for i := 0; i < g.PageCount(d, snap); i++ {
			status, ctype, body := g.PageHTTP(d, snap, i)
			url := g.PageURL(d, i)
			off, length, err := writers[seg].Write(warc.NewResponse(url, snap.Date, warc.BuildHTTPResponse(status, ctype, body)))
			if err != nil {
				tb.Fatal(err)
			}
			rec := &cdx.Record{
				SURT: cdx.SURT(url), Timestamp: cdx.Timestamp(snap.Date),
				URL: url, MIME: "text/html", Status: status,
				Length: length, Offset: off,
				Filename: snap.ID + "/" + names[seg],
			}
			index.Add(rec)
			recs = append(recs, rec)
			seg = (seg + 1) % segments
		}
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	idxFile, err := os.Create(filepath.Join(crawlDir, "index.cdxj"))
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := index.WriteTo(idxFile); err != nil {
		tb.Fatal(err)
	}
	if err := idxFile.Close(); err != nil {
		tb.Fatal(err)
	}
	return recs
}

// TestDiskArchiveFDBound pins the descriptor budget: reads across more
// segment files than maxOpen keep the handle cache at the cap, keep
// serving correct bytes, and survive concurrent readers (refcounts stop
// eviction from closing a file mid-pread; run under -race).
func TestDiskArchiveFDBound(t *testing.T) {
	dir := t.TempDir()
	recs := writeDiskFixture(t, dir, 6)
	disk, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	disk.SetMaxOpen(2)

	for _, r := range recs {
		if _, err := disk.ReadRange(context.Background(), r.Filename, r.Offset, r.Length); err != nil {
			t.Fatal(err)
		}
		if n := disk.OpenFiles(); n > 2 {
			t.Fatalf("descriptor cache grew to %d with maxOpen=2", n)
		}
	}
	if n := disk.OpenFiles(); n != 2 {
		t.Fatalf("after the sweep OpenFiles = %d, want the cap (2)", n)
	}

	// Evicted handles reopen transparently and the payloads still decode.
	cap0, err := FetchCapture(context.Background(), disk, recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if cap0.URL == "" || len(cap0.Body) == 0 {
		t.Fatalf("capture after reopen is empty: %+v", cap0)
	}

	// Hammer all segments concurrently under a one-descriptor budget.
	disk.SetMaxOpen(1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(recs); i += 8 {
				r := recs[i]
				if _, err := disk.ReadRange(context.Background(), r.Filename, r.Offset, r.Length); err != nil {
					t.Errorf("concurrent read %s@%d: %v", r.Filename, r.Offset, err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkArchiveReadRange measures one ranged pread of a WARC record
// from a DiskArchive, the fetch cost below the decode.
func BenchmarkArchiveReadRange(b *testing.B) {
	dir := b.TempDir()
	recs := writeDiskFixture(b, dir, 2)
	disk, err := OpenDisk(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	r := recs[0]

	b.Run("disk", func(b *testing.B) {
		b.SetBytes(r.Length)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := disk.ReadRange(context.Background(), r.Filename, r.Offset, r.Length); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFetchCapture measures the fetch layer of a crawl page end to
// end: a ranged pread from a DiskArchive of gzip-member WARC files
// written by warc.Writer, the member's decode, and the HTTP split. It
// cycles through every record so the work is not one cached range.
func BenchmarkFetchCapture(b *testing.B) {
	dir := b.TempDir()
	recs := writeDiskFixture(b, dir, 2)
	disk, err := OpenDisk(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	var total int64
	for _, r := range recs {
		total += r.Length
	}
	b.SetBytes(total / int64(len(recs)))
	b.ReportAllocs()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := FetchCapture(ctx, disk, recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

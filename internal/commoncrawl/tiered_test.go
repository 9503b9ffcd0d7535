package commoncrawl

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/hvscan/hvscan/internal/cdx"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/obs"
	"github.com/hvscan/hvscan/internal/warc"
)

// fakeBackend is a synthetic Archive that counts every ReadRange and
// can block or fail on demand, for exercising the tiered cache's
// coalescing and error paths deterministically.
type fakeBackend struct {
	mu     sync.Mutex
	reads  int
	perKey map[readKey]int
	// fail decides, per key and 1-based attempt, whether the read errors.
	fail func(key readKey, attempt int) error

	entered chan struct{} // receives one token per backend entry, if set
	release chan struct{} // backend blocks on this until closed, if set
}

func (b *fakeBackend) Crawls() []string { return []string{"CC-FAKE"} }

func (b *fakeBackend) Query(context.Context, string, string, int) ([]*cdx.Record, error) {
	return nil, nil
}

func (b *fakeBackend) ReadRange(_ context.Context, filename string, offset, length int64) ([]byte, error) {
	key := readKey{filename: filename, offset: offset, length: length}
	b.mu.Lock()
	b.reads++
	if b.perKey == nil {
		b.perKey = make(map[readKey]int)
	}
	b.perKey[key]++
	attempt := b.perKey[key]
	fail := b.fail
	b.mu.Unlock()
	if b.entered != nil {
		b.entered <- struct{}{}
	}
	if b.release != nil {
		<-b.release
	}
	if fail != nil {
		if err := fail(key, attempt); err != nil {
			return nil, err
		}
	}
	data := make([]byte, length)
	for i := range data {
		data[i] = byte(offset + int64(i))
	}
	return data, nil
}

func (b *fakeBackend) readCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reads
}

// TestTieredCoalescesConcurrentMisses pins the singleflight contract:
// while one backend read is in flight, every concurrent request for
// the same range joins it, so the backend sees exactly one read.
// Run under -race (make chaos does) to double as a publication check.
func TestTieredCoalescesConcurrentMisses(t *testing.T) {
	backend := &fakeBackend{
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
	reg := obs.NewRegistry()
	ta := NewTiered(backend, 1<<20).Instrument(reg)
	coalesced := reg.Counter("commoncrawl_cache_coalesced_total")

	const waiters = 9
	results := make(chan []byte, waiters+1)
	readOne := func() {
		data, err := ta.ReadRange(context.Background(), "f.warc.gz", 10, 32)
		if err != nil {
			t.Errorf("ReadRange: %v", err)
		}
		results <- data
	}

	go readOne()      // the leader…
	<-backend.entered // …is now inside the blocked backend read.
	// The flight stays registered until the backend returns, so every
	// waiter started now must join it rather than read again.
	for i := 0; i < waiters; i++ {
		go readOne()
	}
	deadline := time.Now().Add(5 * time.Second)
	for coalesced.Value() < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters coalesced", coalesced.Value(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(backend.release)

	var first []byte
	for i := 0; i < waiters+1; i++ {
		data := <-results
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatal("coalesced readers saw different bytes")
		}
	}
	if n := backend.readCount(); n != 1 {
		t.Fatalf("backend saw %d reads, want exactly 1", n)
	}
	if got := reg.Counter("commoncrawl_cache_misses_total").Value(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
	// And now it is resident: one more read is a pure hit.
	if _, err := ta.ReadRange(context.Background(), "f.warc.gz", 10, 32); err != nil {
		t.Fatal(err)
	}
	if n := backend.readCount(); n != 1 {
		t.Fatalf("cache hit reached the backend (%d reads)", n)
	}
	if got := reg.Counter("commoncrawl_cache_hits_total").Value(); got != 1 {
		t.Fatalf("hits = %d, want 1", got)
	}
}

// TestTieredEvictionAccounting walks the byte budget across its exact
// boundary: filling to precisely the budget evicts nothing, one byte
// over evicts from the LRU tail, hits refresh recency, and entries
// larger than the whole budget are served but never admitted.
func TestTieredEvictionAccounting(t *testing.T) {
	backend := &fakeBackend{}
	reg := obs.NewRegistry()
	ta := NewTiered(backend, 100).Instrument(reg)
	ctx := context.Background()
	read := func(offset, length int64) {
		t.Helper()
		if _, err := ta.ReadRange(ctx, "f.warc.gz", offset, length); err != nil {
			t.Fatal(err)
		}
	}
	check := func(wantLen int, wantResident int64) {
		t.Helper()
		if got := ta.Len(); got != wantLen {
			t.Fatalf("Len = %d, want %d", got, wantLen)
		}
		if got := ta.Resident(); got != wantResident {
			t.Fatalf("Resident = %d, want %d", got, wantResident)
		}
		if g := reg.Gauge("commoncrawl_cache_resident_bytes").Value(); g != wantResident {
			t.Fatalf("resident gauge = %d, want %d", g, wantResident)
		}
	}

	read(0, 40)
	read(100, 40)
	read(200, 20) // exactly at budget: 100 of 100 resident, nothing evicted
	check(3, 100)
	if ev := reg.Counter("commoncrawl_cache_evictions_total").Value(); ev != 0 {
		t.Fatalf("evictions at exact budget = %d, want 0", ev)
	}

	read(300, 40) // over budget: the oldest entry (0,40) goes
	check(3, 100)
	before := backend.readCount()
	read(0, 40) // evicted, so this is a miss again
	if backend.readCount() != before+1 {
		t.Fatal("evicted entry was served from cache")
	}
	check(3, 100) // (100,40) evicted to make room

	read(100, 40) // miss; (200,20) evicted — order is now (100),(0),(300)
	read(300, 40) // hit: refreshes (300,40) to the front
	backendBefore := backend.readCount()
	read(400, 40) // evicts the two LRU entries (100,40) then (0,40)
	check(2, 80)
	if backend.readCount() != backendBefore+1 {
		t.Fatal("unexpected backend traffic during eviction")
	}

	// Oversized read: served correctly, never cached.
	data, err := ta.ReadRange(ctx, "f.warc.gz", 1000, 200)
	if err != nil || int64(len(data)) != 200 {
		t.Fatalf("oversized read: %d bytes, err %v", len(data), err)
	}
	check(2, 80)
}

// TestTieredErrorsNotCached pins the retry contract: a failed read
// must not poison its key, so the next attempt reaches the backend.
func TestTieredErrorsNotCached(t *testing.T) {
	backendErr := errors.New("backend weather")
	backend := &fakeBackend{
		fail: func(_ readKey, attempt int) error {
			if attempt == 1 {
				return backendErr
			}
			return nil
		},
	}
	ta := NewTiered(backend, 1<<20)
	ctx := context.Background()
	if _, err := ta.ReadRange(ctx, "f.warc.gz", 0, 16); !errors.Is(err, backendErr) {
		t.Fatalf("first read: %v, want backend error", err)
	}
	if ta.Len() != 0 {
		t.Fatal("error was admitted to the cache")
	}
	if _, err := ta.ReadRange(ctx, "f.warc.gz", 0, 16); err != nil {
		t.Fatalf("second read should retry through: %v", err)
	}
	if n := backend.readCount(); n != 2 {
		t.Fatalf("backend saw %d reads, want 2", n)
	}
}

// TestChaosTieredTransientsRetryThrough runs the production stack —
// tiered cache over an instrumented chaos archive — and checks that
// chaos transients clear on retry exactly as without the cache, and
// that once cached, re-reads stop generating backend traffic.
func TestChaosTieredTransientsRetryThrough(t *testing.T) {
	arch := chaosTestArchive(t)
	chaos := NewChaos(arch, ChaosConfig{Seed: 3, TransientRate: 1}) // every key faults once
	reg := obs.NewRegistry()
	ta := NewTiered(Instrument(chaos, reg), 1<<20)
	backendOK := reg.Counter(`commoncrawl_reads_total{outcome="ok"}`)

	crawl := arch.Crawls()[0]
	d := arch.Generator().Universe()[0]
	recs, err := arch.Query(context.Background(), crawl, d, 1)
	if err != nil || len(recs) == 0 {
		t.Fatalf("ground-truth query: %v (%d records)", err, len(recs))
	}
	r := recs[0]
	if _, err := ta.ReadRange(context.Background(), r.Filename, r.Offset, r.Length); !errors.Is(err, ErrChaosTransient) {
		t.Fatalf("first read: %v, want transient fault through the cache", err)
	}
	got, err := ta.ReadRange(context.Background(), r.Filename, r.Offset, r.Length)
	if err != nil {
		t.Fatalf("second read must clear: %v", err)
	}
	want, err := arch.ReadRange(context.Background(), r.Filename, r.Offset, r.Length)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("tiered bytes diverge from the archive: %v", err)
	}
	okBefore := backendOK.Value()
	for i := 0; i < 3; i++ {
		if _, err := ta.ReadRange(context.Background(), r.Filename, r.Offset, r.Length); err != nil {
			t.Fatal(err)
		}
	}
	if backendOK.Value() != okBefore {
		t.Fatal("cache hits generated backend reads")
	}
}

// TestResumeTieredColdCacheEquivalence is the kill-9 story for the
// cache layer: restarting with an empty cache over the same
// deterministic chaos archive yields the same outcome fingerprint as
// the warm process, so a crawl resume cannot observe the cache.
func TestResumeTieredColdCacheEquivalence(t *testing.T) {
	cfg := ChaosConfig{Seed: 11, TransientRate: 0.3, PermanentRate: 0.1, TruncateRate: 0.2, GarbageRate: 0.2}
	arch := chaosTestArchive(t)
	crawl := arch.Crawls()[0]
	domains := arch.Generator().Universe()

	sweep := func(a Archive) map[string]string {
		out := make(map[string]string)
		for _, d := range domains {
			recs, err := a.Query(context.Background(), crawl, d, 3)
			if err != nil {
				out["q|"+d] = err.Error()
				continue
			}
			out["q|"+d] = "ok"
			for _, r := range recs {
				got, err := a.ReadRange(context.Background(), r.Filename, r.Offset, r.Length)
				if err != nil {
					out[r.URL] = err.Error()
					continue
				}
				want, _ := arch.ReadRange(context.Background(), r.Filename, r.Offset, r.Length)
				switch {
				case bytes.Equal(got, want):
					out[r.URL] = "ok"
				case len(got) < len(want):
					out[r.URL] = "truncated"
				default:
					out[r.URL] = "garbage"
				}
			}
		}
		return out
	}

	warm := sweep(NewTiered(NewChaos(arch, cfg), 1<<20))
	cold := sweep(NewTiered(NewChaos(arch, cfg), 1<<20)) // fresh cache = restarted process
	if len(warm) != len(cold) {
		t.Fatalf("sweeps differ in size: %d vs %d", len(warm), len(cold))
	}
	for k, v := range warm {
		if cold[k] != v {
			t.Fatalf("outcome for %s differs across a cache restart: %q vs %q", k, v, cold[k])
		}
	}
}

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

// BenchmarkArchiveReadRange measures the cache-hit speedup the tiered
// layer buys over direct disk preads — the number recorded in
// EXPERIMENTS.md for the crawler's re-scan workloads.
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
	b.Run("tiered-hit", func(b *testing.B) {
		ta := NewTiered(disk, DefaultCacheBudget)
		if _, err := ta.ReadRange(context.Background(), r.Filename, r.Offset, r.Length); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(r.Length)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ta.ReadRange(context.Background(), r.Filename, r.Offset, r.Length); err != nil {
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

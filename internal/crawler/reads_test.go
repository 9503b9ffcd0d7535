package crawler

import (
	"context"
	"sync"
	"testing"

	"github.com/hvscan/hvscan/internal/commoncrawl"
	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/store"
)

// rangeKey identifies one ranged archive read.
type rangeKey struct {
	filename       string
	offset, length int64
}

// countingArchive counts every ReadRange per (filename, offset, length).
type countingArchive struct {
	commoncrawl.Archive
	mu    sync.Mutex
	reads map[rangeKey]int
}

func (a *countingArchive) ReadRange(ctx context.Context, filename string, offset, length int64) ([]byte, error) {
	a.mu.Lock()
	a.reads[rangeKey{filename, offset, length}]++
	a.mu.Unlock()
	return a.Archive.ReadRange(ctx, filename, offset, length)
}

// TestCrawlReadsEachRangeOnce pins the archive traffic of a fault-free
// study: across all eight snapshots, with and without Fix, every WARC
// range is read exactly once and every read is one fetched page. A
// read cache in front of the archive could never hit on this traffic.
func TestCrawlReadsEachRangeOnce(t *testing.T) {
	arch := testArchive(60, 4)
	domains := arch.Generator().Universe()
	for _, fix := range []bool{false, true} {
		counted := &countingArchive{Archive: arch, reads: make(map[rangeKey]int)}
		p := New(counted, core.NewChecker(), store.New(), Config{Workers: 4, PagesPerDomain: 4, Fix: fix})
		for _, crawl := range arch.Crawls() {
			if _, err := p.RunSnapshot(context.Background(), crawl, domains); err != nil {
				t.Fatalf("fix=%v RunSnapshot(%s): %v", fix, crawl, err)
			}
		}
		total := 0
		for k, n := range counted.reads {
			if n != 1 {
				t.Errorf("fix=%v: %s@%d+%d read %d times, want 1", fix, k.filename, k.offset, k.length, n)
			}
			total += n
		}
		if total == 0 {
			t.Fatalf("fix=%v: no range reads", fix)
		}
		if fetched := p.Metrics().PagesFetched.Value(); uint64(total) != fetched {
			t.Errorf("fix=%v: %d range reads, %d pages fetched", fix, total, fetched)
		}
	}
}

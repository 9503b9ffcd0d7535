// Package cdx implements CDXJ index records, the lookup layer Common Crawl
// exposes over its WARC archives: one line per capture, keyed by the
// SURT-canonicalized URL plus timestamp, with a JSON payload locating the
// record inside a WARC file (filename, offset, length).
package cdx

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one capture entry.
type Record struct {
	// SURT is the canonical sort-friendly key, e.g. "org,example)/path".
	SURT string `json:"-"`
	// Timestamp is the 14-digit capture time (YYYYMMDDhhmmss).
	Timestamp string `json:"-"`

	URL      string `json:"url"`
	MIME     string `json:"mime"`
	Status   int    `json:"status"`
	Digest   string `json:"digest,omitempty"`
	Length   int64  `json:"length"`
	Offset   int64  `json:"offset"`
	Filename string `json:"filename"`
}

// Line serializes the record as one CDXJ line.
func (r *Record) Line() string {
	payload, _ := json.Marshal(r) // struct of plain fields never fails
	return fmt.Sprintf("%s %s %s", r.SURT, r.Timestamp, payload)
}

// ParseLine decodes one CDXJ line.
func ParseLine(line string) (*Record, error) {
	line = strings.TrimSpace(line)
	if line == "" {
		return nil, fmt.Errorf("cdx: empty line")
	}
	i := strings.IndexByte(line, ' ')
	if i < 0 {
		return nil, fmt.Errorf("cdx: missing timestamp in %q", line)
	}
	j := strings.IndexByte(line[i+1:], ' ')
	if j < 0 {
		return nil, fmt.Errorf("cdx: missing payload in %q", line)
	}
	rec := &Record{SURT: line[:i], Timestamp: line[i+1 : i+1+j]}
	if err := json.Unmarshal([]byte(line[i+1+j+1:]), rec); err != nil {
		return nil, fmt.Errorf("cdx: payload: %w", err)
	}
	return rec, nil
}

// Timestamp formats t in CDX 14-digit form.
func Timestamp(t time.Time) string { return t.UTC().Format("20060102150405") }

// SURT canonicalizes a URL into its sort-friendly key: scheme dropped,
// host labels reversed and comma-joined, path appended after ")". Query
// strings are kept verbatim; ports are dropped.
func SURT(rawURL string) string {
	u := rawURL
	if i := strings.Index(u, "://"); i >= 0 {
		u = u[i+3:]
	}
	host, path := u, "/"
	if i := strings.IndexAny(u, "/?"); i >= 0 {
		host, path = u[:i], u[i:]
		if path[0] == '?' {
			path = "/" + path
		}
	}
	if i := strings.IndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	labels := strings.Split(strings.ToLower(host), ".")
	for l, r := 0, len(labels)-1; l < r; l, r = l+1, r-1 {
		labels[l], labels[r] = labels[r], labels[l]
	}
	return strings.Join(labels, ",") + ")" + strings.ToLower(path)
}

// Host extracts the hostname from a URL (for per-domain grouping).
func Host(rawURL string) string {
	u := rawURL
	if i := strings.Index(u, "://"); i >= 0 {
		u = u[i+3:]
	}
	if i := strings.IndexAny(u, "/?"); i >= 0 {
		u = u[:i]
	}
	if i := strings.IndexByte(u, ':'); i >= 0 {
		u = u[:i]
	}
	return strings.ToLower(u)
}

// Index is an in-memory CDXJ index with prefix lookup, the shape the
// Common Crawl index server exposes.
//
// Lookups may run concurrently. Read returns an index that is already
// sorted; one built with Add sorts itself on its first lookup, under a
// lock, so concurrent first lookups do not race. Add itself must not run
// concurrently with lookups.
type Index struct {
	records []*Record // sorted by (SURT, Timestamp) once sorted is set
	sorted  atomic.Bool
	mu      sync.Mutex // serializes the lazy sort
}

// Add appends a record.
func (ix *Index) Add(r *Record) {
	ix.records = append(ix.records, r)
	ix.sorted.Store(false)
}

// Len reports the number of records.
func (ix *Index) Len() int { return len(ix.records) }

func (ix *Index) sort() {
	if ix.sorted.Load() {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.sorted.Load() {
		return
	}
	sort.Slice(ix.records, func(i, j int) bool {
		if ix.records[i].SURT != ix.records[j].SURT {
			return ix.records[i].SURT < ix.records[j].SURT
		}
		return ix.records[i].Timestamp < ix.records[j].Timestamp
	})
	ix.sorted.Store(true)
}

// LookupPrefix returns up to limit records whose SURT starts with the
// canonical form of urlPrefix (a domain queries as "example.org"). A
// limit <= 0 means no limit.
func (ix *Index) LookupPrefix(urlPrefix string, limit int) []*Record {
	ix.sort()
	key := SURT(urlPrefix)
	key = strings.TrimSuffix(key, "/") // domain query: match all paths
	start := sort.Search(len(ix.records), func(i int) bool {
		return ix.records[i].SURT >= key
	})
	var out []*Record
	for i := start; i < len(ix.records); i++ {
		if !strings.HasPrefix(ix.records[i].SURT, key) {
			break
		}
		out = append(out, ix.records[i])
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out
}

// WriteTo serializes the index in sorted order.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	ix.sort()
	bw := bufio.NewWriter(w)
	var n int64
	for _, r := range ix.records {
		m, err := bw.WriteString(r.Line() + "\n")
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Read parses a CDXJ stream into an Index.
func Read(r io.Reader) (*Index, error) {
	ix := &Index{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		rec, err := ParseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		ix.Add(rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Sorting here, once, is what lets the index be shared by concurrent
	// readers without their first lookups racing to sort it.
	ix.sort()
	return ix, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"github.com/hvscan/hvscan/internal/cdx"
	"github.com/hvscan/hvscan/internal/corpus"
	"github.com/hvscan/hvscan/internal/warc"
)

// Seeded inputs. One seed drives all three fixtures; each is generated
// once per seed into the cache directory, outside every timed phase, and
// the program only ever receives the generated files.

// Fixture sizes. A pass over the study archive or the repair documents
// takes about a second, so one run times many whole passes.
const (
	studyDomains = 120
	studyPages   = 10
	trancoLists  = 5
	serveBodies  = 4096
	repairDocs   = 96
	repairMinKiB = 8
	repairMaxKiB = 256
	// keepSeeds bounds the cache: older seeds of a fixture are deleted.
	keepSeeds = 4
	// maxDocBytes is the crawler's default MaxDocumentBytes: larger
	// captures are skipped by design, not analyzed.
	maxDocBytes = 2 << 20
)

// pageTruth is the generator's ground truth for one analyzable page.
type pageTruth struct {
	Planted []string `json:"planted"`
	// Allowed is Planted plus the cross-firings two planted payloads
	// explain (see allowedRules).
	Allowed []string `json:"allowed"`
}

// allowedRules mirrors the generator↔checker contract of the corpus
// package: every planted rule must be reported, and a reported rule that
// was not planted must be explained by two base payloads on one page.
func allowedRules(planted []string) []string {
	has := map[string]bool{}
	for _, r := range planted {
		has[r] = true
	}
	out := append([]string(nil), planted...)
	if has["DM2_1"] && has["DM2_3"] && !has["DM2_2"] {
		out = append(out, "DM2_2")
	}
	if (has["DM2_1"] || has["DM2_2"]) && !has["DM2_3"] {
		out = append(out, "DM2_3")
	}
	sort.Strings(out)
	return out
}

func truthOf(g *corpus.Generator, domain string, snap corpus.Snapshot, page int) pageTruth {
	planted := g.PlantedRules(domain, snap, page)
	return pageTruth{Planted: planted, Allowed: allowedRules(planted)}
}

// analyzable reports whether the crawler checks a capture rather than
// skipping it by design (status, MIME, size or encoding).
func analyzable(status int, contentType string, body []byte) bool {
	return status == 200 && strings.HasPrefix(contentType, "text/html") &&
		len(body) <= maxDocBytes && utf8.Valid(body)
}

// domainTruth is one (snapshot, domain) pair's ground truth over its
// analyzable pages: a reported per-domain rule count must lie in
// [Min, Max].
type domainTruth struct {
	Pages int            `json:"pages"`
	Min   map[string]int `json:"min,omitempty"`
	Max   map[string]int `json:"max,omitempty"`
}

// studyTruth maps crawl → domain → truth.
type studyTruth map[string]map[string]*domainTruth

// fixtureDir returns the cached fixture of one kind and seed, generating
// it first if needed. Generation writes to a temporary directory that is
// renamed into place only when complete, so an interrupted run never
// leaves a half-written fixture behind.
func fixtureDir(cache, kind string, seed int64, gen func(dir string, seed int64) error) (string, error) {
	dir := filepath.Join(cache, kind+"-"+strconv.FormatInt(seed, 10))
	if _, err := os.Stat(filepath.Join(dir, "complete")); err == nil {
		now := time.Now()
		return dir, os.Chtimes(dir, now, now) // most recently used
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	if err := gen(tmp, seed); err != nil {
		return "", fmt.Errorf("generating %s fixture: %w", kind, err)
	}
	if err := os.WriteFile(filepath.Join(tmp, "complete"), nil, 0o644); err != nil {
		return "", err
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, pruneFixtures(cache, kind, dir)
}

// pruneFixtures deletes the least recently used seeds of a kind beyond
// keepSeeds.
func pruneFixtures(cache, kind, keep string) error {
	dirs, err := filepath.Glob(filepath.Join(cache, kind+"-*"))
	if err != nil {
		return err
	}
	type aged struct {
		dir string
		mod time.Time
	}
	var old []aged
	for _, d := range dirs {
		if d == keep || strings.HasSuffix(d, ".tmp") {
			continue
		}
		if fi, err := os.Stat(d); err == nil {
			old = append(old, aged{d, fi.ModTime()})
		}
	}
	sort.Slice(old, func(i, j int) bool { return old[i].mod.After(old[j].mod) })
	for i := keepSeeds - 1; i < len(old); i++ {
		if err := os.RemoveAll(old[i].dir); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// warmFiles reads every file under dir once, so that timed runs see a
// warm page cache whether or not the fixture was just generated.
func warmFiles(dir string) error {
	return filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = io.Copy(io.Discard, f)
		return err
	})
}

// genStudy writes the longitudinal archive in the on-disk layout
// commoncrawl.OpenDisk reads (one directory per crawl with gzip WARC
// segments and a CDXJ index), the Tranco-style lists the dataset is
// derived from, and the ground truth the output checks compare against.
func genStudy(dir string, seed int64) error {
	return genStudySized(dir, seed, studyDomains, studyPages, corpus.Snapshots)
}

func genStudySized(dir string, seed int64, domains, pages int, snaps []corpus.Snapshot) error {
	g := corpus.New(corpus.Config{Seed: seed, Domains: domains, MaxPages: pages})
	for i, l := range g.TrancoLists(trancoLists) {
		var buf bytes.Buffer
		if _, err := l.WriteTo(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("tranco-%02d.csv", i+1)), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	archive := filepath.Join(dir, "archive")
	truth := studyTruth{}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, runtime.NumCPU())
	for _, snap := range snaps {
		wg.Add(1)
		sem <- struct{}{}
		go func(snap corpus.Snapshot) {
			defer func() { <-sem; wg.Done() }()
			t, err := genSnapshot(g, archive, snap)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			truth[snap.ID] = t
		}(snap)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return writeJSON(filepath.Join(dir, "truth.json"), truth)
}

func genSnapshot(g *corpus.Generator, archive string, snap corpus.Snapshot) (map[string]*domainTruth, error) {
	dir := filepath.Join(archive, snap.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	name := snap.ID + "/segment-0001.warc.gz"
	f, err := os.Create(filepath.Join(archive, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	w := warc.NewWriter(f)
	info := warc.NewWarcinfo(name, snap.Date, map[string]string{"isPartOf": snap.ID})
	if _, _, err := w.Write(info); err != nil {
		return nil, err
	}
	index := &cdx.Index{}
	truth := map[string]*domainTruth{}
	for _, domain := range g.Universe() {
		dt := &domainTruth{Min: map[string]int{}, Max: map[string]int{}}
		truth[domain] = dt
		for i := 0; i < g.PageCount(domain, snap); i++ {
			status, ctype, body := g.PageHTTP(domain, snap, i)
			url := g.PageURL(domain, i)
			rec := warc.NewResponse(url, snap.Date, warc.BuildHTTPResponse(status, ctype, body))
			req := warc.NewRequest(url, snap.Date, warc.BuildHTTPRequest(url), rec.Headers.Get(warc.HeaderRecordID))
			if _, _, err := w.Write(req); err != nil {
				return nil, err
			}
			off, length, err := w.Write(rec)
			if err != nil {
				return nil, err
			}
			mime, _, _ := strings.Cut(ctype, ";")
			index.Add(&cdx.Record{
				SURT: cdx.SURT(url), Timestamp: cdx.Timestamp(snap.Date), URL: url,
				MIME: mime, Status: status, Length: length, Offset: off, Filename: name,
			})
			if !analyzable(status, ctype, body) {
				continue
			}
			dt.Pages++
			t := truthOf(g, domain, snap, i)
			for _, r := range t.Planted {
				dt.Min[r]++
			}
			for _, r := range t.Allowed {
				dt.Max[r]++
			}
		}
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := index.WriteTo(&buf); err != nil {
		return nil, err
	}
	return truth, os.WriteFile(filepath.Join(dir, "index.cdxj"), buf.Bytes(), 0o644)
}

// docRef locates one input document in a fixture's docs.bin.
type docRef struct {
	Off   int64     `json:"off"`
	Len   int       `json:"len"`
	Truth pageTruth `json:"truth"`
}

// pagePicker draws distinct analyzable corpus pages from every snapshot.
type pagePicker struct {
	g    *corpus.Generator
	rng  *rand.Rand
	seen map[string]bool
}

func newPagePicker(seed int64) *pagePicker {
	return &pagePicker{
		g:    corpus.New(corpus.Config{Seed: seed, Domains: 4096, MaxPages: 10}),
		rng:  rand.New(rand.NewSource(seed)),
		seen: map[string]bool{},
	}
}

func (p *pagePicker) next() ([]byte, pageTruth) {
	universe := p.g.Universe()
	for {
		d := universe[p.rng.Intn(len(universe))]
		snap := corpus.Snapshots[p.rng.Intn(len(corpus.Snapshots))]
		n := p.g.PageCount(d, snap)
		if n == 0 {
			continue
		}
		i := p.rng.Intn(n)
		key := d + "|" + snap.ID + "|" + strconv.Itoa(i)
		if p.seen[key] {
			continue
		}
		p.seen[key] = true
		status, ctype, body := p.g.PageHTTP(d, snap, i)
		if analyzable(status, ctype, body) {
			return body, truthOf(p.g, d, snap, i)
		}
	}
}

// genServe writes serveBodies distinct corpus pages with their truth.
func genServe(dir string, seed int64) error {
	p := newPagePicker(seed)
	w := &docWriter{}
	for i := 0; i < serveBodies; i++ {
		w.add(p.next())
	}
	return w.save(dir)
}

// genRepair writes repairDocs large documents. Each splices the <body>
// contents of corpus pages into the head of another page. Sizes are
// log-uniform from repairMinKiB to repairMaxKiB, stratified (one size per
// equal-probability band, in seeded order) so that the size mix, which
// sets the per-byte cost and the tail, barely differs between seeds.
func genRepair(dir string, seed int64) error {
	p := newPagePicker(seed)
	var heads, inners [][]byte
	for len(inners) < 2048 {
		page, _ := p.next()
		b := bytes.Index(page, []byte("<body"))
		e := bytes.LastIndex(page, []byte("</body>"))
		if b < 0 || e < b {
			continue // an EOF-truncated page has no body to splice
		}
		open := b + bytes.IndexByte(page[b:], '>') + 1
		if open <= b || open > e {
			continue
		}
		heads = append(heads, page[:open])
		inners = append(inners, page[open:e])
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	bands := rng.Perm(repairDocs)
	ratio := float64(repairMaxKiB) / repairMinKiB
	w := &docWriter{}
	for i := 0; i < repairDocs; i++ {
		frac := (float64(bands[i]) + rng.Float64()) / repairDocs
		target := int(repairMinKiB * 1024 * math.Pow(ratio, frac))
		doc := append([]byte(nil), heads[rng.Intn(len(heads))]...)
		for len(doc) < target {
			doc = append(doc, inners[rng.Intn(len(inners))]...)
		}
		doc = append(doc, "</body></html>\n"...)
		w.add(doc, pageTruth{})
	}
	return w.save(dir)
}

type docWriter struct {
	buf  bytes.Buffer
	refs []docRef
}

func (w *docWriter) add(doc []byte, t pageTruth) {
	w.refs = append(w.refs, docRef{Off: int64(w.buf.Len()), Len: len(doc), Truth: t})
	w.buf.Write(doc)
}

func (w *docWriter) save(dir string) error {
	if err := os.WriteFile(filepath.Join(dir, "docs.bin"), w.buf.Bytes(), 0o644); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "docs.json"), w.refs)
}

// docSet streams documents from a fixture: only the index is held in
// memory, so the harness does not inflate the program's resident set.
type docSet struct {
	f    *os.File
	refs []docRef
}

func openDocs(dir string) (*docSet, error) {
	var refs []docRef
	if err := readJSON(filepath.Join(dir, "docs.json"), &refs); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, "docs.bin"))
	if err != nil {
		return nil, err
	}
	return &docSet{f: f, refs: refs}, nil
}

// read returns document i in a fresh buffer.
func (s *docSet) read(i int) ([]byte, error) {
	r := s.refs[i]
	b := make([]byte, r.Len)
	_, err := s.f.ReadAt(b, r.Off)
	return b, err
}

func (s *docSet) Close() error { return s.f.Close() }

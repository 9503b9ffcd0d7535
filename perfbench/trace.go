package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Spans for the traced run. The benchmark records them around its own
// calls into each layer; nothing is traced inside the program. Spans are
// kept in memory and written out when the run ends.

// span is one timed call. Spans of one page or request share ID.
type span struct {
	ID     uint64 `json:"id"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for none
	Name   string `json:"name"`
	// Start and End are wall-clock Unix nanoseconds, so that spans the
	// server process writes line up with the load generator's.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

type recorder struct {
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{spans: make([]span, 0, 1<<16)} }

func now() int64 { return time.Now().UnixNano() }

// add records a finished span and returns its index.
func (r *recorder) add(s span) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return int32(len(r.spans) - 1)
}

func (r *recorder) setParent(child, parent int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[child].Parent = parent
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover.
func selfTimes(spans []span) []int64 {
	children := map[int32][]int32{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, until := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, until), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				until = to
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	n           int
	total, self int64
	durs        []float64 // µs
}

func summarize(spans []span) map[string]*spanStat {
	self := selfTimes(spans)
	out := map[string]*spanStat{}
	for i, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.n++
		st.total += s.dur()
		st.self += self[i]
		st.durs = append(st.durs, float64(s.dur())/1e3)
	}
	return out
}

// printSpanTable prints every span name with its count, mean duration,
// mean self time and percentiles, each percentile with the number of
// samples beyond it.
func printSpanTable(w io.Writer, stats map[string]*spanStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-22s %8s %11s %11s %11s %11s %8s\n", "span", "n", "mean_us", "self_us", "p50_us", "p99_us", "n>p99")
	for _, n := range names {
		st := stats[n]
		fmt.Fprintf(w, "%-22s %8d %11.2f %11.2f %11.2f %11.2f %8d\n", n, st.n,
			float64(st.total)/1e3/float64(st.n), float64(st.self)/1e3/float64(st.n),
			quantile(st.durs, 0.5), quantile(st.durs, 0.99), beyond(st.n, 0.99))
	}
}

// goid returns the calling goroutine's ID. Only the traced run calls it:
// the crawler runs each page's fetch and check on one worker goroutine,
// and the ID is what ties the two calls to one page.
func goid() uint64 {
	var buf [40]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64) // the runtime's format; 0 if it ever changes
	return id
}

// saveSpans writes spans to path as JSON lines (the server process's
// exit hook).
func saveSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	dec := json.NewDecoder(f)
	for {
		var s span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

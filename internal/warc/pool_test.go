package warc

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// span locates one record inside an archive blob.
type span struct{ off, length int64 }

// mixedArchive writes records alternately as gzip members and plain
// records into one blob, the way a range reader may meet them.
func mixedArchive(t testing.TB, n int) ([]byte, []span, []string) {
	t.Helper()
	var buf bytes.Buffer
	gz, plain := NewWriter(&buf), NewPlainWriter(&buf)
	var spans []span
	var bodies []string
	for i := 0; i < n; i++ {
		body := fmt.Sprintf("<html>page %d %s</html>", i, strings.Repeat("x", i*37))
		rec := NewResponse("https://example.org/p/"+strconv.Itoa(i), testDate,
			BuildHTTPResponse(200, "text/html", []byte(body)))
		w := gz
		if i%2 == 1 {
			w = plain
		}
		// Both writers share buf; each counts only its own bytes, so the
		// offset is taken from the buffer itself.
		off := int64(buf.Len())
		if _, _, err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, span{off, int64(buf.Len()) - off})
		bodies = append(bodies, body)
	}
	return buf.Bytes(), spans, bodies
}

// freshRead is the reference decode: a new Reader over the range.
func freshRead(b []byte) (*Record, error) {
	return NewReader(bytes.NewReader(b)).Next()
}

func checkBody(t *testing.T, rec *Record, want string) {
	t.Helper()
	resp, err := ParseHTTPResponse(rec.Block)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != want {
		t.Fatalf("body = %q, want %q", resp.Body, want)
	}
}

// TestReadRecordAtInterleavedFailures feeds the pooled decoder gzip,
// plain, bad-CRC and truncated members in turn: every failure must be
// reported, and the next good record must decode exactly as a fresh
// reader decodes it — a failed member may not poison the pooled state.
func TestReadRecordAtInterleavedFailures(t *testing.T) {
	data, spans, bodies := mixedArchive(t, 6)
	gzSpan := spans[0]
	badCRC := append([]byte(nil), data[gzSpan.off:gzSpan.off+gzSpan.length]...)
	badCRC[len(badCRC)-8] ^= 0xff // the CRC-32 of the gzip trailer
	truncated := data[gzSpan.off : gzSpan.off+gzSpan.length/2]
	plainTruncated := data[spans[1].off : spans[1].off+spans[1].length-20]

	for round := 0; round < 3; round++ {
		for i, s := range spans {
			rec, err := ReadRecordAt(data, s.off, s.length)
			if err != nil {
				t.Fatalf("round %d record %d: %v", round, i, err)
			}
			checkBody(t, rec, bodies[i])
			for _, bad := range [][]byte{badCRC, truncated, plainTruncated} {
				_, err := ReadRecordAt(bad, 0, int64(len(bad)))
				if err == nil {
					t.Fatalf("round %d: corrupt member decoded without error", round)
				}
				_, ferr := freshRead(bad)
				if ferr == nil || ferr.Error() != err.Error() {
					t.Fatalf("round %d: pooled error %v, fresh reader %v", round, err, ferr)
				}
			}
		}
	}
	if _, err := ReadRecordAt(badCRC, 0, int64(len(badCRC))); !errors.Is(err, gzip.ErrChecksum) {
		t.Fatalf("bad CRC: %v, want %v", err, gzip.ErrChecksum)
	}
}

// TestReaderNextReusesDecoder reads a mixed stream sequentially: the one
// Reader resets its gzip state for every member.
func TestReaderNextReusesDecoder(t *testing.T) {
	data, _, bodies := mixedArchive(t, 9)
	recs, err := NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(bodies) {
		t.Fatalf("read %d records, want %d", len(recs), len(bodies))
	}
	for i, rec := range recs {
		checkBody(t, rec, bodies[i])
	}
}

// TestReadRecordAtParallel hammers the pool from several goroutines, good
// and corrupt ranges mixed; run under -race it also checks that pooled
// Readers are never shared.
func TestReadRecordAtParallel(t *testing.T) {
	data, spans, bodies := mixedArchive(t, 8)
	bad := data[spans[0].off : spans[0].off+spans[0].length-3]
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (i + g) % len(spans)
				rec, err := ReadRecordAt(data, spans[k].off, spans[k].length)
				if err != nil {
					errs <- err
					return
				}
				resp, err := ParseHTTPResponse(rec.Block)
				if err != nil || string(resp.Body) != bodies[k] {
					errs <- fmt.Errorf("record %d: wrong body (%v)", k, err)
					return
				}
				if _, err := ReadRecordAt(bad, 0, int64(len(bad))); err == nil {
					errs <- errors.New("truncated member decoded without error")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReadRecordAtAllocs pins what pooling buys: decoding a record costs
// the record (headers and block), not a fresh gzip reader, flate window
// and line buffer.
func TestReadRecordAtAllocs(t *testing.T) {
	data, spans, _ := mixedArchive(t, 1)
	s := spans[0]
	if _, err := ReadRecordAt(data, s.off, s.length); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ReadRecordAt(data, s.off, s.length); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("ReadRecordAt: %.0f allocs per record, want at most 20", allocs)
	}
}

// parseHTTPResponseRef is the bufio-based decoder ParseHTTPResponse
// replaced, kept as the reference its block slicing must agree with.
func parseHTTPResponseRef(block []byte) (*HTTPResponse, error) {
	br := bufio.NewReader(bytes.NewReader(block))
	statusLine, err := readLine(br)
	if err != nil {
		return nil, fmt.Errorf("%w: http status line: %v", ErrMalformed, err)
	}
	parts := strings.SplitN(statusLine, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, fmt.Errorf("%w: http status line %q", ErrMalformed, statusLine)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("%w: http status code %q", ErrMalformed, parts[1])
	}
	resp := &HTTPResponse{StatusCode: code}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	for {
		line, err := readLine(br)
		if err != nil || line == "" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		resp.Headers.Set(strings.TrimSpace(name), strings.TrimSpace(value))
	}
	body, _ := io.ReadAll(br)
	resp.Body = body
	return resp, nil
}

func sameResponse(a, b *HTTPResponse) bool {
	if a.StatusCode != b.StatusCode || a.Status != b.Status || !bytes.Equal(a.Body, b.Body) {
		return false
	}
	if a.Headers.Len() != b.Headers.Len() {
		return false
	}
	for i := range a.Headers.kv {
		if a.Headers.kv[i] != b.Headers.kv[i] {
			return false
		}
	}
	return true
}

func TestParseHTTPResponseMatchesReference(t *testing.T) {
	for _, block := range []string{
		"", "\n", "\r\n", "HTTP/1.1 200 OK", "HTTP/1.1 200 OK\r\n",
		"HTTP/1.1 200 OK\r\nA: b\r\n\r\nbody", "HTTP/1.1 404\nX:y\n\nbody\n\nmore",
		"HTTP/1.1 200 OK\r\njunk\r\nA: b\r\r\n\r\n", "HTTP/1.1 200 OK\r\nA: b\r",
		"HTTP/1.1 x OK\r\n\r\n", "FTP 200 OK\r\n\r\n",
	} {
		got, gerr := ParseHTTPResponse([]byte(block))
		want, werr := parseHTTPResponseRef([]byte(block))
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%q: error %v, reference %v", block, gerr, werr)
		}
		if gerr == nil && !sameResponse(got, want) {
			t.Fatalf("%q: %+v, reference %+v", block, got, want)
		}
	}
}

// FuzzReadRecordAt compares the pooled decoder with a fresh Reader on
// arbitrary byte ranges, after a corrupt member has gone through the
// pool, and ParseHTTPResponse with its bufio-based reference.
func FuzzReadRecordAt(f *testing.F) {
	data, spans, _ := mixedArchive(f, 3)
	for _, s := range spans {
		f.Add(data[s.off : s.off+s.length])
	}
	f.Add(data[spans[0].off : spans[0].off+spans[0].length/2])
	f.Add([]byte("WARC/1.0\r\nContent-Length: 3\r\n\r\nabc"))
	f.Add([]byte{0x1f, 0x8b})
	poison := data[spans[0].off : spans[0].off+spans[0].length-5]
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		_, _ = ReadRecordAt(poison, 0, int64(len(poison)))
		got, gerr := ReadRecordAt(b, 0, int64(len(b)))
		want, werr := freshRead(b)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("pooled error %v, fresh reader %v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		if !bytes.Equal(got.Block, want.Block) || got.Headers.Len() != want.Headers.Len() {
			t.Fatalf("pooled record differs from fresh reader's")
		}
		for i := range got.Headers.kv {
			if got.Headers.kv[i] != want.Headers.kv[i] {
				t.Fatalf("header %d: %v vs %v", i, got.Headers.kv[i], want.Headers.kv[i])
			}
		}
		gresp, gerr := ParseHTTPResponse(got.Block)
		wresp, werr := parseHTTPResponseRef(got.Block)
		if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("http: error %v, reference %v", gerr, werr)
		}
		if gerr == nil && !sameResponse(gresp, wresp) {
			t.Fatalf("http: %+v, reference %+v", gresp, wresp)
		}
	})
}

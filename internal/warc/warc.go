// Package warc reads and writes WARC/1.0 archives (ISO 28500), the format
// Common Crawl publishes its monthly snapshots in. The implementation
// covers what the measurement pipeline needs: response/request/warcinfo
// records, per-record gzip members (Common Crawl's layout, which makes
// single records addressable by byte offset), and offset-addressed access.
package warc

import (
	"bufio"
	"bytes"
	"compress/flate"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Record types from the WARC specification.
const (
	TypeWarcinfo = "warcinfo"
	TypeResponse = "response"
	TypeRequest  = "request"
	TypeMetadata = "metadata"
	TypeResource = "resource"
)

// Standard header names.
const (
	HeaderType          = "WARC-Type"
	HeaderRecordID      = "WARC-Record-ID"
	HeaderDate          = "WARC-Date"
	HeaderTargetURI     = "WARC-Target-URI"
	HeaderContentType   = "Content-Type"
	HeaderContentLength = "Content-Length"
	HeaderPayloadType   = "WARC-Identified-Payload-Type"
	HeaderIPAddress     = "WARC-IP-Address"
	HeaderFilename      = "WARC-Filename"
	HeaderConcurrentTo  = "WARC-Concurrent-To"
)

const version = "WARC/1.0"

// ErrMalformed reports a syntactically invalid record.
var ErrMalformed = errors.New("warc: malformed record")

// Record is one WARC record: a header block plus an opaque content block.
type Record struct {
	Headers Headers
	Block   []byte
}

// Headers is a case-insensitive WARC named-field collection that preserves
// a canonical write order.
type Headers struct {
	kv []headerField
}

type headerField struct{ name, value string }

// Set adds or replaces a header (case-insensitive on the name).
func (h *Headers) Set(name, value string) {
	for i := range h.kv {
		if strings.EqualFold(h.kv[i].name, name) {
			h.kv[i].value = value
			return
		}
	}
	h.kv = append(h.kv, headerField{name, value})
}

// Get returns the value of the named header ("" if absent).
func (h *Headers) Get(name string) string {
	for i := range h.kv {
		if strings.EqualFold(h.kv[i].name, name) {
			return h.kv[i].value
		}
	}
	return ""
}

// Names returns all header names in insertion order.
func (h *Headers) Names() []string {
	out := make([]string, len(h.kv))
	for i := range h.kv {
		out[i] = h.kv[i].name
	}
	return out
}

// Len reports the number of named fields.
func (h *Headers) Len() int { return len(h.kv) }

// Type is shorthand for the WARC-Type header.
func (r *Record) Type() string { return r.Headers.Get(HeaderType) }

// TargetURI is shorthand for the WARC-Target-URI header.
func (r *Record) TargetURI() string { return r.Headers.Get(HeaderTargetURI) }

// Date parses the WARC-Date header.
func (r *Record) Date() (time.Time, error) {
	return time.Parse(time.RFC3339, r.Headers.Get(HeaderDate))
}

// NewResponse builds a response record wrapping an HTTP response block.
func NewResponse(uri string, date time.Time, httpBlock []byte) *Record {
	r := &Record{Block: httpBlock}
	r.Headers.Set(HeaderType, TypeResponse)
	r.Headers.Set(HeaderRecordID, newRecordID(uri, date, len(httpBlock)))
	r.Headers.Set(HeaderDate, date.UTC().Format(time.RFC3339))
	r.Headers.Set(HeaderTargetURI, uri)
	r.Headers.Set(HeaderContentType, "application/http; msgtype=response")
	r.Headers.Set(HeaderContentLength, strconv.Itoa(len(httpBlock)))
	return r
}

// NewRequest builds a request record paired with a response record (the
// WARC-Concurrent-To linkage Common Crawl uses).
func NewRequest(uri string, date time.Time, httpBlock []byte, responseID string) *Record {
	r := &Record{Block: httpBlock}
	r.Headers.Set(HeaderType, TypeRequest)
	r.Headers.Set(HeaderRecordID, newRecordID("req:"+uri, date, len(httpBlock)))
	r.Headers.Set(HeaderDate, date.UTC().Format(time.RFC3339))
	r.Headers.Set(HeaderTargetURI, uri)
	if responseID != "" {
		r.Headers.Set(HeaderConcurrentTo, responseID)
	}
	r.Headers.Set(HeaderContentType, "application/http; msgtype=request")
	r.Headers.Set(HeaderContentLength, strconv.Itoa(len(httpBlock)))
	return r
}

// NewWarcinfo builds the warcinfo record that leads a WARC file.
func NewWarcinfo(filename string, date time.Time, fields map[string]string) *Record {
	var b bytes.Buffer
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s: %s\r\n", k, fields[k])
	}
	r := &Record{Block: b.Bytes()}
	r.Headers.Set(HeaderType, TypeWarcinfo)
	r.Headers.Set(HeaderRecordID, newRecordID(filename, date, b.Len()))
	r.Headers.Set(HeaderDate, date.UTC().Format(time.RFC3339))
	r.Headers.Set(HeaderFilename, filename)
	r.Headers.Set(HeaderContentType, "application/warc-fields")
	r.Headers.Set(HeaderContentLength, strconv.Itoa(b.Len()))
	return r
}

// newRecordID derives a deterministic urn:uuid-style record ID. Archives
// must be reproducible across runs, so no global randomness is used.
func newRecordID(seedA string, date time.Time, seedB int) string {
	h := fnv64(seedA) ^ uint64(date.UnixNano()) ^ fnv64(strconv.Itoa(seedB))
	h2 := fnv64(seedA + "#2")
	return fmt.Sprintf("<urn:uuid:%08x-%04x-%04x-%04x-%012x>",
		uint32(h), uint16(h>>32), 0x4000|uint16(h>>48)&0x0fff,
		0x8000|uint16(h2)&0x3fff, h2>>16&0xffffffffffff)
}

func fnv64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// writeTo serializes the record (uncompressed) to w.
func (r *Record) writeTo(w io.Writer) error {
	var b bytes.Buffer
	b.WriteString(version)
	b.WriteString("\r\n")
	for _, f := range r.Headers.kv {
		b.WriteString(f.name)
		b.WriteString(": ")
		b.WriteString(f.value)
		b.WriteString("\r\n")
	}
	b.WriteString("\r\n")
	b.Write(r.Block)
	b.WriteString("\r\n\r\n")
	_, err := w.Write(b.Bytes())
	return err
}

// Writer writes records to an underlying stream. When Compressed, each
// record becomes its own gzip member — the Common Crawl layout that lets
// the CDX index address records by (offset, length).
type Writer struct {
	w          countingWriter
	Compressed bool
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// NewWriter returns a Writer emitting per-record gzip members.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: countingWriter{w: w}, Compressed: true}
}

// NewPlainWriter returns a Writer emitting uncompressed records.
func NewPlainWriter(w io.Writer) *Writer {
	return &Writer{w: countingWriter{w: w}}
}

// Offset reports the byte offset the next record will start at.
func (w *Writer) Offset() int64 { return w.w.n }

// Write appends one record and returns its (offset, length) within the
// stream — the coordinates a CDX index stores.
func (w *Writer) Write(r *Record) (offset, length int64, err error) {
	offset = w.w.n
	if !w.Compressed {
		if err := r.writeTo(&w.w); err != nil {
			return 0, 0, err
		}
		return offset, w.w.n - offset, nil
	}
	gz := gzip.NewWriter(&w.w)
	if err := r.writeTo(gz); err != nil {
		return 0, 0, err
	}
	if err := gz.Close(); err != nil {
		return 0, 0, err
	}
	return offset, w.w.n - offset, nil
}

// Reader reads records sequentially from a WARC stream, transparently
// handling per-record gzip members.
//
// The per-member decoding state — the gzip reader with its flate window
// and the line reader over the decompressed bytes — lives in the Reader
// and is Reset for every member instead of being allocated afresh, so
// reading a long run of small records costs one record's allocations
// each, not a decoder's. ReadRecordAt borrows pooled Readers for the
// same reason; both paths decode through member and readRecord.
type Reader struct {
	br *bufio.Reader // the sequential stream; nil in a pooled ReadRecordAt reader

	gz   gzip.Reader   // reused across members; Reset per member
	lr   *bufio.Reader // line reader over the current member (or plain range)
	data bytes.Reader  // the byte range ReadRecordAt decodes
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next record, or io.EOF at the end of the stream.
func (r *Reader) Next() (*Record, error) {
	peek, err := r.br.Peek(2)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, err
	}
	if isGzip(peek) {
		return r.member(r.br)
	}
	return readRecord(r.br)
}

func isGzip(b []byte) bool { return len(b) >= 2 && b[0] == 0x1f && b[1] == 0x8b }

// member decodes the gzip member at the head of src and drains it, so
// the next read of src lands on whatever follows the member. The reused
// gzip and line readers are Reset first; a member that failed to decode
// leaves no state behind that the next Reset does not discard.
func (r *Reader) member(src flate.Reader) (*Record, error) {
	if err := r.gz.Reset(src); err != nil {
		return nil, err
	}
	r.gz.Multistream(false)
	rec, err := readRecord(r.lines(&r.gz))
	if err != nil {
		return nil, err
	}
	// Drain the member so the next Peek lands on the next gzip header
	// (and so its CRC and size trailer are verified).
	if _, err := io.Copy(io.Discard, &r.gz); err != nil {
		return nil, err
	}
	if err := r.gz.Close(); err != nil {
		return nil, err
	}
	return rec, nil
}

// lines points the reused line reader at src.
func (r *Reader) lines(src io.Reader) *bufio.Reader {
	if r.lr == nil {
		r.lr = bufio.NewReader(src)
	} else {
		r.lr.Reset(src)
	}
	return r.lr
}

// ReadAll drains the stream into a slice of records.
func (r *Reader) ReadAll() ([]*Record, error) {
	var out []*Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// readerPool holds the Readers ReadRecordAt decodes with. A pooled
// Reader keeps only its gzip state and line buffer (about 45 KB), never
// the decoded record, which is freshly allocated and owned by the caller.
var readerPool = sync.Pool{New: func() any { return new(Reader) }}

// ReadRecordAt decodes the single record stored at data[offset:offset+length]
// — how a Common Crawl client materializes one page from an S3 range read.
// It returns exactly what NewReader(bytes.NewReader(range)).Next() would,
// through a pooled Reader.
func ReadRecordAt(data []byte, offset, length int64) (*Record, error) {
	if offset < 0 || length <= 0 || offset+length > int64(len(data)) {
		return nil, fmt.Errorf("%w: range [%d,%d) outside %d bytes", ErrMalformed, offset, offset+length, len(data))
	}
	r := readerPool.Get().(*Reader)
	rec, err := r.recordAt(data[offset : offset+length])
	r.data.Reset(nil) // do not pin the caller's buffer in the pool
	readerPool.Put(r)
	return rec, err
}

// recordAt decodes the first record of b, gzip member or plain.
func (r *Reader) recordAt(b []byte) (*Record, error) {
	r.data.Reset(b)
	if len(b) < 2 {
		return nil, io.EOF // what Next's two-byte Peek reports
	}
	if isGzip(b) {
		return r.member(&r.data)
	}
	return readRecord(r.lines(&r.data))
}

func readRecord(br *bufio.Reader) (*Record, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	// Tolerate leading blank lines between records.
	for line == "" {
		line, err = readLine(br)
		if err != nil {
			return nil, err
		}
	}
	if !strings.HasPrefix(line, "WARC/") {
		return nil, fmt.Errorf("%w: bad version line %q", ErrMalformed, line)
	}
	rec := &Record{}
	for {
		line, err = readLine(br)
		if err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrMalformed, err)
		}
		if line == "" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("%w: header line %q", ErrMalformed, line)
		}
		rec.Headers.Set(strings.TrimSpace(name), strings.TrimSpace(value))
	}
	n, err := strconv.ParseInt(rec.Headers.Get(HeaderContentLength), 10, 64)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("%w: content-length %q", ErrMalformed, rec.Headers.Get(HeaderContentLength))
	}
	if rec.Block, err = readBlock(br, n); err != nil {
		return nil, fmt.Errorf("%w: block: %v", ErrMalformed, err)
	}
	// Trailing CRLF CRLF (tolerated if absent at EOF).
	for i := 0; i < 4; i++ {
		b, err := br.ReadByte()
		if err != nil {
			break
		}
		if b != '\r' && b != '\n' {
			_ = br.UnreadByte()
			break
		}
	}
	return rec, nil
}

// blockChunk is the largest block readBlock allocates in one piece on
// the declared Content-Length alone.
const blockChunk = 1 << 20

// readBlock reads the n-byte content block. The declared length is
// untrusted input: up to blockChunk it is allocated at once, and beyond
// that the block grows only as bytes actually arrive, so a record that
// claims gigabytes it does not have fails without reserving them. Errors
// follow io.ReadFull: io.EOF if nothing was read, io.ErrUnexpectedEOF if
// the block is short.
func readBlock(r io.Reader, n int64) ([]byte, error) {
	if n <= blockChunk {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	var buf bytes.Buffer
	buf.Grow(blockChunk)
	if _, err := io.CopyN(&buf, r, n); err != nil {
		if err == io.EOF && buf.Len() > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil && line == "" {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

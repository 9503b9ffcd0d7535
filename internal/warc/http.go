package warc

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// HTTP message helpers for request and response record blocks. A WARC
// response block holds the verbatim HTTP/1.1 response the crawler
// received (and a request block the request that elicited it); the
// pipeline needs to build such blocks (corpus generation) and split them
// back into headers and body (page extraction).

// HTTPResponse is a decoded HTTP response block.
type HTTPResponse struct {
	StatusCode int
	Status     string
	Headers    Headers
	Body       []byte
}

// BuildHTTPResponse serializes a minimal HTTP/1.1 response block with the
// given content type and body.
func BuildHTTPResponse(status int, contentType string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.1 %d %s\r\n", status, statusText(status))
	fmt.Fprintf(&b, "Content-Type: %s\r\n", contentType)
	fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
	b.WriteString("Connection: close\r\n\r\n")
	b.Write(body)
	return b.Bytes()
}

// BuildHTTPRequest serializes the HTTP/1.1 GET request block paired with
// a response capture, as Common Crawl stores alongside each response.
func BuildHTTPRequest(rawURL string) []byte {
	host, path := splitURL(rawURL)
	var b bytes.Buffer
	fmt.Fprintf(&b, "GET %s HTTP/1.1\r\n", path)
	fmt.Fprintf(&b, "Host: %s\r\n", host)
	b.WriteString("User-Agent: hvscan-crawler/1.0 (synthetic archive)\r\n")
	b.WriteString("Accept: text/html\r\nConnection: close\r\n\r\n")
	return b.Bytes()
}

func splitURL(rawURL string) (host, path string) {
	u := rawURL
	if i := strings.Index(u, "://"); i >= 0 {
		u = u[i+3:]
	}
	if i := strings.IndexByte(u, '/'); i >= 0 {
		return u[:i], u[i:]
	}
	return u, "/"
}

// ParseHTTPResponse splits a response block into status, headers, body.
// The body is a subslice of block, not a copy: a decoded record owns its
// block, so the response can share it.
func ParseHTTPResponse(block []byte) (*HTTPResponse, error) {
	// The header section runs to the first empty line (or the end of the
	// block); it is converted to a string once and parsed from that.
	end := 0
	for first := true; end < len(block); first = false {
		line, next := nextLine(block, end)
		end = next
		if !first && len(bytes.TrimRight(line, "\r\n")) == 0 {
			break
		}
	}
	head := string(block[:end])
	statusLine, head, ok := cutLine(head)
	if !ok {
		return nil, fmt.Errorf("%w: http status line: %v", ErrMalformed, io.EOF)
	}
	parts := strings.SplitN(statusLine, " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, fmt.Errorf("%w: http status line %q", ErrMalformed, statusLine)
	}
	code, err := strconv.Atoi(parts[1])
	if err != nil {
		return nil, fmt.Errorf("%w: http status code %q", ErrMalformed, parts[1])
	}
	resp := &HTTPResponse{StatusCode: code, Body: block[end:]}
	if len(parts) == 3 {
		resp.Status = parts[2]
	}
	for {
		var line string
		line, head, ok = cutLine(head)
		if !ok || line == "" {
			break
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			continue // tolerate junk header lines, like a crawler must
		}
		resp.Headers.Set(strings.TrimSpace(name), strings.TrimSpace(value))
	}
	return resp, nil
}

// nextLine returns the line of b starting at i, terminator included, and
// the index just past it — the unit bufio's ReadString('\n') reads.
func nextLine(b []byte, i int) (line []byte, next int) {
	if j := bytes.IndexByte(b[i:], '\n'); j >= 0 {
		return b[i : i+j+1], i + j + 1
	}
	return b[i:], len(b)
}

// cutLine splits the first line off s with readLine's semantics: CR and
// LF are trimmed from its end, and ok is false only when s is empty.
func cutLine(s string) (line, rest string, ok bool) {
	if s == "" {
		return "", "", false
	}
	line, rest, _ = strings.Cut(s, "\n")
	return strings.TrimRight(line, "\r\n"), rest, true
}

func statusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 304:
		return "Not Modified"
	case 404:
		return "Not Found"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	}
	return "Unknown"
}

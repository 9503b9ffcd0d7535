package commoncrawl

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"github.com/hvscan/hvscan/internal/cdx"
	"github.com/hvscan/hvscan/internal/resilience"
)

// HTTPError is a non-2xx response from the archive server. It exposes
// the status code (resilience.StatusCoder), so the pipeline's error
// classifier can retry 5xx/429 and permanently skip 404s without
// string-matching.
type HTTPError struct {
	Code int
	Op   string
	Body string
}

// Error renders the failure with its status and response snippet.
func (e *HTTPError) Error() string {
	return fmt.Sprintf("commoncrawl: %s: status %d: %s", e.Op, e.Code, e.Body)
}

// HTTPStatus returns the response status code.
func (e *HTTPError) HTTPStatus() int { return e.Code }

// Client talks to a Server over HTTP and itself satisfies Archive, so the
// crawl pipeline runs identically in-process and across the network.
type Client struct {
	base string
	hc   *http.Client
}

var _ Archive = (*Client)(nil)

// NewClient returns a client for the server at base (e.g.
// "http://127.0.0.1:8087").
func NewClient(base string) *Client {
	return &Client{
		base: base,
		hc: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     30 * time.Second,
			},
		},
	}
}

// Crawls lists the server's snapshots.
func (c *Client) Crawls() []string {
	resp, err := c.hc.Get(c.base + "/crawls")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var out []string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil
	}
	return out
}

// Query asks the index endpoint for a domain's captures.
func (c *Client) Query(ctx context.Context, crawl, domain string, limit int) ([]*cdx.Record, error) {
	u := fmt.Sprintf("%s/cc-index?crawl=%s&url=%s&limit=%d",
		c.base, url.QueryEscape(crawl), url.QueryEscape(domain), limit)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &HTTPError{Code: resp.StatusCode, Op: "index query " + u, Body: string(body)}
	}
	var out []*cdx.Record
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		rec, err := cdx.ParseLine(sc.Text())
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// ReadRange issues a ranged GET against the data endpoint. Only a 206
// whose body is exactly length bytes is the record: a 200 means the
// server ignored Range and sent the whole file (permanent, it will do
// so again), and a short or long 206 body is a truncated or mangled
// transfer (retryable).
func (c *Client) ReadRange(ctx context.Context, filename string, offset, length int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/data/"+filename, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", "bytes="+strconv.FormatInt(offset, 10)+"-"+strconv.FormatInt(offset+length-1, 10))
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusPartialContent:
	case http.StatusOK:
		return nil, resilience.Permanent(fmt.Errorf("commoncrawl: range read %s@%d: server %s ignored the Range header (status 200)",
			filename, offset, c.base))
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, &HTTPError{Code: resp.StatusCode,
			Op: fmt.Sprintf("range read %s@%d", filename, offset), Body: string(body)}
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, length+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) != length {
		return nil, resilience.Retryable(fmt.Errorf("commoncrawl: range read %s@%d: got %d bytes, want %d",
			filename, offset, len(b), length))
	}
	return b, nil
}

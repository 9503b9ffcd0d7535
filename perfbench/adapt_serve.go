package main

import (
	"context"
	"net"
	"net/http"
	"time"

	"github.com/hvscan/hvscan/internal/core"
	"github.com/hvscan/hvscan/internal/htmlparse"
	"github.com/hvscan/hvscan/internal/serve"
)

// The serve adapter: the only file that calls the serve entry points.

// checkRoute is the endpoint the serve workload drives.
const checkRoute = "/v1/check"

// newServer returns the checking service with default admission and the
// per-tenant limit disabled: the documented setting for one trusted
// tenant, which a single load generator is.
func newServer() http.Handler { return serve.New(serve.Config{TenantRate: -1}) }

// runServer serves h on ln until ctx ends, then drains.
func runServer(ctx context.Context, ln net.Listener, h http.Handler) error {
	err := serve.RunListener(ctx, serve.NewHTTPServer(ln.Addr().String(), h), ln, 5*time.Second, nil)
	if serve.IsExpectedClose(err) {
		return nil
	}
	return err
}

// serverCheck replays a body through the check the server runs for
// POST /v1/check, without HTTP, admission or JSON.
func serverCheck(c *core.Checker, body []byte) error {
	ctx := context.Background()
	if !c.NeedsTree() {
		_, err := c.CheckStreamContext(ctx, body)
		return err
	}
	res, err := htmlparse.ParseReuseContext(ctx, body, htmlparse.Options{RecordTokens: true, MaxTreeDepth: 512})
	if err != nil {
		return err
	}
	c.CheckParsed(&core.Page{Result: res})
	return nil
}

// checkResponse is the part of a POST /v1/check answer the output check reads.
type checkResponse = serve.CheckResponse

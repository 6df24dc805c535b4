package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"ceci/internal/obs"
)

// outgoingTrace resolves the trace position a request should propagate:
// the ambient span's own identity when the caller has one open (its
// spans become the server subtree's parent), else the ambient trace
// context, else invalid (no header sent).
func outgoingTrace(ctx context.Context) obs.TraceContext {
	if s := obs.SpanFromContext(ctx); s != nil {
		tc := s.Context()
		tc.Sampled = true
		return tc
	}
	tc, _ := obs.TraceFromContext(ctx)
	return tc
}

// Client is a thin typed client for the service HTTP API, used by
// ceciserve's tests, the shard router, and the CI smoke jobs.
//
// Each call sends its request once: a connection error, a 429 and every
// other failure go back to the caller. The shard router's failover is
// the fleet's retry, and its readiness gate covers start-up.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for a server at base (e.g.
// "http://127.0.0.1:8080"). httpClient may be nil for the default.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: base, hc: httpClient}
}

// APIError is a non-2xx response. Unwrap exposes the sentinel matching
// the status code (ErrOverloaded for 429, context.DeadlineExceeded for
// 504) so callers can errors.Is against engine semantics.
type APIError struct {
	StatusCode int
	Message    string
	// Resp carries the body when the server included one (504 partial
	// results land here).
	Resp *QueryResponse
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.StatusCode, e.Message)
}

func (e *APIError) Unwrap() error {
	switch e.StatusCode {
	case http.StatusTooManyRequests:
		return ErrOverloaded
	case http.StatusGatewayTimeout:
		return context.DeadlineExceeded
	case http.StatusBadRequest:
		return ErrBadQuery
	}
	return nil
}

// Query posts a match request. On a 504 the returned *QueryResponse is
// non-nil (partial counts) alongside the *APIError.
//
// When ctx carries a trace identity (obs.ContextWithTrace) or an open
// span (obs.ContextWithSpan), it crosses the wire as a W3C traceparent
// header, so the server's spans stitch into the caller's trace.
func (c *Client) Query(ctx context.Context, req QueryRequest) (*QueryResponse, error) {
	out, page, _, err := c.query(ctx, req)
	if out != nil && page.Len() > 0 {
		out.Embeddings = page.Rows()
	}
	return out, err
}

// QueryPage is Query for a caller that keeps the page flat (the shard
// router): the embeddings come back as a Page and the response's
// Embeddings is nil. A reply whose rows differ in width has no Page and
// is an error. spans is the server's span subtree for this request when
// the reply carried one — a shard's, to a request sent under a sampled
// trace — as the JSON array it arrived as (obs.Trace.AddRemote takes
// it); nothing has parsed it.
func (c *Client) QueryPage(ctx context.Context, req QueryRequest) (resp *QueryResponse, page Page, spans []byte, err error) {
	resp, page, spans, err = c.query(ctx, req)
	if resp != nil && resp.Embeddings != nil {
		// The reply was not in the servers' compact form and went
		// through encoding/json.
		var ok bool
		if page, ok = pageOf(resp.Embeddings); !ok {
			return nil, Page{}, nil, errors.New("service: decoding response: embeddings of unequal width")
		}
		resp.Embeddings = nil
	}
	return resp, page, spans, err
}

// query is Query and QueryPage up to where they differ: the page is
// returned flat if the reply was in the compact form (decodeQueryResponse),
// in the response's Embeddings if not.
func (c *Client) query(ctx context.Context, req QueryRequest) (*QueryResponse, Page, []byte, error) {
	fail := func(err error) (*QueryResponse, Page, []byte, error) { return nil, Page{}, nil, err }
	body, err := json.Marshal(req)
	if err != nil {
		return fail(err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/query", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tc := outgoingTrace(ctx); tc.Valid() {
		hreq.Header.Set("traceparent", tc.Traceparent())
	}
	hresp, err := c.hc.Do(hreq)
	if err != nil {
		return fail(err)
	}
	defer hresp.Body.Close()

	// The body is read whole into a pooled buffer: nothing returned points
	// back into it (the spans are copied out), so it returns to the pool
	// with this call.
	buf := responseBuffers.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBytes {
			responseBuffers.Put(buf)
		}
	}()
	buf.Reset()
	if n := hresp.ContentLength; n > 0 {
		buf.Grow(int(min(n, maxPooledBytes)) + bytes.MinRead) // ReadFrom wants room to see EOF
	}
	if _, err := buf.ReadFrom(hresp.Body); err != nil {
		return fail(fmt.Errorf("service: reading response: %w", err))
	}
	raw := bytes.TrimLeft(buf.Bytes(), " \t\r\n")

	// A failed request may come without a document (a proxy's bare 502).
	// A 200 may not: read as the zero response it would merge into a
	// fleet result as "no embeddings, cache hit".
	if hresp.StatusCode != http.StatusOK && len(raw) == 0 {
		out := &QueryResponse{}
		return out, Page{}, nil, &APIError{StatusCode: hresp.StatusCode, Resp: out}
	}
	if hresp.StatusCode == http.StatusOK && (len(raw) == 0 || raw[0] != '{') {
		return fail(fmt.Errorf("service: decoding response: HTTP 200 without a JSON object (%d bytes)", len(raw)))
	}
	out, page, spans, err := decodeQueryResponse(raw)
	if err != nil {
		return fail(fmt.Errorf("service: decoding response: %w", err))
	}
	spans = bytes.Clone(spans)
	if hresp.StatusCode != http.StatusOK {
		return out, page, spans, &APIError{StatusCode: hresp.StatusCode, Message: out.Error, Resp: out}
	}
	return out, page, spans, nil
}

// responseBuffers holds the buffers Query reads response bodies into.
var responseBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Healthz fetches the liveness document.
func (c *Client) Healthz(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.getJSON(ctx, "/healthz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready probes readiness: GET /healthz?ready=1 returns nil only once
// the server has its resident graph (and shard partition) loaded and
// can serve queries. The router's health checker calls this.
func (c *Client) Ready(ctx context.Context) error {
	var out HealthResponse
	return c.getJSON(ctx, "/healthz?ready=1", &out)
}

// Queryz fetches the flight-recorder document: recent and slowest
// completed queries.
func (c *Client) Queryz(ctx context.Context) (*QueryzResponse, error) {
	var out QueryzResponse
	if err := c.getJSON(ctx, "/queryz", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Tracez fetches a sampled query's span tree as Chrome trace_event
// JSON bytes (load the result in chrome://tracing or Perfetto).
func (c *Client) Tracez(ctx context.Context, traceID string) ([]byte, error) {
	hresp, err := c.get(ctx, "/tracez/"+traceID)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	body, err := io.ReadAll(hresp.Body)
	if err != nil {
		return nil, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, &APIError{StatusCode: hresp.StatusCode, Message: string(body)}
	}
	return body, nil
}

// Cachez fetches the index-cache statistics.
func (c *Client) Cachez(ctx context.Context) (*CacheStats, error) {
	var out CacheStats
	if err := c.getJSON(ctx, "/cachez", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// get sends one GET for path.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.hc.Do(hreq)
}

func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	hresp, err := c.get(ctx, path)
	if err != nil {
		return err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return &APIError{StatusCode: hresp.StatusCode, Message: string(b)}
	}
	return json.NewDecoder(hresp.Body).Decode(v)
}

package service

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestClientSendsOnce: the client sends each request once. A 429, a 400
// and a refused connection each cost exactly one attempt and come back as
// errors; the 429 is ErrOverloaded. The shard router's failover is the
// fleet's retry.
func TestClientSendsOnce(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusBadRequest} {
		var attempts atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			attempts.Add(1)
			http.Error(w, `{"error":"no"}`, status)
		}))
		_, qerr := NewClient(srv.URL, nil).Query(context.Background(), QueryRequest{Labels: []uint32{0}})
		_, herr := NewClient(srv.URL, nil).Healthz(context.Background())
		srv.Close()
		for _, err := range []error{qerr, herr} {
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.StatusCode != status {
				t.Errorf("HTTP %d: err = %v, want its APIError", status, err)
			}
			if status == http.StatusTooManyRequests && !errors.Is(err, ErrOverloaded) {
				t.Errorf("HTTP 429: err = %v, want ErrOverloaded", err)
			}
		}
		if got := attempts.Load(); got != 2 {
			t.Errorf("HTTP %d: the server saw %d requests for two calls, want 2", status, got)
		}
	}

	// A port nothing listens on refuses the connection; the transport's
	// dialer counts the attempts.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var dials atomic.Int64
	hc := &http.Client{Transport: &http.Transport{DialContext: func(ctx context.Context, network, a string) (net.Conn, error) {
		dials.Add(1)
		return (&net.Dialer{}).DialContext(ctx, network, a)
	}}}
	if _, err := NewClient("http://"+addr, hc).Query(context.Background(), QueryRequest{Labels: []uint32{0}}); err == nil {
		t.Fatal("a refused connection returned no error")
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("a refused connection was dialled %d times, want 1", got)
	}
}

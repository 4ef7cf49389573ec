package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestReferenceRoundTrip serves the reference handler in process and
// requires a ping to succeed and be checked: a yardstick that answers
// wrongly must fail the run, not scale its metrics.
func TestReferenceRoundTrip(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc(refPath, refHandler)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	hc := clientTransport()
	defer hc.CloseIdleConnections()
	ctx := context.Background()
	d, err := timedRefPing(ctx, hc, ts.URL)
	if err != nil || d <= 0 {
		t.Fatalf("ping: %v after %v", err, d)
	}

	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"query":"user-0","results":[]}`))
	}))
	defer short.Close()
	if err := refPing(ctx, hc, short.URL); err == nil {
		t.Error("a reply with no results passed for a reference round trip")
	}
}

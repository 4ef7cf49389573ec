// Package daemon is how cmd/semproxd and cmd/semproxy listen: the serving
// listener with its header timeout and drain, and the opt-in pprof
// listener. It sits beside package wire, not in it, because importing
// net/http/pprof registers handlers on http.DefaultServeMux and the
// public client package imports wire.
package daemon

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/wire"
)

// drainTimeout bounds the shutdown Serve starts when its context ends.
const drainTimeout = 5 * time.Second

// Serve serves h on addr until ctx ends, then drains: the listener closes,
// every onShutdown hook runs (http.Server.RegisterOnShutdown — a handler
// that holds requests open on purpose, like a follower's long poll, ends
// them there), and Serve returns nil only once the requests in flight have
// finished, or drainTimeout has passed. A caller that releases what its
// handlers use after Serve returns (a WAL, say) therefore never pulls it
// from under a request. The listener's error is returned otherwise, a
// failed bind included.
func Serve(ctx context.Context, addr string, h http.Handler, onShutdown ...func()) error {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: wire.ReadHeaderTimeout}
	for _, f := range onShutdown {
		srv.RegisterOnShutdown(f)
	}
	failed, drained := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(drained)
		select {
		case <-failed:
		case <-ctx.Done():
			drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			srv.Shutdown(drainCtx) //nolint:errcheck // a drain cut at drainTimeout leaves nothing to report
		}
	}()
	// ListenAndServe returns ErrServerClosed as soon as Shutdown begins;
	// the drain is over only when Shutdown returns.
	err := srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		<-drained
		return nil
	}
	close(failed)
	return err
}

// ServeDebug serves the pprof handlers on their own listener until ctx
// ends — an explicit mux (never http.DefaultServeMux) on a separate
// address, so profiling stays opt-in and off the public serving port. An
// empty addr disables it. The listener is bound before it is announced
// on the standard logger (with the address the kernel gave it, so ":0"
// works) and a failed bind is returned, not logged past.
func ServeDebug(ctx context.Context, addr string) error {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("-debug-addr: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: wire.ReadHeaderTimeout}
	go srv.Serve(ln) //nolint:errcheck // ends with http.ErrServerClosed when ctx does
	go func() {
		<-ctx.Done()
		srv.Close() //nolint:errcheck // profiles in flight are not worth a drain
	}()
	log.Printf("pprof on http://%s/debug/pprof/", ln.Addr())
	return nil
}

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

// Serve serves h on addr until ctx ends. It returns nil once the listener
// has closed for that reason — in-flight requests (a follower's long poll
// among them) are still draining then, for as long as the caller's own
// teardown takes and at most drainTimeout — and the listener's error
// otherwise, a failed bind included.
func Serve(ctx context.Context, addr string, h http.Handler) error {
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: wire.ReadHeaderTimeout}
	failed := make(chan struct{})
	go func() {
		select {
		case <-failed:
		case <-ctx.Done():
			drainCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
			defer cancel()
			srv.Shutdown(drainCtx) //nolint:errcheck // best-effort drain
		}
	}()
	err := srv.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
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

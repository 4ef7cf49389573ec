package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// The reference server. This sandbox changes speed by 10-30 % for minutes
// at a time (co-tenants on the host's shared cache), and everything a
// request touches — generator, kernel loopback, the daemon's runtime —
// slows down together: across same-seed runs query, proximity and batch
// p50 and server CPU per op moved by 8-13 % while their ratios to each
// other held within 1.5 %. So every window also measures a yardstick
// that no product change can move: a null request to this server, which
// is this benchmark's own code (net/http and encoding/json, nothing of
// the product's), run out of process like the daemons. Each generator
// client interleaves one reference round trip every refEvery operations
// on a keep-alive connection of its own, and the window's request
// metrics are reported at the reference speed — multiplied by
// refNominalUS / (the window's median reference round trip). Over sixteen
// same-seed runs in a noisy half hour that took the spread of
// query_p50_us from 19 % to 1.4 %. It does not track what slows a burst
// of computation (a build, a boot, an update's re-match), so the metrics
// that time one are reported as measured (see README).

const (
	// refEvery: one reference round trip before every refEvery-th
	// operation of a client.
	refEvery = 8
	// refNominalUS is the reference speed: about the median reference
	// round trip on this 2-CPU sandbox while the committed figures were
	// taken (220-350 us), so on an ordinary quarter of an hour a metric
	// at the reference speed reads as measured. A constant of the
	// benchmark: changing it rescales every metric reported at it.
	refNominalUS = 250.0

	refPath    = "/ref"
	refResults = 10
)

// refRequest and refReply are shaped like a single ranked query and its
// answer, so a reference round trip moves about as many bytes through
// the kernel and the JSON codec as the cheapest product request does.
type refRequest struct {
	Class string `json:"class"`
	Query string `json:"query"`
	K     int    `json:"k"`
}

type refResult struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

type refReply struct {
	Query   string      `json:"query"`
	Results []refResult `json:"results"`
}

func refHandler(w http.ResponseWriter, r *http.Request) {
	var req refRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	reply := refReply{Query: req.Query, Results: make([]refResult, req.K)}
	for i := range reply.Results {
		reply.Results[i] = refResult{Name: fmt.Sprintf("user-%d", i), Score: 1 / float64(i+1)}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply) //nolint:errcheck // a broken connection fails the client's ping
}

// refServerMain is the child process: `benchmark -refserver -addr A`.
// It serves until SIGTERM (the sandbox's stop) or until its parent dies
// (PDEATHSIG, set by the sandbox).
func refServerMain(args []string) error {
	fs := flag.NewFlagSet("refserver", flag.ContinueOnError)
	addr := fs.String("addr", "", "listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc(refPath, refHandler)
	srv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	if err := srv.ListenAndServe(); err != http.ErrServerClosed {
		return err
	}
	return nil
}

// startRef runs the reference server as a child of the sandbox and waits
// until it answers.
func startRef(ctx context.Context, sb *sandbox, logDir string) (p *proc, base string, err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, "", err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	if p, err = sb.start("refserver", logDir, self, "-refserver", "-addr", addr); err != nil {
		return nil, "", err
	}
	base = "http://" + addr
	hc := clientTransport()
	defer hc.CloseIdleConnections()
	err = poll(ctx, p, "reference server listening", func() (bool, error) {
		err := refPing(ctx, hc, base)
		return err == nil, err
	})
	return p, base, err
}

var refBody = func() []byte {
	b, _ := json.Marshal(refRequest{Class: class, Query: "user-0", K: refResults})
	return b
}()

// refPing is one reference round trip: post, read and decode the reply,
// and check it — a yardstick that answers wrongly measures nothing.
func refPing(ctx context.Context, hc *http.Client, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+refPath, bytes.NewReader(refBody))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var reply refReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain, so the connection is reused
	if resp.StatusCode != http.StatusOK || len(reply.Results) != refResults {
		return fmt.Errorf("reference server answered %d with %d results", resp.StatusCode, len(reply.Results))
	}
	return nil
}

// timedRefPing returns the round trip's duration.
func timedRefPing(ctx context.Context, hc *http.Client, base string) (time.Duration, error) {
	t := time.Now()
	err := refPing(ctx, hc, base)
	return time.Since(t), err
}

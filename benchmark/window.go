package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/client"
)

// clientLog is what one closed-loop client recorded inside the measured
// window (warm-up ops are issued but not recorded). Parallel slices keep
// the per-op cost in the hot loop to four appends.
type clientLog struct {
	ops    []op
	at     []int64  // start offset into the window, ns
	dur    []int64  // latency, ns
	digest []uint64 // answer digest (reads) or LSN (updates)
	ref    []int64  // reference round trips begun inside the window, ns
	sent   int      // replies received, warm-up included
	err    error    // the failure that stopped the loop, if one did
	// acked is every update the daemon acknowledged, warm-up included:
	// the oracle must replay all of them, recorded or not.
	acked     []op
	ackedLSNs []uint64
}

// issue sends one op through the client's front door and digests the
// answer. Latency is timed around exactly this call.
func issue(ctx context.Context, r *client.Router, names []string, p op) (uint64, error) {
	switch p.kind {
	case opQuery:
		resp, err := r.Query(ctx, class, names[p.x], queryK)
		return observedQuery(resp), err
	case opProximity:
		resp, err := r.Proximity(ctx, class, names[p.x], names[p.y])
		return digestProximity(resp), err
	case opBatch:
		qs := make([]string, batchSize)
		for i, u := range p.batch {
			qs[i] = names[u]
		}
		resp, err := r.QueryBatch(ctx, class, qs, queryK)
		return observedQuery(resp), err
	default:
		resp, err := r.Update(ctx, updateRequest(p))
		return resp.LSN, err
	}
}

// runClient is one client. With every == 0 it is a closed loop: the next
// request leaves only after the previous reply arrived. With every > 0
// request i is due at start + i*every: it leaves then, or at once if the
// previous reply came later than that, and its latency counts from the
// due time, so a stall is charged to every request it delayed. Ops that
// start (or are due) inside [open, shut) are recorded; the last one may
// finish after shut. A closed-loop client also makes one reference round
// trip (see ref.go) before every refEvery-th operation.
func runClient(ctx context.Context, r *client.Router, ping func() (time.Duration, error), names []string, next func() op, every time.Duration, open, shut time.Time) *clientLog {
	log := &clientLog{}
	start := time.Now()
	for i := 0; ; i++ {
		p := next()
		if every == 0 && i%refEvery == refEvery-1 {
			t := time.Now()
			d, err := ping()
			if err != nil {
				log.err = fmt.Errorf("reference round trip: %w", err)
				return log
			}
			if !t.Before(open) && t.Before(shut) {
				log.ref = append(log.ref, int64(d))
			}
		}
		t0 := time.Now()
		if every > 0 {
			due := start.Add(time.Duration(i) * every)
			select {
			case <-ctx.Done():
			case <-time.After(time.Until(due)):
			}
			t0 = due
		}
		if !t0.Before(shut) || ctx.Err() != nil {
			return log
		}
		d, err := issue(ctx, r, names, p)
		lat := time.Since(t0)
		if err != nil {
			// Any failure — warm-up included — fails the run, so the loop
			// stops here rather than hammering a dead daemon until shut.
			log.err = fmt.Errorf("%v: %w", p, err)
			return log
		}
		log.sent++
		if p.kind == opUpdate {
			log.acked = append(log.acked, p)
			log.ackedLSNs = append(log.ackedLSNs, d)
		}
		if t0.Before(open) {
			continue
		}
		log.ops = append(log.ops, p)
		log.at = append(log.at, int64(t0.Sub(open)))
		log.dur = append(log.dur, int64(lat))
		log.digest = append(log.digest, d)
	}
}

// procSample is the /proc view of the system at one instant.
type procSample struct {
	daemonCPU float64 // Σ user+system seconds over the stack's daemons
	daemonRSS float64 // Σ VmRSS over them, MB
	genCPU    float64 // this process
}

func sampleProcs(st *stack) (procSample, error) {
	var s procSample
	for _, p := range st.daemons {
		c, err := cpuSeconds(p.pid())
		if err != nil {
			return s, fmt.Errorf("%s: %w", p.name, err)
		}
		mb, err := rssMB(p.pid())
		if err != nil {
			return s, fmt.Errorf("%s: %w", p.name, err)
		}
		s.daemonCPU += c
		s.daemonRSS += mb
	}
	s.genCPU = selfCPUSeconds()
	return s, nil
}

// window is one measured interval: warm-up then measurement, the same
// loops running through both, with the daemons' and the generator's CPU
// time and resident sets sampled from /proc when it opens, every second
// after that, and when it shuts.
type window struct {
	length    time.Duration
	logs      []*clientLog
	procs     []procSample
	daemonCPU float64 // seconds spent by the daemons inside the window
	genCPU    float64 // and by the generator
	// refRTT is the median reference round trip inside the window, ns,
	// over refSamples samples; speed = refNominalUS / refRTT is the factor
	// that brings a request latency measured in this window to the
	// reference speed (see ref.go).
	refRTT     float64
	refSamples int
	speed      float64
}

func runWindow(ctx context.Context, st *stack, refBase string, seed int64, warm, length time.Duration) (*window, error) {
	open := time.Now().Add(warm)
	shut := open.Add(length)
	nexts := make([]func() op, clients)
	every := make([]time.Duration, clients)
	for c := range nexts {
		if c == 0 && st.sp.writeEvery > 0 {
			nexts[c], every[c] = st.updates.next, st.sp.writeEvery
		} else {
			nexts[c] = newReadStream(seed, st.sp.salt, c, st.sp.users, st.sp.zipf).next
		}
	}
	w := &window{length: length, logs: make([]*clientLog, clients)}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		hc := clientTransport() // the client's own connection to the reference server
		defer hc.CloseIdleConnections()
		ping := func() (time.Duration, error) { return timedRefPing(ctx, hc, refBase) }
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.logs[c] = runClient(ctx, st.routers[c], ping, st.names, nexts[c], every[c], open, shut)
		}()
	}
	var err error
	for at, done := open, false; err == nil && !done; at = at.Add(time.Second) {
		if !at.Before(shut) {
			at, done = shut, true
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
		case <-time.After(time.Until(at)):
			var s procSample
			s, err = sampleProcs(st)
			w.procs = append(w.procs, s)
		}
	}
	wg.Wait()
	for _, p := range st.daemons {
		if !p.alive() {
			return nil, fmt.Errorf("%s died during the window:\n%s", p.name, p.logTail())
		}
	}
	if err != nil {
		return nil, err
	}
	first, last := w.procs[0], w.procs[len(w.procs)-1]
	w.daemonCPU = last.daemonCPU - first.daemonCPU
	w.genCPU = last.genCPU - first.genCPU
	var ref []int64
	for c, l := range w.logs {
		if l.err != nil {
			return nil, fmt.Errorf("client %d: %w", c, l.err)
		}
		ref = append(ref, l.ref...)
	}
	if len(ref) < 2*tailSamples {
		return nil, fmt.Errorf("window too short: %d reference round trips", len(ref))
	}
	w.refRTT, w.refSamples = p50(ref), len(ref)
	w.speed = refNominalUS * 1e3 / w.refRTT
	return w, nil
}

// rssMB is the median over the window's /proc samples of the daemons'
// summed resident sets. (The high-water mark, VmHWM, swings by a quarter from
// run to run with where the collector happened to be when a snapshot
// was decoded.)
func (w *window) rssMB() float64 {
	v := make([]float64, len(w.procs))
	for i, s := range w.procs {
		v[i] = s.daemonRSS
	}
	return median(v)
}

// byKind gathers the window's samples of one op kind across clients.
func (w *window) byKind(k opKind) (at, dur []int64) {
	for _, l := range w.logs {
		for i, p := range l.ops {
			if p.kind == k {
				at = append(at, l.at[i])
				dur = append(dur, l.dur[i])
			}
		}
	}
	return at, dur
}

// succeeded counts recorded ops; reads only when readsOnly.
func (w *window) succeeded(readsOnly bool) int {
	n := 0
	for _, l := range w.logs {
		for _, p := range l.ops {
			if !readsOnly || p.kind != opUpdate {
				n++
			}
		}
	}
	return n
}

// verifyReads checks every recorded read against the oracle. Only valid
// when nothing wrote during the window (the oracle sits at one epoch).
func (w *window) verifyReads(st *stack) error {
	for c, l := range w.logs {
		for i, p := range l.ops {
			if p.kind == opUpdate {
				continue
			}
			want, err := st.or.expect(st.names, p)
			if err != nil {
				return err
			}
			if l.digest[i] != want {
				return fmt.Errorf("client %d op %d (%v): answer differs from the oracle's", c, i, p)
			}
		}
	}
	return nil
}

// ackedUpdates returns every update the window's writer got acked, in
// ack (= LSN) order, after checking the daemon numbered them densely
// from firstLSN: a gap or a reorder means an acked write went missing or
// was applied twice.
func (w *window) ackedUpdates(firstLSN uint64) ([]op, error) {
	var ups []op
	for _, l := range w.logs {
		for i, p := range l.acked {
			if want := firstLSN + uint64(len(ups)); l.ackedLSNs[i] != want {
				return nil, fmt.Errorf("update %s acked at LSN %d, want %d", p.name, l.ackedLSNs[i], want)
			}
			ups = append(ups, p)
		}
	}
	return ups, nil
}

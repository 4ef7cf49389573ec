package replica_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	semprox "repro"
	"repro/api"
	"repro/client"
	"repro/internal/replica"
	"repro/internal/server"
)

// newDurableFollower builds a follower with a local state directory —
// the promotable kind semproxd -state runs.
func newDurableFollower(t *testing.T, primaryURL string, hc *http.Client, dir string) *replica.Follower {
	t.Helper()
	f := replica.NewFollower(primaryURL, hc)
	f.Dir = dir
	f.PollWait = 100 * time.Millisecond
	f.Backoff = 20 * time.Millisecond
	return f
}

// waitApplied polls until the follower has applied at least target.
func waitApplied(t *testing.T, f *replica.Follower, target uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if f.Status().Applied >= target {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower stuck at applied %d, want >= %d", f.Status().Applied, target)
}

// snapshotOf compacts and saves one engine's state for byte comparison.
func snapshotOf(t *testing.T, eng *semprox.Engine) []byte {
	t.Helper()
	eng.Compact()
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFollowerRestartConvergesByteIdentical is the restart property of a
// durable follower: killed at ANY point of catch-up, a new process that
// Restores from the local snapshot + local WAL — never touching the
// primary for state it already holds — converges to the same bytes as
// the primary AND as a follower freshly bootstrapped from scratch. The
// kill points land before, during, and after the live stream.
func TestFollowerRestartConvergesByteIdentical(t *testing.T) {
	for _, killAt := range []uint64{3, 5, 8} {
		t.Run(fmt.Sprintf("killAt=%d", killAt), func(t *testing.T) {
			h := newPrimaryHarness(t)
			rng := rand.New(rand.NewSource(int64(killAt)))
			for i := 0; i < 3; i++ {
				h.applyRandom(t, rng, fmt.Sprintf("pre%d", i))
			}
			dir := t.TempDir()
			f := newDurableFollower(t, h.ts.URL, h.ts.Client(), dir)
			ctx, cancel := context.WithCancel(context.Background())
			if err := f.Bootstrap(ctx); err != nil {
				t.Fatal(err)
			}
			runDone := make(chan error, 1)
			go func() { runDone <- f.Run(ctx) }()
			for i := 0; i < 5; i++ {
				h.applyRandom(t, rng, fmt.Sprintf("live%d", i))
			}
			waitApplied(t, f, killAt)
			cancel()
			<-runDone
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			// "Restart": a brand-new follower over the same directory must
			// restore without the primary and resume exactly where the
			// durable local state ends.
			f2 := newDurableFollower(t, h.ts.URL, h.ts.Client(), dir)
			restored, err := f2.Restore()
			if err != nil {
				t.Fatal(err)
			}
			if !restored {
				t.Fatal("Restore found no local state after a populated run")
			}
			if got := f2.Engine().LSN(); got < killAt {
				t.Fatalf("restored engine at LSN %d, want >= %d (locally fsynced records lost)", got, killAt)
			}
			ctx2, cancel2 := context.WithCancel(context.Background())
			runDone2 := make(chan error, 1)
			go func() { runDone2 <- f2.Run(ctx2) }()
			waitCaughtUp(t, f2, h.log.DurableLSN())
			cancel2()
			<-runDone2
			t.Cleanup(func() { f2.Close() })

			// A control follower bootstrapped fresh from the primary.
			f3 := replica.NewFollower(h.ts.URL, h.ts.Client())
			f3.PollWait = 100 * time.Millisecond
			f3.Backoff = 20 * time.Millisecond
			ctx3, cancel3 := context.WithCancel(context.Background())
			if err := f3.Bootstrap(ctx3); err != nil {
				t.Fatal(err)
			}
			runDone3 := make(chan error, 1)
			go func() { runDone3 <- f3.Run(ctx3) }()
			waitCaughtUp(t, f3, h.log.DurableLSN())
			cancel3()
			<-runDone3

			want := snapshotOf(t, h.eng)
			if got := snapshotOf(t, f2.Engine()); !bytes.Equal(got, want) {
				t.Fatal("restored follower's snapshot differs from the primary's")
			}
			if got := snapshotOf(t, f3.Engine()); !bytes.Equal(got, want) {
				t.Fatal("fresh-bootstrap follower's snapshot differs from the primary's")
			}
		})
	}
}

// TestPromotionServesWrites is the failover path end to end in-process:
// the primary dies, the durable follower promotes — raising the term,
// replaying any fsynced-but-unapplied local gap, and swapping its server
// role — and then accepts /v1/update with records stamped by the new
// term.
func TestPromotionServesWrites(t *testing.T) {
	h := newPrimaryHarness(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("pre%d", i))
	}
	f := newDurableFollower(t, h.ts.URL, h.ts.Client(), t.TempDir())
	ctx, cancel := context.WithCancel(context.Background())
	if err := f.Bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(ctx) }()
	h.applyRandom(t, rng, "live")
	waitCaughtUp(t, f, h.log.DurableLSN())
	atLSN := f.Status().Applied

	fsrv := server.New(f.Engine())
	fsrv.SetFollower(f)
	fts := httptest.NewServer(fsrv)
	defer fts.Close()
	fc := client.New(fts.URL, fts.Client())

	// Updates are refused while still a follower.
	if _, err := fc.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "refused"}}}); err == nil {
		t.Fatal("follower accepted an update before promotion")
	}

	h.ts.Close() // the primary is gone
	cancel()
	<-runDone
	w, err := fsrv.PromoteFollower()
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Term(); got != 2 {
		t.Fatalf("promoted term = %d, want 2", got)
	}
	// A second promotion is refused by the follower and by the server,
	// whose role (checked below) stays the term-2 primary.
	if _, err := f.Promote(); err == nil {
		t.Fatal("double promotion accepted")
	}
	if _, err := fsrv.PromoteFollower(); err == nil {
		t.Fatal("second PromoteFollower accepted")
	}

	rctx := context.Background()
	ready, err := fc.Ready(rctx)
	if err != nil {
		t.Fatal(err)
	}
	if ready.Role != api.RolePrimary || ready.Term != 2 || !ready.Ready() {
		t.Fatalf("promoted readyz = %+v, want ready primary at term 2", ready)
	}
	resp, err := fc.Update(rctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "post-failover"}}})
	if err != nil {
		t.Fatalf("update on the promoted primary: %v", err)
	}
	if resp.LSN != atLSN+1 {
		t.Fatalf("promoted write at LSN %d, want %d (history must continue, not restart)", resp.LSN, atLSN+1)
	}
	if term, ok := w.TermAt(resp.LSN); !ok || term != 2 {
		t.Fatalf("promoted record's term = %d, %v; want 2", term, ok)
	}
	// The write is immediately queryable on the new primary.
	if f.Engine().Graph().NodeByName("post-failover") == semprox.InvalidNode {
		t.Fatal("promoted write not visible in the serving graph")
	}
}

// promoteSuccessor deposes h: a durable follower catches up with it,
// promotes to term 2 and takes one write (LSN h's durable end + 1) that h
// never sees. It returns the new primary's server and a client on it.
func promoteSuccessor(t *testing.T, h *primaryHarness) (*httptest.Server, *client.Client) {
	t.Helper()
	fa := newDurableFollower(t, h.ts.URL, h.ts.Client(), t.TempDir())
	ctxA, cancelA := context.WithCancel(context.Background())
	if err := fa.Bootstrap(ctxA); err != nil {
		t.Fatal(err)
	}
	runA := make(chan error, 1)
	go func() { runA <- fa.Run(ctxA) }()
	waitCaughtUp(t, fa, h.log.DurableLSN())
	cancelA()
	<-runA
	srvA := server.New(fa.Engine())
	srvA.SetFollower(fa)
	tsA := httptest.NewServer(srvA)
	t.Cleanup(tsA.Close)
	if _, err := srvA.PromoteFollower(); err != nil {
		t.Fatal(err)
	}
	ca := client.New(tsA.URL, tsA.Client())
	if _, err := ca.Update(context.Background(), api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "term2-write"}}}); err != nil {
		t.Fatal(err)
	}
	return tsA, ca
}

// TestZombiePrimaryIsFenced: a follower that has seen term 2 and is
// pointed back at the still-running term-1 primary must refuse
// everything it says — reporting StatusFenced, regressing nothing,
// never re-bootstrapping into the stale history — and must recover the
// moment it is retargeted at the current-term primary.
func TestZombiePrimaryIsFenced(t *testing.T) {
	h := newPrimaryHarness(t) // will become the zombie
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 4; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("pre%d", i))
	}
	tsA, ca := promoteSuccessor(t, h)

	// Follower B tracks the NEW primary (term 2), then gets pointed at
	// the zombie — the old primary never learned it was deposed.
	fb := replica.NewFollower(tsA.URL, tsA.Client())
	fb.PollWait = 50 * time.Millisecond
	fb.Backoff = 10 * time.Millisecond
	ctxB, cancelB := context.WithCancel(context.Background())
	defer cancelB()
	if err := fb.Bootstrap(ctxB); err != nil {
		t.Fatal(err)
	}
	runB := make(chan error, 1)
	go func() { runB <- fb.Run(ctxB) }()
	srvB := server.New(fb.Engine())
	srvB.SetFollower(fb)
	tsB := httptest.NewServer(srvB)
	defer tsB.Close()
	waitCaughtUp(t, fb, 5)
	// One more term-2 write, streamed rather than bootstrapped, so the
	// follower holds a term-2 RECORD at its applied LSN.
	if _, err := ca.Update(context.Background(), api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "term2-streamed"}}}); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, fb, 6)
	applied := fb.Status().Applied

	fb.Retarget(h.ts.URL) // the zombie
	deadline := time.Now().Add(10 * time.Second)
	for !fb.Status().Fenced {
		if time.Now().After(deadline) {
			t.Fatal("follower never fenced while polling the zombie")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := fb.Status()
	if st.Applied != applied {
		t.Fatalf("fenced follower's position moved: %d -> %d", applied, st.Applied)
	}
	if st.Ready {
		t.Fatal("fenced follower still reports ready")
	}
	if st.Term != 2 {
		t.Fatalf("fenced follower's term = %d, want 2 (it keeps its newest knowledge)", st.Term)
	}
	// /v1/readyz reports the distinct fenced status on 503.
	resp, err := tsB.Client().Get(tsB.URL + api.PathReadyz)
	if err != nil {
		t.Fatal(err)
	}
	var ready api.ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Status != api.StatusFenced {
		t.Fatalf("fenced readyz = %d %q, want 503 %q", resp.StatusCode, ready.Status, api.StatusFenced)
	}

	// The zombie, synchronous, keeps taking writes until one lands on
	// the very LSN the follower holds a term-2 record at; from then on
	// its polls answer 409 term_mismatch. That is still a zombie, not
	// divergence: the follower must not swap its history for the zombie's
	// snapshot, and its polls must never release the zombie's acks.
	h.srv.SetAckReplicas(1)
	zc := client.New(h.ts.URL, h.ts.Client())
	for h.log.DurableLSN() < applied {
		zctx, zcancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		_, err := zc.Update(zctx, api.UpdateRequest{Nodes: []api.UpdateNode{
			{Type: "user", Name: fmt.Sprintf("zombie-write-%d", h.log.DurableLSN()+1)}}})
		zcancel()
		if err == nil {
			t.Fatal("the zombie acked a write on the strength of a fenced follower's polls")
		}
	}
	if st := fb.Status(); !st.Fenced || st.Applied != applied {
		t.Fatalf("follower polling a 409-answering zombie = %+v, want fenced at %d", st, applied)
	}
	if fb.Engine().Graph().NodeByName("term2-streamed") == semprox.InvalidNode {
		t.Fatal("fenced follower re-bootstrapped into the zombie's history")
	}

	// Back on the real primary the fence clears without a re-bootstrap.
	fb.Retarget(tsA.URL)
	waitCaughtUp(t, fb, applied)
	if st := fb.Status(); st.Fenced || st.Applied < applied {
		t.Fatalf("fence did not clear cleanly: %+v", st)
	}
	cancelB()
	<-runB
}

// TestSnapshotFreshFollowerDoesNotConfirmZombie: a follower bootstrapped
// from the term-2 primary's snapshot has seen term 2 but holds no record
// of it, so its polls carry term=0. Pointed at the deposed term-1 primary
// — synchronous, and about to write the very LSN the follower stands at —
// that poll must not pass for a receipt: the zombie's write is on no
// other log and never will be.
func TestSnapshotFreshFollowerDoesNotConfirmZombie(t *testing.T) {
	h := newPrimaryHarness(t) // will become the zombie
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 4; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("pre%d", i))
	}
	tsA, _ := promoteSuccessor(t, h)

	fb := replica.NewFollower(tsA.URL, tsA.Client())
	fb.PollWait = 50 * time.Millisecond
	fb.Backoff = 10 * time.Millisecond
	ctxB, cancelB := context.WithCancel(context.Background())
	if err := fb.Bootstrap(ctxB); err != nil {
		t.Fatal(err)
	}
	runB := make(chan error, 1)
	go func() { runB <- fb.Run(ctxB) }()
	defer func() { cancelB(); <-runB }()
	waitCaughtUp(t, fb, 5) // one clean poll of the term-2 primary: term seen, nothing applied
	if st := fb.Status(); st.Applied != 5 || st.Term != 2 {
		t.Fatalf("follower fresh from the term-2 snapshot = %+v, want applied 5 at term 2", st)
	}

	h.srv.SetAckReplicas(1)
	fb.Retarget(h.ts.URL) // the zombie, durable through LSN 4
	zc := client.New(h.ts.URL, h.ts.Client())
	zctx, zcancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	defer zcancel()
	if _, err := zc.Update(zctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "zombie-write"}}}); err == nil {
		t.Fatal("the zombie acked LSN 5 on the poll of a follower that holds the term-2 LSN 5")
	}
	if st := fb.Status(); !st.Fenced || st.Applied != 5 {
		t.Fatalf("follower polling the zombie = %+v, want fenced at 5", st)
	}
}

// TestSinceTermMismatchForcesRebootstrap: a poller claiming a different
// term for a record this log holds gets 409 term_mismatch through the
// whole HTTP stack — the signal Follower.Run converts into a fresh
// bootstrap.
func TestSinceTermMismatchForcesRebootstrap(t *testing.T) {
	h := newPrimaryHarness(t)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("r%d", i))
	}
	c := client.New(h.ts.URL, h.ts.Client())
	ctx := context.Background()
	// The true term of LSN 2 is 1: claiming 5 is a diverged history.
	_, err := c.ReplicateSince(ctx, 2, 5, 0, 10, 0)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeTermMismatch || apiErr.Status != http.StatusConflict {
		t.Fatalf("diverged poll returned %v, want 409 %s", err, api.CodeTermMismatch)
	}
	// The matching term and the term-less (legacy) poll both stream.
	if sr, err := c.ReplicateSince(ctx, 2, 1, 0, 10, 0); err != nil || len(sr.Records) != 1 {
		t.Fatalf("matching-term poll = %+v, %v", sr, err)
	}
	if sr, err := c.ReplicateSince(ctx, 2, 0, 0, 10, 0); err != nil || len(sr.Records) != 1 {
		t.Fatalf("term-less poll = %+v, %v", sr, err)
	}
}

// TestAckReplicasHoldsAckUntilConfirmed: with -ack-replicas the primary
// releases an update's ack only after a follower's poll position proves
// the record durable elsewhere. No follower -> the ack times out with
// the client; a live follower -> it completes.
func TestAckReplicasHoldsAckUntilConfirmed(t *testing.T) {
	h := newPrimaryHarness(t)
	// Rebuild the handler around the harness engine+log so we control
	// SetAckReplicas (the harness's own server has it off).
	srv := server.New(h.eng)
	srv.AttachWAL(h.log)
	srv.SetAckReplicas(1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	_, err := c.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "lonely"}}})
	cancel()
	if err == nil {
		t.Fatal("synchronous update acked with no replica in existence")
	}

	f := replica.NewFollower(ts.URL, ts.Client())
	f.PollWait = 100 * time.Millisecond
	f.Backoff = 10 * time.Millisecond
	fctx, fcancel := context.WithCancel(context.Background())
	defer fcancel()
	runDone := make(chan error, 1)
	go func() { runDone <- f.Run(fctx) }()
	t.Cleanup(func() { fcancel(); <-runDone })

	uctx, ucancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ucancel()
	resp, err := c.Update(uctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "replicated"}}})
	if err != nil {
		t.Fatalf("synchronous update with a live follower: %v", err)
	}
	waitCaughtUp(t, f, resp.LSN)
	if f.Engine().Graph().NodeByName("replicated") == semprox.InvalidNode {
		t.Fatal("confirmed record not on the follower")
	}
}

// TestNewerHistoryPollDoesNotConfirm: a deposed primary (zombie) keeps
// seeing polls from followers that moved on to its successor — positioned
// past its own durable end, under a newer term. Those polls are served
// (the response's stale term is what fences the poller) but they vouch
// for a DIFFERENT history, so they must never release the zombie's
// synchronous acks: a write it acked on that basis would exist nowhere
// else, ever.
func TestNewerHistoryPollDoesNotConfirm(t *testing.T) {
	h := newPrimaryHarness(t)
	rng := rand.New(rand.NewSource(7))
	h.applyRandom(t, rng, "r0")
	srv := server.New(h.eng)
	srv.AttachWAL(h.log)
	srv.SetAckReplicas(1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := client.New(ts.URL, ts.Client())

	poll := func(stop chan struct{}, after func() uint64, term uint64) {
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.ReplicateSince(context.Background(), after(), term, 0, 10, 0) //nolint:errcheck
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Zombie's view of a fenced follower: ahead of this log, newer term.
	stop := make(chan struct{})
	go poll(stop, func() uint64 { return h.log.DurableLSN() + 50 }, 99)
	ctx, cancel := context.WithTimeout(context.Background(), 700*time.Millisecond)
	_, err := c.Update(ctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "zombie-write"}}})
	cancel()
	close(stop)
	if err == nil {
		t.Fatal("a poll vouching for a newer history confirmed the zombie's write")
	}

	// An honest poll at this log's own durable position does confirm.
	stop2 := make(chan struct{})
	defer close(stop2)
	go poll(stop2, h.log.DurableLSN, 0)
	uctx, ucancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ucancel()
	if _, err := c.Update(uctx, api.UpdateRequest{Nodes: []api.UpdateNode{{Type: "user", Name: "confirmed"}}}); err != nil {
		t.Fatalf("honest confirmation did not release the ack: %v", err)
	}
}

// TestMonitorElectsLongestLog: when the primary dies, the monitor on the
// follower with the highest (term, LSN) wins the election — Run returns
// nil so its caller promotes — while a lagging peer's monitor keeps
// watching and retargets at the winner once it serves as primary.
func TestMonitorElectsLongestLog(t *testing.T) {
	h := newPrimaryHarness(t)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 3; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("pre%d", i))
	}

	// f1 (durable) will follow to the end; f2 stops early and lags.
	f1 := newDurableFollower(t, h.ts.URL, h.ts.Client(), t.TempDir())
	ctx1, cancel1 := context.WithCancel(context.Background())
	if err := f1.Bootstrap(ctx1); err != nil {
		t.Fatal(err)
	}
	run1 := make(chan error, 1)
	go func() { run1 <- f1.Run(ctx1) }()
	f2 := replica.NewFollower(h.ts.URL, h.ts.Client())
	f2.PollWait = 50 * time.Millisecond
	f2.Backoff = 10 * time.Millisecond
	ctx2, cancel2 := context.WithCancel(context.Background())
	if err := f2.Bootstrap(ctx2); err != nil {
		t.Fatal(err)
	}
	run2 := make(chan error, 1)
	go func() { run2 <- f2.Run(ctx2) }()
	waitCaughtUp(t, f1, 3)
	waitCaughtUp(t, f2, 3)
	cancel2() // f2 stops replicating here: applied stays 3
	<-run2
	for i := 0; i < 2; i++ {
		h.applyRandom(t, rng, fmt.Sprintf("late%d", i))
	}
	waitCaughtUp(t, f1, 5)

	srv1 := server.New(f1.Engine())
	srv1.SetFollower(f1)
	ts1 := httptest.NewServer(srv1)
	defer ts1.Close()
	srv2 := server.New(f2.Engine())
	srv2.SetFollower(f2)
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	peers := []string{ts1.URL, ts2.URL}

	h.ts.Close() // primary dies

	mctx, mcancel := context.WithCancel(context.Background())
	defer mcancel()
	m1 := &replica.Monitor{F: f1, Self: ts1.URL, Peers: peers,
		Interval: 20 * time.Millisecond, Threshold: 2}
	m1Done := make(chan error, 1)
	go func() { m1Done <- m1.Run(mctx) }()
	m2 := &replica.Monitor{F: f2, Self: ts2.URL, Peers: peers,
		Interval: 20 * time.Millisecond, Threshold: 2}
	m2Done := make(chan error, 1)
	go func() { m2Done <- m2.Run(mctx) }()

	select {
	case err := <-m1Done:
		if err != nil {
			t.Fatalf("winning monitor returned %v, want nil", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("monitor on the longest log never won the election")
	}
	// The loser must still be watching — its LSN (3) loses to f1's (5).
	select {
	case err := <-m2Done:
		t.Fatalf("lagging monitor exited (%v); it must wait for the winner", err)
	default:
	}

	// Promote the winner, as cmd/semproxd does.
	cancel1()
	<-run1
	if _, err := srv1.PromoteFollower(); err != nil {
		t.Fatal(err)
	}

	// m2 discovers the new primary and retargets f2 at it.
	deadline := time.Now().Add(15 * time.Second)
	for f2.PrimaryURL() != ts1.URL {
		if time.Now().After(deadline) {
			t.Fatalf("lagging follower still targets %s, want %s", f2.PrimaryURL(), ts1.URL)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

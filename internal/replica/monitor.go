package replica

import (
	"context"
	"net/http"
	"time"

	"repro/api"
	"repro/client"
)

// Monitor watches a follower's primary and decides when — and who — to
// promote when it dies. Every Interval it probes the primary's
// /v1/readyz; after Threshold consecutive probes that do not show a
// write-capable primary (unreachable, wrong role, or a sticky-failed
// WAL), it runs an election among the reachable peers:
//
//   - a peer already serving as primary at a term >= ours won a race we
//     lost (or finished one we never saw) — the monitor retargets the
//     follower at it and goes back to watching;
//   - otherwise the candidate with the highest (term, applied LSN, URL)
//     tuple wins, the URL being a deterministic tiebreak so two monitors
//     looking at the same world elect the same node. If that is Self,
//     Run returns nil and the caller performs the promotion
//     (Server.PromoteFollower); if it is someone else, the
//     monitor keeps watching until the winner shows up as a primary.
//
// The (term, LSN)-max rule is what makes promotion safe with
// synchronous replication (-ack-replicas): an acked write is durable on
// at least one follower, and the follower with the longest log at the
// newest term holds every such write.
type Monitor struct {
	// F is the follower whose primary is watched (and retargeted).
	F *Follower
	// Self is this node's advertised base URL — the identity compared
	// against peers in the election.
	Self string
	// Peers are the other replication nodes' advertised base URLs (the
	// dead primary may be among them; it just fails its probe). Self is
	// skipped if present.
	Peers []string
	// Interval is the probe cadence (default 500ms).
	Interval time.Duration
	// Threshold is how many consecutive failed probes declare the
	// primary dead (default 3) — one lost packet must not trigger a
	// promotion storm.
	Threshold int
}

// Run watches until the primary dies AND this node wins the election
// (returns nil — caller must promote) or ctx ends (returns ctx.Err()).
func (m *Monitor) Run(ctx context.Context) error {
	interval := m.Interval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	threshold := m.Threshold
	if threshold <= 0 {
		threshold = 3
	}
	hc := &http.Client{Timeout: 2 * interval}
	probe := func(url string) (api.ReadyResponse, error) {
		pctx, cancel := context.WithTimeout(ctx, 2*interval)
		defer cancel()
		c := client.New(url, hc)
		c.Retries = 0
		return c.Ready(pctx)
	}
	fails := 0
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ticker.C:
		}
		resp, err := probe(m.F.PrimaryURL())
		if err == nil && resp.Role == api.RolePrimary && resp.Ready() {
			fails = 0
			continue
		}
		if fails++; fails < threshold {
			continue
		}
		// Primary declared dead. Election: probe the peers once.
		self := m.F.Status()
		win, winTerm, winLSN := m.Self, self.Term, self.Applied
		promoted := ""
		var promotedTerm uint64
		for _, url := range m.Peers {
			if url == m.Self {
				continue
			}
			r, err := probe(url)
			if err != nil {
				continue
			}
			if r.Role == api.RolePrimary && r.Term >= self.Term {
				if promoted == "" || r.Term > promotedTerm {
					promoted, promotedTerm = url, r.Term
				}
				continue
			}
			if r.Role != api.RoleFollower {
				continue
			}
			if betterCandidate(r.Term, r.LSN, url, winTerm, winLSN, win) {
				win, winTerm, winLSN = url, r.Term, r.LSN
			}
		}
		if promoted != "" {
			// Someone already holds the crown; follow them.
			if m.F.PrimaryURL() != promoted {
				m.F.Retarget(promoted)
			}
			fails = 0
			continue
		}
		if win == m.Self {
			return nil
		}
		// A better-placed peer should promote; keep watching — either it
		// shows up as primary (we retarget) or it died too and the next
		// election falls to us.
	}
}

// betterCandidate orders election candidates: term first (newer history
// wins), applied LSN second (longest log wins — it holds every
// synchronously-acked write), URL last (a deterministic tiebreak).
func betterCandidate(term, lsn uint64, url string, curTerm, curLSN uint64, curURL string) bool {
	if term != curTerm {
		return term > curTerm
	}
	if lsn != curLSN {
		return lsn > curLSN
	}
	return url > curURL
}

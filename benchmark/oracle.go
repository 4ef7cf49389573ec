package main

import (
	"fmt"
	"math"

	semprox "repro"
	"repro/api"
)

// class is the semantic class every stack trains and every read asks
// for, as cmd/loadgen's stack does.
const class = "college"

// oracle is the in-process reference engine every daemon answer is
// checked against. It is the very engine the snapshot was saved from, so
// a daemon that answers differently has diverged somewhere between Save,
// LoadEngine, WAL replay, replication, the proxy cache and the wire.
//
// Answers are compared as 64-bit digests over (name, score bits) in rank
// order: the generator hashes each response as it arrives (≈100 ns) and
// the oracle side is computed after the window closes, so checking costs
// the measured window nothing but the hash.
type oracle struct {
	eng *semprox.Engine
	ids map[string]semprox.NodeID
	// memo caches query digests by node for the current epoch; a uniform
	// window asks each anchor a handful of times.
	memo map[semprox.NodeID]uint64
}

func newOracle(eng *semprox.Engine) *oracle {
	g := eng.Graph()
	ids := make(map[string]semprox.NodeID, g.NumNodes())
	for v := semprox.NodeID(0); int(v) < g.NumNodes(); v++ {
		if _, dup := ids[g.Name(v)]; !dup { // first wins, as Graph.NodeByName
			ids[g.Name(v)] = v
		}
	}
	return &oracle{eng: eng, ids: ids, memo: make(map[semprox.NodeID]uint64)}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return (h ^ 0xff) * fnvPrime // terminator: ("ab","c") != ("a","bc")
}

func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// digestResults hashes one ranked list as the wire carries it.
func digestResults(rs []api.RankedResult) uint64 {
	h := hashUint64(fnvOffset, uint64(len(rs)))
	for _, r := range rs {
		h = hashUint64(hashString(h, r.Name), math.Float64bits(r.Score))
	}
	return h
}

// observedQuery hashes a single or batch reply: per ranked list, the
// query name then the list digest — the two-step shape lets the oracle
// memoize list digests per node and chain them into any batch.
func observedQuery(resp api.QueryResponse) uint64 {
	h := uint64(fnvOffset)
	for _, qr := range resp.Results {
		h = hashUint64(hashString(h, qr.Query), digestResults(qr.Results))
	}
	return h
}

func digestProximity(resp api.ProximityResponse) uint64 {
	return hashUint64(hashString(hashString(fnvOffset, resp.X), resp.Y), math.Float64bits(resp.Proximity))
}

// rankedDigest chains into h what observedQuery chains for the ranked
// list of name at the oracle's current epoch.
func (o *oracle) rankedDigest(h uint64, name string) (uint64, error) {
	q, ok := o.ids[name]
	if !ok {
		return 0, fmt.Errorf("oracle: no node %q", name)
	}
	d, ok := o.memo[q]
	if !ok {
		ranked, err := o.eng.Query(class, q, queryK)
		if err != nil {
			return 0, err
		}
		g := o.eng.Graph()
		rs := make([]api.RankedResult, len(ranked))
		for i, r := range ranked {
			rs[i] = api.RankedResult{Name: g.Name(r.Node), Score: r.Score}
		}
		d = digestResults(rs)
		o.memo[q] = d
	}
	return hashUint64(hashString(h, name), d), nil
}

// expect is the digest the daemon's answer to o must hash to.
func (o *oracle) expect(names []string, p op) (uint64, error) {
	switch p.kind {
	case opQuery:
		return o.rankedDigest(fnvOffset, names[p.x])
	case opBatch:
		h := uint64(fnvOffset)
		for _, u := range p.batch {
			var err error
			if h, err = o.rankedDigest(h, names[u]); err != nil {
				return 0, err
			}
		}
		return h, nil
	case opProximity:
		x, y := names[p.x], names[p.y]
		v, err := o.eng.Proximity(class, o.ids[x], o.ids[y])
		if err != nil {
			return 0, err
		}
		return digestProximity(api.ProximityResponse{X: x, Y: y, Proximity: v}), nil
	}
	return 0, fmt.Errorf("oracle: no digest for %v", p.kind)
}

// delta builds the engine delta for an update op exactly as the server
// does: the new node takes the next id, the edge resolves by name.
func (o *oracle) delta(p op) (semprox.Delta, error) {
	target, ok := o.ids[p.target]
	if !ok {
		return semprox.Delta{}, fmt.Errorf("oracle: update target %q not in graph", p.target)
	}
	n := semprox.NodeID(o.eng.Graph().NumNodes())
	return semprox.Delta{
		Nodes: []semprox.DeltaNode{{Type: "user", Value: p.name}},
		Edges: []semprox.Edge{{U: n, V: target}},
	}, nil
}

// apply advances the oracle by one acked update.
func (o *oracle) apply(p op) (semprox.UpdateStats, error) {
	d, err := o.delta(p)
	if err != nil {
		return semprox.UpdateStats{}, err
	}
	n := semprox.NodeID(o.eng.Graph().NumNodes())
	st, err := o.eng.ApplyUpdate(d)
	if err != nil {
		return st, fmt.Errorf("oracle: applying %v: %w", p, err)
	}
	o.ids[p.name] = n
	clear(o.memo)
	return st, nil
}

func updateRequest(p op) api.UpdateRequest {
	return api.UpdateRequest{
		Nodes: []api.UpdateNode{{Type: "user", Name: p.name}},
		Edges: []api.UpdateEdge{{U: p.name, V: p.target}},
	}
}

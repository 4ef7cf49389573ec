package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"

	semprox "repro"
	"repro/client"
	"repro/internal/server"
)

// TestOracleAgainstAnInProcessServer drives the whole answer-checking
// path without child processes: a small engine behind a real handler, the
// generator's own issue() in front, the oracle behind. Right answers must
// verify, and a server at a different epoch must not.
func TestOracleAgainstAnInProcessServer(t *testing.T) {
	sp := spec{name: "unit", salt: 9, users: 300, maxNodes: 3}
	ds := generate(sp, 1)
	eng, err := semprox.NewEngine(ds.G, "user", engineOptions(sp.maxNodes))
	if err != nil {
		t.Fatal(err)
	}
	eng.Train(class, trainingExamples(ds, 1))
	// The server gets its own engine, through the snapshot codec, as a
	// daemon would: oracle and system under test must not share state.
	var snap bytes.Buffer
	if err := eng.Save(&snap); err != nil {
		t.Fatal(err)
	}
	served, err := semprox.LoadEngine(&snap)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(served))
	defer ts.Close()

	or := newOracle(eng)
	names := make([]string, sp.users)
	for i := range names {
		names[i] = userName(i)
	}
	r := client.NewRouter(ts.URL, nil, nil)
	ctx := context.Background()
	for _, zipf := range []bool{false, true} {
		rs := newReadStream(1, sp.salt, 0, sp.users, zipf)
		var seen [numOpKinds]int
		for i := 0; i < 300; i++ {
			p := rs.next()
			seen[p.kind]++
			got, err := issue(ctx, r, names, p)
			if err != nil {
				t.Fatalf("%v: %v", p, err)
			}
			want, err := or.expect(names, p)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v: the server's answer does not verify against the engine it serves", p)
			}
		}
		if seen[opQuery] == 0 || seen[opProximity] == 0 || seen[opBatch] == 0 {
			t.Fatalf("300 ops did not cover every read kind: %v", seen)
		}
	}

	// Advance the SERVER by one update the oracle has not seen: the
	// answer for a user of the touched college must stop verifying, and
	// verify again once the oracle replays the same update.
	us := newUpdateStream(1, sp.salt, sp.colleges())
	up := us.next()
	base := semprox.NodeID(eng.Graph().NumNodes())
	if lsn, err := issue(ctx, r, names, up); err != nil || lsn != 1 {
		t.Fatalf("update: lsn %d, err %v", lsn, err)
	}
	college := or.ids[up.target]
	var member string
	for _, v := range ds.G.Neighbors(college) {
		if n := ds.G.Name(v); or.ids[n] == v && len(n) > 5 && n[:5] == "user-" {
			member = n
			break
		}
	}
	if member == "" {
		t.Fatalf("college %s has no user", up.target)
	}
	resp, err := r.Query(ctx, class, member, queryK)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := or.rankedDigest(fnvOffset, member)
	if err != nil {
		t.Fatal(err)
	}
	if observedQuery(resp) == stale {
		t.Errorf("an update changed %s's college but its answer still matches the pre-update oracle", member)
	}
	if _, err := or.apply(up); err != nil {
		t.Fatal(err)
	}
	if or.ids[up.name] != base {
		t.Errorf("oracle numbered the new node %d, want %d", or.ids[up.name], base)
	}
	fresh, err := or.rankedDigest(fnvOffset, member)
	if err != nil {
		t.Fatal(err)
	}
	if observedQuery(resp) != fresh {
		t.Errorf("after replaying the update the oracle still disagrees with the server on %s", member)
	}
	// The node the update added is queryable and has partners.
	added, err := r.Query(ctx, class, up.name, queryK)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := or.rankedDigest(fnvOffset, up.name); observedQuery(added) != want || len(added.Results[0].Results) == 0 {
		t.Errorf("the added node %s: %d results, verified %v", up.name, len(added.Results[0].Results), observedQuery(added) == want)
	}
}

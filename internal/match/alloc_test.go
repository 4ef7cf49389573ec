package match_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/mining"
)

// symISOAllocBudget bounds what one SymISO search may allocate: the
// decomposition, the group order, the conditions filed by step and
// per-depth buffers that grow a few times. It must not grow with the number of assignments, which reaches
// millions below.
const symISOAllocBudget = 200

// TestSymISOAllocsPerMatch counts every instance of the metagraphs a
// lifecycle bring-up matches (600 LinkedIn users, MaxNodes 4, MinSupport
// 5) through the pruned search Instances runs on SymISO, and requires each
// search to stay within a constant allocation budget and to call its
// visitor once per instance. The instance count comes from the full Match:
// Aut(M) acts freely on injective assignments, so every instance has
// exactly |Aut(M)| of them.
func TestSymISOAllocsPerMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("counts millions of assignments")
	}
	ds := dataset.LinkedIn(dataset.Config{Users: 600, Seed: 1, NoiseRate: 0.05})
	pats := mining.ProximityFilter(mining.Mine(ds.G, mining.Options{MaxNodes: 4, MinSupport: 5}), ds.Anchor)
	if len(pats) == 0 {
		t.Fatal("nothing mined")
	}
	s := match.NewSymISO(ds.G)
	var most, total float64
	var all int64
	for _, p := range pats {
		auts := int64(len(p.M.Automorphisms()))
		assignments := match.CountAssignments(s, p.M)
		if assignments%auts != 0 {
			t.Fatalf("%v: %d assignments are not a multiple of |Aut| = %d", p.M, assignments, auts)
		}
		var n int64
		a := testing.AllocsPerRun(1, func() {
			n = 0
			match.Instances(s, p.M, func([]graph.NodeID) bool { n++; return true })
		})
		if a > symISOAllocBudget {
			t.Errorf("%v: %v allocations for %d instances, budget %d", p.M, a, n, symISOAllocBudget)
		}
		if n != assignments/auts {
			t.Errorf("%v: visitor ran %d times, want %d instances (%d assignments, |Aut| = %d)", p.M, n, assignments/auts, assignments, auts)
		}
		most, total, all = max(most, a), total+a, all+n
	}
	t.Logf("%d metagraphs, %d instances, %v allocations (at most %v per search)", len(pats), all, total, most)
}

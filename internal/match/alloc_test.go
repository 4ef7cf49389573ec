package match_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/match"
	"repro/internal/mining"
)

// symISOAllocBudget bounds what one SymISO Match may allocate: the
// decomposition, the group order and per-depth buffers that grow a few
// times. It must not grow with the number of assignments, which reaches
// millions below.
const symISOAllocBudget = 200

// TestSymISOAllocsPerMatch counts every instance of the metagraphs a
// lifecycle bring-up matches (600 LinkedIn users, MaxNodes 4, MinSupport
// 5) and requires each Match to stay within a constant allocation budget.
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
		var n int64
		a := testing.AllocsPerRun(1, func() { n = match.CountInstances(s, p.M) })
		if a > symISOAllocBudget {
			t.Errorf("%v: %v allocations for %d instances, budget %d", p.M, a, n, symISOAllocBudget)
		}
		most, total, all = max(most, a), total+a, all+n
	}
	t.Logf("%d metagraphs, %d instances, %v allocations (at most %v per Match)", len(pats), all, total, most)
}

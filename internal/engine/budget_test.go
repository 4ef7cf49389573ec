package engine

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// The work one update may do at the shapes of benchmark/'s workloads: a
// new user joining college-0, as BenchmarkApplyUpdate and benchmark/'s
// update stream send it. Each ceiling is the change's figure plus about
// 5 %. Most of read_direct's bytes are the grown graph's flat arrays, its
// name map and the class's denominators; its one held metagraph,
// user–college–user, is read from the graph, so the update copies and
// patches no index.
const (
	readDirectUpdateBytes  = 812_000 // 773 112 measured
	readDirectUpdateAllocs = 46      // 44
	lifecycleUpdateBytes   = 871_000 // 829 504
	lifecycleUpdateAllocs  = 284     // 270
)

// TestApplyUpdateWorkBudget holds ApplyUpdate's allocated bytes and
// allocations at read_direct and lifecycle to their ceilings: the fewest
// of three updates, each applied to the same base epoch after one that
// warms the pools. The race detector's allocations are its own, so it
// skips the test.
func TestApplyUpdateWorkBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under -race are the detector's, not the update's")
	}
	for _, c := range []struct {
		sh            *snapShape
		bytes, allocs uint64
	}{
		{snapShapes[0], readDirectUpdateBytes, readDirectUpdateAllocs},
		{snapShapes[1], lifecycleUpdateBytes, lifecycleUpdateAllocs},
	} {
		eng := c.sh.build(1)
		base := eng.cur.Load()
		d := graph.Delta{
			Nodes: []graph.DeltaNode{{Type: "user", Value: "budget-user"}},
			Edges: []graph.Edge{{U: graph.NodeID(base.g.NumNodes()), V: base.g.NodeByName("college-0")}},
		}
		bytes, allocs := ^uint64(0), ^uint64(0)
		for i := range 4 {
			eng.cur.Store(base)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := eng.ApplyUpdate(d); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if i > 0 {
				bytes, allocs = min(bytes, after.TotalAlloc-before.TotalAlloc), min(allocs, after.Mallocs-before.Mallocs)
			}
		}
		t.Logf("%s: ApplyUpdate allocates %d bytes in %d allocations", c.sh.name, bytes, allocs)
		if bytes > c.bytes || allocs > c.allocs {
			t.Errorf("%s: ApplyUpdate allocates %d bytes in %d allocations; the ceilings are %d and %d", c.sh.name, bytes, allocs, c.bytes, c.allocs)
		}
	}
}

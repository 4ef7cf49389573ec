package semprox

import "testing"

// TestFig4WeightsAreSparse gates Fig. 4: the learned w* is sparse, which is
// what lets an epoch hold only the metagraphs some class weighs. At each
// shape benchmark/ boots — read_direct (5 000 users, MaxNodes 3) and
// lifecycle (600 users, MaxNodes 4), on the graphs of seeds 1–3 — w* has
// an exact zero, weighs as many metagraphs as recorded here, and the
// trained engine holds those and no more.
func TestFig4WeightsAreSparse(t *testing.T) {
	// weighed, of metagraphs mined
	weighs := map[string][2]int{"read_direct": {1, 3}, "lifecycle": {10, 12}}
	for _, sh := range snapShapes {
		for seed := int64(1); seed <= 3; seed++ {
			eng := sh.build(seed)
			n := 0
			for _, w := range eng.Weights("college") {
				if w != 0 {
					n++
				}
			}
			if n == eng.NumMetagraphs() {
				t.Errorf("%s, seed %d: w* weighs all %d metagraphs; Fig. 4 has it sparse", sh.name, seed, n)
			}
			if got := [2]int{n, eng.NumMetagraphs()}; got != weighs[sh.name] {
				t.Errorf("%s, seed %d: w* weighs %d of %d metagraphs, want %d of %d", sh.name, seed, got[0], got[1], weighs[sh.name][0], weighs[sh.name][1])
			}
			assertHoldsWeighed(t, eng)
		}
	}
}

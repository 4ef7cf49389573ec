// Package dataset generates the two synthetic heterogeneous social graphs
// the experiments run on. The paper evaluates on a LinkedIn dataset (4
// types; college and coworker classes labeled by users) and a Facebook
// dataset (10 types; family and classmate ground truth *generated by rules
// over shared attributes*, with a 5% random-label chance — Sect. V-A). The
// original datasets are not redistributable, so this package plants the
// same structure synthetically: users acquire attributes through family
// and cohort groups, and class labels are derived from the paper's own
// attribute rules plus 5% label noise. See DESIGN.md for the substitution
// rationale.
package dataset

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/eval"
	"repro/internal/graph"
)

// Dataset bundles a generated graph with its per-class ground truth.
type Dataset struct {
	Name    string
	G       *graph.Graph
	Anchor  graph.TypeID // the type proximity is measured between (user)
	Classes map[string]eval.Labels
}

// Users returns the anchor-typed nodes.
func (d *Dataset) Users() []graph.NodeID { return d.G.NodesOfType(d.Anchor) }

// ClassNames returns the class names in a stable order.
func (d *Dataset) ClassNames() []string {
	names := make([]string, 0, len(d.Classes))
	for n := range d.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Config scales a generated dataset.
type Config struct {
	Users int
	Seed  int64
	// NoiseRate is the chance a rule-derived label is replaced by a random
	// one (the paper uses 5%).
	NoiseRate float64
}

// pool creates n attribute nodes of one type.
func pool(b *graph.Builder, typeName string, n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = b.AddNode(typeName, fmt.Sprintf("%s-%d", typeName, i))
	}
	return out
}

func atLeast(n, min int) int {
	if n < min {
		return min
	}
	return n
}

// LinkedIn generates the LinkedIn-like graph: types user, college,
// employer, location. Classes:
//
//	college  — same college AND (same location OR same employer)
//	coworker — same employer AND (same location OR same college)
//
// Conjunctive-with-disjunction rules make single metapaths insufficient
// (reproducing why MGP beats MPP/MGP-B) while shared attributes remain the
// signal MGP's metagraphs capture.
func LinkedIn(cfg Config) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder()
	for _, t := range []string{"user", "college", "employer", "location"} {
		b.Types().Register(t)
	}
	colleges := pool(b, "college", atLeast(cfg.Users/40, 3))
	employers := pool(b, "employer", atLeast(cfg.Users/30, 3))
	locations := pool(b, "location", atLeast(cfg.Users/25, 3))

	users := make([]graph.NodeID, cfg.Users)
	for i := range users {
		users[i] = b.AddNode("user", fmt.Sprintf("user-%d", i))
	}

	// Community structure: users cluster around a "home" college, employer
	// and location, with spillover to random ones. Clustering is what makes
	// shared attributes informative rather than uniform noise.
	attach := func(u graph.NodeID, p []graph.NodeID, home, extra int) {
		b.AddEdge(u, p[home])
		for k := 0; k < extra; k++ {
			b.AddEdge(u, p[rng.Intn(len(p))])
		}
	}
	homeCollege := make([]int, cfg.Users)
	homeEmployer := make([]int, cfg.Users)
	homeLocation := make([]int, cfg.Users)
	for i, u := range users {
		homeCollege[i] = rng.Intn(len(colleges))
		homeEmployer[i] = rng.Intn(len(employers))
		homeLocation[i] = rng.Intn(len(locations))
		attach(u, colleges, homeCollege[i], rng.Intn(2))
		attach(u, employers, homeEmployer[i], rng.Intn(3))
		attach(u, locations, homeLocation[i], rng.Intn(2))
	}
	g := b.MustBuild()

	ds := &Dataset{
		Name:    "LinkedIn",
		G:       g,
		Anchor:  g.Types().ID("user"),
		Classes: map[string]eval.Labels{"college": {}, "coworker": {}},
	}

	college, location, employer := g.Types().ID("college"), g.Types().ID("location"), g.Types().ID("employer")
	shares := func(u, v graph.NodeID, t graph.TypeID) bool { return graph.ShareNeighborOfType(g, u, v, t) }
	// Enumerate same-home groups rather than all user pairs.
	labelGroups(users, homeCollege, func(u, v graph.NodeID) {
		if shares(u, v, college) && (shares(u, v, location) || shares(u, v, employer)) {
			ds.Classes["college"].Add(u, v)
		}
	})
	labelGroups(users, homeEmployer, func(u, v graph.NodeID) {
		if shares(u, v, employer) && (shares(u, v, location) || shares(u, v, college)) {
			ds.Classes["coworker"].Add(u, v)
		}
	})
	applyNoise(rng, ds.Classes["college"], users, cfg.NoiseRate)
	applyNoise(rng, ds.Classes["coworker"], users, cfg.NoiseRate)
	return ds
}

// Facebook generates the Facebook-like graph with the paper's 10 types and
// its exact ground-truth rules (Sect. V-A):
//
//	family    — same surname AND (same location OR same hometown)
//	classmate — same school AND (same degree OR same major)
//
// plus a 5% chance of random class labels.
func Facebook(cfg Config) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder()
	for _, t := range []string{
		"user", "major", "degree", "school", "hometown", "surname",
		"location", "employer", "work-location", "work-project",
	} {
		b.Types().Register(t)
	}
	majors := pool(b, "major", atLeast(cfg.Users/40, 4))
	degrees := pool(b, "degree", 4) // BS/BA/MS/PhD-like global pool
	schools := pool(b, "school", atLeast(cfg.Users/50, 3))
	hometowns := pool(b, "hometown", atLeast(cfg.Users/20, 4))
	// A deliberately collision-prone surname pool: families cycle through
	// it, so unrelated users share surnames often enough that the surname
	// metapath alone cannot identify family — the conjunction with
	// location/hometown (a metagraph, not a path) is required, as in the
	// paper's argument for metagraphs over metapaths.
	surnames := pool(b, "surname", atLeast(cfg.Users/14, 4))
	locations := pool(b, "location", atLeast(cfg.Users/25, 3))
	employers := pool(b, "employer", atLeast(cfg.Users/20, 3))
	workLocs := pool(b, "work-location", atLeast(cfg.Users/30, 3))
	projects := pool(b, "work-project", atLeast(cfg.Users/15, 3))

	users := make([]graph.NodeID, cfg.Users)
	for i := range users {
		users[i] = b.AddNode("user", fmt.Sprintf("user-%d", i))
	}

	// Families: consecutive runs of 2–5 users sharing surname and usually
	// location/hometown.
	family := make([]int, cfg.Users)
	fid := 0
	for i := 0; i < cfg.Users; {
		size := 2 + rng.Intn(4)
		sn := surnames[fid%len(surnames)]
		loc := locations[rng.Intn(len(locations))]
		ht := hometowns[rng.Intn(len(hometowns))]
		for k := 0; k < size && i < cfg.Users; k, i = k+1, i+1 {
			family[i] = fid
			b.AddEdge(users[i], sn)
			if rng.Float64() < 0.8 {
				b.AddEdge(users[i], loc)
			} else {
				b.AddEdge(users[i], locations[rng.Intn(len(locations))])
			}
			if rng.Float64() < 0.8 {
				b.AddEdge(users[i], ht)
			} else {
				b.AddEdge(users[i], hometowns[rng.Intn(len(hometowns))])
			}
		}
		fid++
	}

	// Cohorts: several class-years per school, each with its own
	// degree/major profile. Sharing a school alone is NOT enough to be
	// classmates (different cohorts of the same school abound), which is
	// what makes the conjunction rule — and hence metagraphs over
	// metapaths — necessary.
	nCohorts := 3 * len(schools)
	cohort := make([]int, cfg.Users)
	for i, u := range users {
		c := rng.Intn(nCohorts) // c = school*3 + year
		cohort[i] = c
		if rng.Float64() < 0.9 {
			b.AddEdge(u, schools[c/3])
		} else {
			b.AddEdge(u, schools[rng.Intn(len(schools))])
		}
		// Degree and major vary with the cohort's *year*, so two cohorts of
		// the same school differ in them — sharing the school alone must
		// not imply classmate.
		if rng.Float64() < 0.8 {
			b.AddEdge(u, degrees[c%len(degrees)])
		} else {
			b.AddEdge(u, degrees[rng.Intn(len(degrees))])
		}
		b.AddEdge(u, majors[(c*2+rng.Intn(2))%len(majors)])
		// Work attributes are background noise for these two classes.
		if rng.Intn(2) == 0 {
			b.AddEdge(u, employers[rng.Intn(len(employers))])
		}
		if rng.Intn(3) == 0 {
			b.AddEdge(u, workLocs[rng.Intn(len(workLocs))])
		}
		if rng.Intn(2) == 0 {
			b.AddEdge(u, projects[rng.Intn(len(projects))])
		}
	}
	g := b.MustBuild()

	ds := &Dataset{
		Name:    "Facebook",
		G:       g,
		Anchor:  g.Types().ID("user"),
		Classes: map[string]eval.Labels{"family": {}, "classmate": {}},
	}
	ty := g.Types().ID
	surname, location, hometown := ty("surname"), ty("location"), ty("hometown")
	school, degree, major := ty("school"), ty("degree"), ty("major")
	shares := func(u, v graph.NodeID, t graph.TypeID) bool { return graph.ShareNeighborOfType(g, u, v, t) }
	labelGroups(users, family, func(u, v graph.NodeID) {
		if shares(u, v, surname) && (shares(u, v, location) || shares(u, v, hometown)) {
			ds.Classes["family"].Add(u, v)
		}
	})
	labelGroups(users, cohort, func(u, v graph.NodeID) {
		if shares(u, v, school) && (shares(u, v, degree) || shares(u, v, major)) {
			ds.Classes["classmate"].Add(u, v)
		}
	})
	applyNoise(rng, ds.Classes["family"], users, cfg.NoiseRate)
	applyNoise(rng, ds.Classes["classmate"], users, cfg.NoiseRate)
	return ds
}

// labelGroups calls fn for every user pair sharing a group id — the only
// pairs that can satisfy a same-group rule — avoiding the O(n²) sweep.
func labelGroups(users []graph.NodeID, group []int, fn func(u, v graph.NodeID)) {
	byGroup := make(map[int][]int)
	for i, gid := range group {
		byGroup[gid] = append(byGroup[gid], i)
	}
	for _, members := range byGroup {
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				fn(users[members[a]], users[members[b]])
			}
		}
	}
}

// applyNoise implements the paper's "5% chance to assign a random class
// label": that fraction of rule-derived pairs is replaced by uniformly
// random user pairs.
func applyNoise(rng *rand.Rand, labels eval.Labels, users []graph.NodeID, rate float64) {
	if rate <= 0 {
		return
	}
	type pair struct{ x, y graph.NodeID }
	var pairs []pair
	for _, q := range labels.Queries() {
		for v := range labels[q] {
			if q < v {
				pairs = append(pairs, pair{q, v})
			}
		}
	}
	// Deterministic order for the RNG: Queries is sorted, but map iteration
	// over labels[q] is not; sort the collected pairs.
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].x != pairs[j].x {
			return pairs[i].x < pairs[j].x
		}
		return pairs[i].y < pairs[j].y
	})
	for _, p := range pairs {
		if rng.Float64() < rate {
			labels.Remove(p.x, p.y)
			x := users[rng.Intn(len(users))]
			y := users[rng.Intn(len(users))]
			if x != y {
				labels.Add(x, y)
			}
		}
	}
}

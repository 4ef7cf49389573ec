// Friendcircles demonstrates the paper's first motivating scenario
// (Sect. I): circle-based friend suggestion. On a Facebook-like social
// graph it trains one proximity model per circle (family, classmate) and
// suggests friends for the same user under each circle — with dual-stage
// training, so only a fraction of the metagraphs is ever matched.
package main

import (
	"fmt"
	"log"

	semprox "repro"
	"repro/internal/dataset"
	"repro/internal/mining"
)

func main() {
	log.SetFlags(0)

	ds := dataset.Facebook(dataset.Config{Users: 300, Seed: 42, NoiseRate: 0.05})
	g := ds.G
	fmt.Printf("social graph: %d nodes, %d edges, %d attribute types\n",
		g.NumNodes(), g.NumEdges(), g.NumTypes())

	opts := semprox.DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 5}
	opts.Train.Restarts = 3
	opts.Train.MaxIters = 300
	eng, err := semprox.NewEngine(g, "user", opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metagraph vocabulary: %d\n\n", eng.NumMetagraphs())

	users := ds.Users()
	// Train each circle with dual-stage training: metapath seeds plus 25
	// heuristically chosen candidates.
	for _, circle := range ds.ClassNames() {
		labels := ds.Classes[circle]
		examples := semprox.MakeExamples(labels, labels.Queries(), users, 300, 7)
		semprox.TrainDualStage(eng, circle, examples, 25)
		fmt.Printf("trained circle %-9s on %d examples (holds %d of %d metagraphs)\n",
			circle, len(examples), eng.MatchedCount(), eng.NumMetagraphs())
	}

	// Pick a user that has labeled partners in both circles so the contrast
	// is visible.
	var probe semprox.NodeID = semprox.InvalidNode
	for _, u := range users {
		if len(ds.Classes["family"][u]) > 0 && len(ds.Classes["classmate"][u]) > 0 {
			probe = u
			break
		}
	}
	if probe == semprox.InvalidNode {
		probe = users[0]
	}

	fmt.Printf("\nfriend suggestions for %s, by circle:\n", g.Name(probe))
	for _, circle := range ds.ClassNames() {
		res, err := eng.Query(circle, probe, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-9s:", circle)
		hits := 0
		for _, r := range res {
			mark := ""
			if ds.Classes[circle].Has(probe, r.Node) {
				mark = "*"
				hits++
			}
			fmt.Printf("  %s%s(%.2f)", g.Name(r.Node), mark, r.Score)
		}
		fmt.Printf("   [%d/%d in circle]\n", hits, len(res))
	}
	fmt.Println("\n(* = pair labeled with that circle in the ground truth)")
}

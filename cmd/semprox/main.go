// Command semprox is the offline half of the paper's framework (Fig. 3):
// it mines the metagraphs of a generated dataset (or a graph file),
// matches them, trains one weight vector per semantic class, ranks one
// query from the command line and, with -save, writes the trained engine
// as the snapshot that semproxd serves.
//
// Examples:
//
//	# Suggest coworkers for a user of the synthetic LinkedIn-like graph.
//	semprox -dataset linkedin -classes coworker -query user-17 -top 5
//
//	# Same but with dual-stage training matching only 30 candidates.
//	semprox -dataset linkedin -classes coworker -query user-17 -candidates 30
//
//	# Train every class of the dataset and write the snapshot to serve.
//	semprox -dataset linkedin -users 400 -save engine.snap
//	semproxd -snapshot engine.snap
//
//	# Load a graph from the text format instead.
//	semprox -graph my.graph -anchor user -classes friends \
//	        -labels labels.tsv -query Alice
//
// With -labels, each line of the file is "x<TAB>y" naming two nodes that
// belong to the class; training triplets are sampled from it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	semprox "repro"
	"repro/internal/atomicfile"
	"repro/internal/dataset"
	"repro/internal/mining"
)

// class is one semantic class to train: its name and labeled pairs.
type class struct {
	name   string
	labels semprox.Labels
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("semprox: ")
	var (
		dsName     = flag.String("dataset", "linkedin", "built-in dataset: linkedin or facebook (ignored with -graph)")
		users      = flag.Int("users", 400, "user count for built-in datasets")
		graphFile  = flag.String("graph", "", "load a graph from this text file instead of generating one")
		labelsFile = flag.String("labels", "", "tab-separated node-name pairs labeling the class (required with -graph)")
		anchor     = flag.String("anchor", "user", "object type proximity is measured between")
		classList  = flag.String("classes", "", "comma-separated classes to train, in order (default: every class of the dataset; with -graph, the name of its one labeled class, default \"labeled\")")
		query      = flag.String("query", "", "node name to rank in the first class (default: that class's first query node)")
		topK       = flag.Int("top", 10, "results to print")
		candidates = flag.Int("candidates", 0, "if >0, use dual-stage training with this many candidates")
		nExamples  = flag.Int("examples", 200, "training triplets to sample per class")
		maxNodes   = flag.Int("max-nodes", 4, "metagraph size cap")
		minSupport = flag.Int("min-support", 5, "MNI support threshold for mining")
		seed       = flag.Int64("seed", 1, "random seed")
		save       = flag.String("save", "", "write the trained engine snapshot here (semproxd -snapshot serves it)")
	)
	flag.Parse()

	var (
		g       *semprox.Graph
		name    string
		classes []class
	)
	if *graphFile != "" {
		if *labelsFile == "" {
			log.Fatal("-graph requires -labels")
		}
		f, err := os.Open(*graphFile)
		if err != nil {
			log.Fatal(err)
		}
		g, err = semprox.ReadGraph(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		names := classNames(*classList, []string{"labeled"})
		if len(names) != 1 {
			log.Fatalf("-classes: a -graph has one labeled class, got %q", *classList)
		}
		classes = []class{{names[0], readLabels(*labelsFile, g)}}
		name = *graphFile
	} else {
		var ds *dataset.Dataset
		switch *dsName {
		case "linkedin":
			ds = dataset.LinkedIn(dataset.Config{Users: *users, Seed: *seed, NoiseRate: 0.05})
		case "facebook":
			ds = dataset.Facebook(dataset.Config{Users: *users, Seed: *seed, NoiseRate: 0.05})
		default:
			log.Fatalf("-dataset: unknown dataset %q (have linkedin, facebook)", *dsName)
		}
		for _, c := range classNames(*classList, ds.ClassNames()) {
			labels, ok := ds.Classes[c]
			if !ok {
				log.Fatalf("-classes: dataset %s has no class %q (have %v)", ds.Name, c, ds.ClassNames())
			}
			classes = append(classes, class{c, labels})
		}
		g, name = ds.G, ds.Name
	}
	for _, c := range classes {
		if len(c.labels.Queries()) == 0 {
			log.Fatalf("class %q has no labeled pairs", c.name)
		}
	}
	q := classes[0].labels.Queries()[0]
	if *query != "" {
		if q = g.NodeByName(*query); q == semprox.InvalidNode {
			log.Fatalf("-query: node %q not found", *query)
		}
	}

	fmt.Printf("graph %s: %d nodes, %d edges, %d types\n", name, g.NumNodes(), g.NumEdges(), g.NumTypes())

	opts := semprox.DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: *maxNodes, MinSupport: *minSupport}
	opts.Train.Restarts = 3
	opts.Train.MaxIters = 400

	start := time.Now()
	eng, err := semprox.NewEngine(g, *anchor, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mined %d metagraphs in %.1fs\n", eng.NumMetagraphs(), time.Since(start).Seconds())

	pool := g.NodesOfType(g.Types().ID(*anchor))
	for _, c := range classes {
		examples := semprox.MakeExamples(c.labels, c.labels.Queries(), pool, *nExamples, *seed)
		fmt.Printf("training class %q on %d examples", c.name, len(examples))
		start = time.Now()
		if *candidates > 0 {
			semprox.TrainDualStage(eng, c.name, examples, *candidates)
		} else {
			eng.Train(c.name, examples)
		}
		fmt.Printf(" in %.1fs (holds %d of %d metagraphs)\n", time.Since(start).Seconds(), eng.MatchedCount(), eng.NumMetagraphs())
	}

	if *save != "" {
		if err := atomicfile.WriteWith(*save, func(w io.Writer) error { return eng.Save(w) }); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote snapshot %s\n", *save)
	}

	first := classes[0]
	results, err := eng.Query(first.name, q, *topK)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntop %d results for %q (class %s):\n", *topK, g.Name(q), first.name)
	for i, r := range results {
		mark := ""
		if first.labels.Has(q, r.Node) {
			mark = "  [labeled " + first.name + "]"
		}
		fmt.Printf("%2d. %-20s π=%.4f%s\n", i+1, g.Name(r.Node), r.Score, mark)
	}
	if len(results) == 0 {
		fmt.Println("(no candidates share a symmetric metagraph instance with the query)")
	}
}

// classNames splits -classes, trimming each name; an empty list means all.
func classNames(csv string, all []string) []string {
	if csv == "" {
		return all
	}
	names := strings.Split(csv, ",")
	for i := range names {
		if names[i] = strings.TrimSpace(names[i]); names[i] == "" {
			log.Fatalf("-classes: empty class name in %q", csv)
		}
	}
	return names
}

// readLabels parses "x<TAB>y" node-name pairs.
func readLabels(path string, g *semprox.Graph) semprox.Labels {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	labels := semprox.Labels{}
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "\t")
		if len(parts) != 2 {
			log.Fatalf("%s:%d: want two tab-separated node names", path, lineNo)
		}
		x, y := g.NodeByName(parts[0]), g.NodeByName(parts[1])
		if x == semprox.InvalidNode || y == semprox.InvalidNode {
			log.Fatalf("%s:%d: unknown node in %q", path, lineNo, line)
		}
		labels.Add(x, y)
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
	return labels
}

package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dualstage"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/metagraph"
	"repro/internal/mining"
)

// Config scales the experiment suite. Defaults run the full suite on one
// laptop core in minutes; raise the sizes to approach the paper's scale.
type Config struct {
	LinkedInUsers int
	FacebookUsers int
	Seed          int64

	// Splits is the number of random train/test splits results are
	// averaged over (the paper uses 10).
	Splits int
	// ExampleSizes is the |Ω| sweep of Figs. 6–7 (paper: 10..1000).
	ExampleSizes []int
	// TrainExamples is |Ω| for the single-model experiments (Fig. 4,
	// Table III, Figs. 8–10); the paper uses 1000.
	TrainExamples int
	// TopK is the ranking cutoff (paper: 10).
	TopK int
	// CandidateSweep lists the |K| values of Figs. 8 and 10 per dataset
	// name; nil picks a sweep from the metagraph count.
	CandidateSweep map[string][]int

	// Workers bounds the goroutines used for offline metagraph matching
	// when building pipelines; values < 1 mean one worker per CPU. The
	// built index is identical for every worker count. Mining is not
	// bounded by Workers: it fans out over runtime.GOMAXPROCS(0).
	Workers int

	Train  core.TrainOptions
	Mining mining.Options
	SRW    SRWConfigFn
}

// SRWConfigFn lets callers tune SRW per dataset; nil uses defaults.
type SRWConfigFn func(datasetName string) map[string]float64

// DefaultConfig returns the laptop-scale configuration. The learning rate
// is raised from the paper's γ=10 to 50, which reaches the same optima in
// ~4× fewer iterations (gradient ascent on a scale-invariant objective is
// insensitive to the exact rate once it converges; see EXPERIMENTS.md).
func DefaultConfig() Config {
	tr := core.DefaultTrain()
	tr.Restarts = 3
	tr.LearningRate = 50
	tr.MaxIters = 1500
	return Config{
		LinkedInUsers: 600,
		FacebookUsers: 400,
		Seed:          1,
		Splits:        3,
		ExampleSizes:  []int{10, 100, 1000},
		TrainExamples: 1000,
		TopK:          10,
		Train:         tr,
		Mining:        mining.Options{MaxNodes: 4, MinSupport: 8},
	}
}

// Pipeline holds the offline artifacts of one dataset: mined metagraphs,
// per-metagraph match times, and the full vector index (Fig. 3's offline
// phase), so every experiment reuses them.
type Pipeline struct {
	DS       *dataset.Dataset
	Patterns []mining.Pattern
	Ms       []*metagraph.Metagraph

	MineTime   time.Duration
	MatchTimes []time.Duration // per metagraph, SymISO
	MatchTime  time.Duration   // sum of MatchTimes (attribution basis)
	// MatchWall is the elapsed wall time of the whole match phase. Serial
	// builds have MatchWall ≈ MatchTime; parallel builds have MatchWall
	// below it, and Table III reports MatchWall so its "matching" column
	// stays an elapsed offline cost comparable to the paper.
	MatchWall time.Duration

	Index *index.Index
}

// BuildPipeline mines, matches and indexes one dataset, fanning matching
// out over the given number of workers (< 1 means one per CPU). Per-worker
// SymISO matchers fill one single-metagraph part index each; the parts
// merge by metagraph offset, so the pipeline index is identical to a
// serial build. Per-metagraph match times remain attributable for
// SubsetMatchTime.
func BuildPipeline(ds *dataset.Dataset, mopts mining.Options, workers int) *Pipeline {
	p := &Pipeline{DS: ds}

	start := time.Now()
	all := mining.Mine(ds.G, mopts)
	p.Patterns = mining.ProximityFilter(all, ds.Anchor)
	p.MineTime = time.Since(start)
	p.Ms = mining.Metagraphs(p.Patterns)

	t0 := time.Now()
	parts, times := index.MatchParts(p.Ms,
		func() match.Matcher { return match.NewSymISO(ds.G) }, workers)
	p.MatchWall = time.Since(t0)
	p.MatchTimes = times
	for _, t := range times {
		p.MatchTime += t
	}
	p.Index = index.Merge(parts...)
	return p
}

// SubsetMatchTime returns the matching time attributable to the given
// metagraph subset (used to cost dual-stage configurations without
// re-matching).
func (p *Pipeline) SubsetMatchTime(indices []int) time.Duration {
	var t time.Duration
	for _, i := range indices {
		t += p.MatchTimes[i]
	}
	return t
}

// Suite lazily builds and caches the pipelines and shared per-class
// artifacts used across experiments.
type Suite struct {
	Cfg       Config
	pipelines map[string]*Pipeline
	accuracy  map[string]*accuracyResults // per dataset
	fullW     map[string][]float64        // per dataset/class: weights on all metagraphs
	sweeps    map[string][]dualStagePoint // per dataset/class/direction
}

// NewSuite returns an empty suite for cfg.
func NewSuite(cfg Config) *Suite {
	return &Suite{
		Cfg:       cfg,
		pipelines: make(map[string]*Pipeline),
		accuracy:  make(map[string]*accuracyResults),
		fullW:     make(map[string][]float64),
		sweeps:    make(map[string][]dualStagePoint),
	}
}

// DatasetNames returns the datasets in report order.
func (s *Suite) DatasetNames() []string { return []string{"LinkedIn", "Facebook"} }

// Pipeline returns (building on first use) the pipeline for the dataset.
func (s *Suite) Pipeline(name string) *Pipeline {
	if p, ok := s.pipelines[name]; ok {
		return p
	}
	var ds *dataset.Dataset
	switch name {
	case "LinkedIn":
		ds = dataset.LinkedIn(dataset.Config{Users: s.Cfg.LinkedInUsers, Seed: s.Cfg.Seed, NoiseRate: 0.05})
	case "Facebook":
		ds = dataset.Facebook(dataset.Config{Users: s.Cfg.FacebookUsers, Seed: s.Cfg.Seed + 1, NoiseRate: 0.05})
	default:
		panic("experiments: unknown dataset " + name)
	}
	p := BuildPipeline(ds, s.Cfg.Mining, s.Cfg.Workers)
	s.pipelines[name] = p
	return p
}

// classSplits returns the query splits for one class.
func (s *Suite) classSplits(p *Pipeline, class string) []eval.Split {
	queries := p.DS.Classes[class].Queries()
	return eval.Splits(queries, 0.2, s.Cfg.Splits, s.Cfg.Seed+100)
}

// trainExamples samples |Ω| triplets from a split's training queries,
// drawing half of the negatives from the query's co-occurrence partners
// (hard negatives) — the pairs the online ranking actually discriminates.
func (s *Suite) trainExamples(p *Pipeline, class string, split eval.Split, n int, seed int64) []core.Example {
	return eval.MakeExamplesHard(p.DS.Classes[class], split.Train, p.DS.Users(),
		p.Index.Partners, 0.5, n, seed)
}

// fullWeights trains (once, cached) the all-metagraph MGP model for a
// class on the first split with TrainExamples triplets; Figs. 4 and 9 use
// these weights.
func (s *Suite) fullWeights(name, class string) []float64 {
	key := name + "/" + class
	if w, ok := s.fullW[key]; ok {
		return w
	}
	p := s.Pipeline(name)
	split := s.classSplits(p, class)[0]
	ex := s.trainExamples(p, class, split, s.Cfg.TrainExamples, s.Cfg.Seed+200)
	model := core.Train(p.Index, ex, s.Cfg.Train)
	s.fullW[key] = model.W
	return model.W
}

// classesOf returns the class names of a dataset in report order.
func classesOf(p *Pipeline) []string { return p.DS.ClassNames() }

// matchFnFor adapts index projection as the dual-stage MatchFunc: the
// suite has pre-matched everything, so "matching a subset" is a projection
// whose *cost* is accounted separately via SubsetMatchTime.
func matchFnFor(p *Pipeline) dualstage.MatchFunc {
	return func(indices []int) *index.Index { return p.Index.Project(indices) }
}

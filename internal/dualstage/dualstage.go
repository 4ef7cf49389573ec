// Package dualstage is dual-stage training (Sect. III-C, Alg. 1). Matching
// every metagraph dominates the offline cost, so the seed stage matches only the metapaths
// (cheap to identify, cheap to match), trains seed weights w0, and the
// candidate stage matches just the |K| non-seed metagraphs most promising
// under the candidate heuristic H (Eq. 7):
//
//	H(Mj) = max over seeds Mi of  w0[i] · SS(Mi, Mj)
//
// The caller supplies matching through a MatchFunc so the expensive work
// stays where the caller controls it (real matching offline, index
// projection in experiments that pre-matched everything).
package dualstage

import (
	"math"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/mcs"
	"repro/internal/metagraph"
)

// MatchFunc builds a metagraph-vector index over the subset of M given by
// indices; the returned index must be numbered 0..len(indices)-1 in the
// given order.
type MatchFunc func(indices []int) *index.Index

// ScoredCandidate is a non-seed metagraph with its heuristic score.
type ScoredCandidate struct {
	Index int     // index into M
	H     float64 // Eq. 7 score
}

// CandidateScores evaluates H for every metagraph outside the seed set,
// given the seed weights w0 (aligned with seedIdx). Results are sorted by
// descending H (ascending for reverse=true, the RCH control of Fig. 10),
// ties broken by index for determinism.
func CandidateScores(ms []*metagraph.Metagraph, seedIdx []int, w0 []float64, reverse bool) []ScoredCandidate {
	isSeed := make(map[int]bool, len(seedIdx))
	for _, i := range seedIdx {
		isSeed[i] = true
	}
	var out []ScoredCandidate
	for j, mj := range ms {
		if isSeed[j] {
			continue
		}
		h := 0.0
		for k, i := range seedIdx {
			if w0[k] == 0 {
				continue
			}
			if s := w0[k] * mcs.StructuralSimilarity(ms[i], mj); s > h {
				h = s
			}
		}
		out = append(out, ScoredCandidate{Index: j, H: h})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].H != out[b].H {
			if reverse {
				return out[a].H < out[b].H
			}
			return out[a].H > out[b].H
		}
		return out[a].Index < out[b].Index
	})
	return out
}

// Options configures Alg. 1.
type Options struct {
	// NumCandidates is |K|, the number of non-seed metagraphs to match.
	NumCandidates int
	// Reverse selects candidates by ascending H (the RCH control).
	Reverse bool
	// Train configures both training runs.
	Train core.TrainOptions
}

// Default returns Alg. 1 with the paper's training setup.
func Default(numCandidates int) Options {
	return Options{NumCandidates: numCandidates, Train: core.DefaultTrain()}
}

// Result reports the trained model and which metagraphs were
// matched.
type Result struct {
	SeedIdx []int       // K0 (indices into M)
	CandIdx []int       // K in selection order
	Kept    []int       // K0 ∪ K in the order the final index numbers them
	Model   *core.Model // weights aligned with Kept
	SeedW   []float64   // seed-stage weights w0, aligned with SeedIdx
}

// Run runs Alg. 1 over the metagraph set ms: seed stage on the metapaths,
// one selection of the |K| candidates by H under w0, final training on
// K0 ∪ K.
func Run(ms []*metagraph.Metagraph, matchFn MatchFunc, examples []core.Example, opts Options) *Result {
	res := &Result{SeedIdx: core.Seeds(ms)}

	// Seed stage: match K0, train w0.
	seedModel := core.Train(matchFn(res.SeedIdx), examples, opts.Train)
	res.SeedW, res.Model = seedModel.W, seedModel

	// Candidate stage: the |K| best by H, then training on K0 ∪ K.
	res.Kept = slices.Clone(res.SeedIdx)
	if opts.NumCandidates > 0 {
		scores := CandidateScores(ms, res.SeedIdx, seedModel.W, opts.Reverse)
		for _, sc := range scores[:min(opts.NumCandidates, len(scores))] {
			res.CandIdx = append(res.CandIdx, sc.Index)
			res.Kept = append(res.Kept, sc.Index)
		}
	}
	if len(res.CandIdx) > 0 {
		res.Model = core.Train(matchFn(res.Kept), examples, opts.Train)
	}
	return res
}

// FunctionalSimilarity is FS(Mi, Mj) = 1 − |w*[i] − w*[j]| (Sect. III-C),
// defined on weights normalized to [0, 1].
func FunctionalSimilarity(wi, wj float64) float64 {
	return 1 - math.Abs(wi-wj)
}

// Package core implements the paper's primary contribution: the
// metagraph-based proximity (MGP) family (Sect. III-A), its supervised
// learning (Sect. III-B), and dual-stage training (Sect. III-C, Alg. 1).
package core

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/index"
)

// Proximity evaluates the MGP measure of Def. 3:
//
//	π(x, y; w) = 2 (m_xy · w) / (m_x · w + m_y · w)
//
// over the precomputed metagraph vectors in ix. w must be non-negative and
// len(w) == ix.NumMeta(). π(x, x) is 1 by the self-maximum property; a pair
// with zero denominator (neither node ever occurs symmetrically under w's
// support) has proximity 0.
func Proximity(ix *index.Index, w []float64, x, y graph.NodeID) float64 {
	if x == y {
		return 1
	}
	den := ix.NodeVec(x).Dot(w) + ix.NodeVec(y).Dot(w)
	if den <= 0 {
		return 0
	}
	return 2 * ix.PairVec(x, y).Dot(w) / den
}

// Ranked is one entry of a proximity ranking.
type Ranked struct {
	Node  graph.NodeID
	Score float64
}

// rankedBetter is the total ranking order: descending score with ties
// broken by ascending node id. Node ids are distinct within one ranking, so
// the order has no equal elements and every sort under it is deterministic.
func rankedBetter(a, b Ranked) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Node < b.Node
}

// compareRanked is rankedBetter as a three-way comparison.
func compareRanked(a, b Ranked) int {
	switch {
	case rankedBetter(a, b):
		return -1
	case rankedBetter(b, a):
		return 1
	}
	return 0
}

// Rank returns the candidate nodes for query q ordered by descending MGP
// (ties broken by ascending node id for determinism). Candidates are the
// nodes that co-occur symmetrically with q in at least one instance — every
// other node has proximity 0 (online phase of Fig. 3).
func Rank(ix *index.Index, w []float64, q graph.NodeID) []Ranked {
	return RankTop(ix, w, q, 0)
}

// RankTop returns the top k of Rank (k <= 0 means all): RankCandidates
// over q's adjacency row, every denominator computed from the node rows.
func RankTop(ix *index.Index, w []float64, q graph.NodeID, k int) []Ranked {
	return RankCandidates(ix.Candidates(q), w, nil, k)
}

// RankCandidates is the scan of the online phase: one pass over the
// adjacency row of a query node q, scoring every candidate v by Def. 3 and
// keeping only the k best (k <= 0 means all) in a bounded heap — the
// returned slice is the call's one allocation. Every candidate's pair row
// sits in scan order (no search per candidate). dots, when non-nil, is
// ix.NodeDots(w) of the index the row came from — m_v·w is a constant of
// (w, v), so a caller that ranks under one w many times computes it once —
// and the scan then reads no node row at all; with nil dots it evaluates
// the same SparseVec.Dot per candidate, so both give the same bits.
func RankCandidates(cands index.Candidates, w, dots []float64, k int) []Ranked {
	// No ranking is longer than the candidate list, so an oversized k (a
	// client asking for "everything") never sizes the allocation.
	if k <= 0 || k > len(cands.Nodes) {
		k = len(cands.Nodes)
	}
	top := make(worstHeap, 0, k)
	if k == 0 {
		return top
	}
	var qDot float64
	if dots != nil {
		qDot = dots[cands.Query]
	} else {
		qDot = cands.QueryVec().Dot(w)
	}
	for i, v := range cands.Nodes {
		den := qDot
		if dots != nil {
			den += dots[v]
		} else {
			den += cands.NodeVec(i).Dot(w)
		}
		if den <= 0 {
			continue
		}
		s := 2 * cands.PairVec(i).Dot(w) / den
		if s <= 0 {
			continue
		}
		r := Ranked{v, s}
		switch {
		case len(top) < k:
			top = append(top, r)
			if len(top) == k {
				top.init()
			}
		case rankedBetter(r, top[0]):
			top[0] = r
			top.siftDown(0)
		}
	}
	slices.SortFunc(top, compareRanked)
	return top
}

// worstHeap is a bounded top-k heap with the WORST kept candidate at the
// root (a min-heap under the ranking order), so replacing the loser when a
// better candidate arrives is one root swap plus a sift. Hand-rolled
// instead of container/heap to keep the per-query hot loop free of
// interface boxing.
type worstHeap []Ranked

// init establishes the heap property over arbitrary contents.
func (h worstHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// siftDown restores the heap property below position i.
func (h worstHeap) siftDown(i int) {
	n := len(h)
	for {
		worst := i
		if l := 2*i + 1; l < n && rankedBetter(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && rankedBetter(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// UniformWeights returns the all-ones weight vector of length n (the MGP-U
// baseline uses it; by scale-invariance any positive constant is
// equivalent).
func UniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// NormalizeWeights scales w in place so its maximum entry is 1 (legal by
// the scale-invariance property of Theorem 1), clamping negatives to 0.
// A zero vector is left unchanged.
func NormalizeWeights(w []float64) {
	max := 0.0
	for i, v := range w {
		if v < 0 {
			w[i] = 0
		} else if v > max {
			max = v
		}
	}
	if max == 0 {
		return
	}
	for i := range w {
		w[i] /= max
	}
}

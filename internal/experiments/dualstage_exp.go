package experiments

import (
	"fmt"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dualstage"
	"repro/internal/eval"
)

// candidateSweep returns the |K| values for a dataset: either the
// configured sweep or quartiles of the non-seed metagraph count.
func (s *Suite) candidateSweep(name string) []int {
	if s.Cfg.CandidateSweep != nil {
		if sw, ok := s.Cfg.CandidateSweep[name]; ok {
			return sw
		}
	}
	p := s.Pipeline(name)
	nonSeeds := len(p.Ms) - len(core.Seeds(p.Ms))
	var sweep []int
	for _, frac := range []float64{0.1, 0.25, 0.5} {
		k := int(frac * float64(nonSeeds))
		if k > 0 {
			sweep = append(sweep, k)
		}
	}
	return sweep
}

// dualStagePoint measures accuracy and matching time for one dual-stage
// configuration of a class.
type dualStagePoint struct {
	K         int
	NDCG, MAP float64
	MatchSec  float64
}

// dualStageSweep evaluates seed-only (K=0), the |K| sweep, and
// all-metagraphs for one class, averaged over splits. Results are cached:
// Fig. 8 and Fig. 10 share the forward (CH) sweep.
func (s *Suite) dualStageSweep(name, class string, reverse bool) []dualStagePoint {
	key := fmt.Sprintf("%s/%s/%v", name, class, reverse)
	if pts, ok := s.sweeps[key]; ok {
		return pts
	}
	pts := s.dualStageSweepUncached(name, class, reverse)
	s.sweeps[key] = pts
	return pts
}

func (s *Suite) dualStageSweepUncached(name, class string, reverse bool) []dualStagePoint {
	p := s.Pipeline(name)
	labels := p.DS.Classes[class]
	splits := s.classSplits(p, class)
	seedIdx := core.Seeds(p.Ms)
	allIdx := make([]int, len(p.Ms))
	for i := range allIdx {
		allIdx[i] = i
	}

	ks := append([]int{0}, s.candidateSweep(name)...)
	ks = append(ks, len(p.Ms)-len(seedIdx)) // "all"
	points := make([]dualStagePoint, len(ks))
	for i, k := range ks {
		points[i].K = k
	}

	for si, split := range splits {
		examples := s.trainExamples(p, class, split, s.Cfg.TrainExamples, s.Cfg.Seed+int64(400+si))
		for pi, k := range ks {
			var kept []int
			var w []float64
			if k == len(p.Ms)-len(seedIdx) {
				// All metagraphs: ordinary training, full matching cost.
				model := core.Train(p.Index, examples, s.Cfg.Train)
				kept, w = allIdx, model.W
			} else {
				opts := dualstage.Options{
					NumCandidates: k,
					Reverse:       reverse,
					Train:         s.Cfg.Train,
				}
				res := dualstage.Run(p.Ms, matchFnFor(p), examples, opts)
				kept, w = res.Kept, res.Model.W
			}
			ranker := &baselines.MGPRanker{Label: "MGP", Ix: p.Index.Project(kept), W: w}
			got := eval.Evaluate(ranker, labels, split.Test, s.Cfg.TopK)
			points[pi].NDCG += got.NDCG / float64(len(splits))
			points[pi].MAP += got.MAP / float64(len(splits))
			points[pi].MatchSec = s.Pipeline(name).SubsetMatchTime(kept).Seconds()
		}
	}
	return points
}

// Fig8 reproduces Fig. 8: the relative increase in NDCG, MAP and matching
// time as |K| grows, scaled so seed-only is 0% and all-metagraphs is 100%.
func (s *Suite) Fig8() Report {
	rep := Report{
		Title:  "Fig. 8 — Impact of dual-stage training (percentage increase)",
		Header: []string{"dataset", "class", "|K|", "NDCG%", "MAP%", "Time%"},
	}
	for _, name := range s.DatasetNames() {
		p := s.Pipeline(name)
		for _, class := range classesOf(p) {
			pts := s.dualStageSweep(name, class, false)
			base, full := pts[0], pts[len(pts)-1]
			pct := func(v, lo, hi float64) string {
				if hi == lo {
					return "-"
				}
				return f1(100 * (v - lo) / (hi - lo))
			}
			for _, pt := range pts {
				label := fmt.Sprintf("%d", pt.K)
				if pt.K == full.K {
					label = "all"
				}
				rep.Rows = append(rep.Rows, []string{
					name, class, label,
					pct(pt.NDCG, base.NDCG, full.NDCG),
					pct(pt.MAP, base.MAP, full.MAP),
					pct(pt.MatchSec, base.MatchSec, full.MatchSec),
				})
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"accuracy should approach 100% at small |K| while time stays far below 100% (paper: −83% overall matching time)")
	return rep
}

// Fig10 reproduces Fig. 10: absolute NDCG/MAP of the candidate heuristic
// (CH) against its reverse (RCH) across the |K| sweep.
func (s *Suite) Fig10() Report {
	rep := Report{
		Title:  "Fig. 10 — Candidate heuristic (CH) vs reverse (RCH)",
		Header: []string{"dataset", "class", "|K|", "CH NDCG", "RCH NDCG", "CH MAP", "RCH MAP"},
	}
	for _, name := range s.DatasetNames() {
		p := s.Pipeline(name)
		for _, class := range classesOf(p) {
			ch := s.dualStageSweep(name, class, false)
			rch := s.dualStageSweep(name, class, true)
			// Skip the K=0 and "all" endpoints: CH and RCH coincide there.
			for i := 1; i < len(ch)-1; i++ {
				rep.Rows = append(rep.Rows, []string{
					name, class, fmt.Sprintf("%d", ch[i].K),
					f3(ch[i].NDCG), f3(rch[i].NDCG),
					f3(ch[i].MAP), f3(rch[i].MAP),
				})
			}
		}
	}
	rep.Notes = append(rep.Notes,
		"CH should dominate RCH at every |K| (paper Fig. 10)")
	return rep
}

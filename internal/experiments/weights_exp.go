package experiments

import (
	"fmt"
	"sort"

	"repro/internal/dualstage"
	"repro/internal/mcs"
)

// Fig4 reproduces Fig. 4: the optimal characteristic weights of every
// class, ranked in descending order — the long-tailed sparsity that
// motivates dual-stage training. Each row samples the ranked weight curve.
func (s *Suite) Fig4() Report {
	rep := Report{
		Title:  "Fig. 4 — Sparsity of optimal characteristic weights",
		Header: []string{"dataset", "class", "top1", "p25", "p50", "p75", "last", ">=0.5", "<0.1"},
	}
	for _, name := range s.DatasetNames() {
		p := s.Pipeline(name)
		for _, class := range classesOf(p) {
			w := append([]float64(nil), s.fullWeights(name, class)...)
			sort.Sort(sort.Reverse(sort.Float64Slice(w)))
			n := len(w)
			if n == 0 {
				continue
			}
			at := func(frac float64) float64 { return w[int(frac*float64(n-1))] }
			high, low := 0, 0
			for _, v := range w {
				if v >= 0.5 {
					high++
				}
				if v < 0.1 {
					low++
				}
			}
			rep.Rows = append(rep.Rows, []string{
				name, class,
				f3(w[0]), f3(at(0.25)), f3(at(0.5)), f3(at(0.75)), f3(w[n-1]),
				fmt.Sprintf("%d/%d", high, n),
				fmt.Sprintf("%d/%d", low, n),
			})
		}
	}
	rep.Notes = append(rep.Notes,
		"long tail expected: few large weights, many near zero (paper Fig. 4)")
	return rep
}

// Fig9 reproduces Fig. 9: correlation between pairwise structural
// similarity SS and functional similarity FS, with SS binned into five
// intervals and the mean FS reported per bin and class.
func (s *Suite) Fig9() Report {
	bins := []struct {
		lo, hi float64
		label  string
	}{
		{0.0, 0.2, "[0,0.2)"},
		{0.2, 0.4, "[0.2,0.4)"},
		{0.4, 0.6, "[0.4,0.6)"},
		{0.6, 0.8, "[0.6,0.8)"},
		{0.8, 1.0001, "[0.8,1]"},
	}
	rep := Report{
		Title:  "Fig. 9 — Correlation of structural and functional similarities",
		Header: []string{"dataset", "class"},
	}
	for _, b := range bins {
		rep.Header = append(rep.Header, b.label)
	}
	for _, name := range s.DatasetNames() {
		p := s.Pipeline(name)
		// Pairwise SS is class-independent; compute once per dataset.
		n := len(p.Ms)
		ss := make([][]float64, n)
		for i := 0; i < n; i++ {
			ss[i] = make([]float64, n)
			for j := i + 1; j < n; j++ {
				ss[i][j] = mcs.StructuralSimilarity(p.Ms[i], p.Ms[j])
			}
		}
		for _, class := range classesOf(p) {
			w := s.fullWeights(name, class)
			sums := make([]float64, len(bins))
			counts := make([]int, len(bins))
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					fs := dualstage.FunctionalSimilarity(w[i], w[j])
					for bi, b := range bins {
						if ss[i][j] >= b.lo && ss[i][j] < b.hi {
							sums[bi] += fs
							counts[bi]++
							break
						}
					}
				}
			}
			row := []string{name, class}
			for bi := range bins {
				if counts[bi] == 0 {
					row = append(row, "-")
				} else {
					row = append(row, f3(sums[bi]/float64(counts[bi])))
				}
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	rep.Notes = append(rep.Notes,
		"mean FS should rise with the SS bin (paper Fig. 9), supporting the candidate heuristic")
	return rep
}

package experiments

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/metagraph"
)

// Fig11 reproduces Fig. 11: average matching time per metagraph, grouped
// by metagraph size |V_M|, for SymISO, SymISO-R, BoostISO, TurboISO and
// QuickSI, each enumerating every assignment (Match). The last column
// times what the index and the miner run: SymISO's instance sets
// (match.InstanceSets), one witness per instance, with an interchangeable
// last group reported as one set. Engines are rebuilt per dataset (their
// per-graph precomputation is excluded from the timings, matching how the
// baselines' index build is treated in the paper).
func (s *Suite) Fig11() Report {
	rep := Report{
		Title:  "Fig. 11 — Average matching time per metagraph (ms)",
		Header: []string{"dataset", "|V_M|", "#mg", "SymISO", "SymISO-R", "BoostISO", "TurboISO", "QuickSI", "SymISO sets"},
	}
	for _, name := range s.DatasetNames() {
		p := s.Pipeline(name)
		g := p.DS.G
		symISO := match.NewSymISO(g)
		runs := []func(*metagraph.Metagraph){
			matchAll(symISO),
			matchAll(match.NewSymISOR(g, s.Cfg.Seed)),
			matchAll(NewBoostISO(g)),
			matchAll(NewTurboISO(g)),
			matchAll(NewQuickSI(g)),
			func(m *metagraph.Metagraph) { match.InstanceSets(symISO, m, func(match.Set) bool { return true }) },
		}
		bySize := make(map[int][]*metagraph.Metagraph)
		for _, m := range p.Ms {
			bySize[m.N()] = append(bySize[m.N()], m)
		}
		for size := 3; size <= 5; size++ {
			ms := bySize[size]
			if len(ms) == 0 {
				continue
			}
			// Cap the per-size sample to keep the figure affordable while
			// averaging over enough metagraphs to be stable.
			if len(ms) > 24 {
				ms = ms[:24]
			}
			row := []string{name, fmt.Sprintf("%d", size), fmt.Sprintf("%d", len(ms))}
			for _, run := range runs {
				var total time.Duration
				for _, m := range ms {
					t0 := time.Now()
					run(m)
					total += time.Since(t0)
				}
				row = append(row, fmt.Sprintf("%.2f", total.Seconds()*1000/float64(len(ms))))
			}
			rep.Rows = append(rep.Rows, row)
		}
	}
	rep.Notes = append(rep.Notes,
		"SymISO should beat every backtracking baseline, with a growing margin as |V_M| rises (paper: −52% vs best baseline, ~45% vs SymISO-R)",
		"SymISO sets enumerates each instance once, where the other columns enumerate its |Aut(M)| assignments")
	return rep
}

// matchAll enumerates every assignment of m with matcher.
func matchAll(matcher match.Matcher) func(*metagraph.Metagraph) {
	return func(m *metagraph.Metagraph) { matcher.Match(m, func([]graph.NodeID) bool { return true }) }
}

// All runs every experiment in paper order.
func (s *Suite) All() []Report {
	return []Report{
		s.Table2(),
		s.Fig4(),
		s.Fig6(),
		s.Fig7(),
		s.Table3(),
		s.Fig8(),
		s.Fig9(),
		s.Fig10(),
		s.Fig11(),
	}
}

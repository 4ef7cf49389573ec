package experiments

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mining"
)

// tinyConfig keeps the full suite affordable in unit tests.
func tinyConfig() Config {
	tr := core.DefaultTrain()
	tr.Restarts = 1
	tr.MaxIters = 60
	return Config{
		LinkedInUsers: 120,
		FacebookUsers: 100,
		Seed:          1,
		Splits:        1,
		ExampleSizes:  []int{10, 50},
		TrainExamples: 50,
		TopK:          10,
		Train:         tr,
		Mining:        mining.Options{MaxNodes: 4, MinSupport: 4},
	}
}

func TestPipelineArtifacts(t *testing.T) {
	s := NewSuite(tinyConfig())
	for _, name := range s.DatasetNames() {
		p := s.Pipeline(name)
		if len(p.Ms) == 0 {
			t.Fatalf("%s: no metagraphs mined", name)
		}
		if len(p.MatchTimes) != len(p.Ms) {
			t.Fatalf("%s: match time per metagraph missing", name)
		}
		if p.Index.NumMeta() != len(p.Ms) {
			t.Fatalf("%s: index size mismatch", name)
		}
		if p.Index.NumPairs() == 0 {
			t.Fatalf("%s: empty index", name)
		}
		// Pipeline is cached.
		if s.Pipeline(name) != p {
			t.Fatalf("%s: pipeline not cached", name)
		}
		// Subset cost of everything = total.
		all := make([]int, len(p.Ms))
		for i := range all {
			all[i] = i
		}
		if p.SubsetMatchTime(all) != p.MatchTime {
			t.Fatalf("%s: subset time inconsistent", name)
		}
	}
}

func TestTable2(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.Table2()
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	out := rep.String()
	for _, want := range []string{"LinkedIn", "Facebook", "#Metagraphs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.Fig4()
	if len(rep.Rows) != 4 {
		t.Fatalf("Fig4 rows = %d, want 4 (2 datasets × 2 classes)", len(rep.Rows))
	}
}

func TestFig6AndFig7(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep6 := s.Fig6()
	rep7 := s.Fig7()
	// 2 datasets × 2 classes × 5 algorithms.
	if len(rep6.Rows) != 20 || len(rep7.Rows) != 20 {
		t.Fatalf("rows = %d / %d, want 20", len(rep6.Rows), len(rep7.Rows))
	}
	// The accuracy sweep is computed once and cached.
	if len(s.accuracy) != 2 {
		t.Fatalf("accuracy cache has %d entries", len(s.accuracy))
	}
}

func TestTable3(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.Table3()
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
}

func TestFig8(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.Fig8()
	if len(rep.Rows) == 0 {
		t.Fatal("Fig8 empty")
	}
	// Endpoints must be 0% and 100% when the denominators are non-trivial.
	for _, row := range rep.Rows {
		if row[2] == "all" && row[5] != "-" && row[5] != "100.0" {
			t.Fatalf("all-row time%% = %s", row[5])
		}
	}
}

func TestFig9(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.Fig9()
	if len(rep.Rows) != 4 {
		t.Fatalf("Fig9 rows = %d", len(rep.Rows))
	}
}

func TestFig10(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.Fig10()
	if len(rep.Rows) == 0 {
		t.Fatal("Fig10 empty")
	}
	if len(rep.Header) != 7 {
		t.Fatalf("Fig10 header = %v", rep.Header)
	}
}

func TestFig11(t *testing.T) {
	s := NewSuite(tinyConfig())
	rep := s.Fig11()
	if len(rep.Rows) == 0 {
		t.Fatal("Fig11 empty")
	}
	// Every row carries five engines' Match timings and SymISO's sets.
	if h := rep.Header; len(h) != 9 || h[3] != "SymISO" || h[8] != "SymISO sets" {
		t.Fatalf("Fig11 header = %v", h)
	}
	for _, row := range rep.Rows {
		if len(row) != 9 {
			t.Fatalf("Fig11 row = %v", row)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := Report{
		Title:  "t",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"n"},
	}
	out := rep.String()
	for _, want := range []string{"== t ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestCandidateSweepConfigured(t *testing.T) {
	cfg := tinyConfig()
	cfg.CandidateSweep = map[string][]int{"LinkedIn": {1, 2}}
	s := NewSuite(cfg)
	got := s.candidateSweep("LinkedIn")
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("sweep = %v", got)
	}
}

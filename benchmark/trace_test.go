package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimesOnAHandBuiltTree(t *testing.T) {
	// op 1: client(100) > server(60) > engine(45) > {rank(30), resolve(5)}
	// op 2: a lone root, and a child that out-ran its parent.
	spans := []span{
		{Op: 1, ID: 1, Parent: 0, Name: "client", Start: 0, End: 100},
		{Op: 1, ID: 2, Parent: 1, Name: "server", Start: 100, End: 160},
		{Op: 1, ID: 3, Parent: 2, Name: "engine", Start: 160, End: 205},
		{Op: 1, ID: 4, Parent: 3, Name: "rank", Start: 205, End: 235},
		{Op: 1, ID: 5, Parent: 3, Name: "resolve", Start: 235, End: 240},
		{Op: 2, ID: 6, Parent: 0, Name: "client", Start: 300, End: 320},
		{Op: 2, ID: 7, Parent: 6, Name: "server", Start: 320, End: 350},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 40, 2: 15, 3: 10, 4: 30, 5: 5, 6: -10, 7: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	// Self times of one op's chain sum to its root's duration.
	var sum int64
	for id := 1; id <= 5; id++ {
		sum += self[id]
	}
	if sum != 100 {
		t.Errorf("op 1 self times sum to %d, want the root's 100", sum)
	}
	own := func(s span) int64 { return self[s.ID] }
	if got := spanQuantile(spans, "client", "", 0.5, own); got != -10 {
		t.Errorf("median client self = %v, want -10 (nearest rank of {-10, 40})", got)
	}
	if got := spanQuantile(spans, "absent", "", 0.5, own); got != 0 {
		t.Errorf("quantile over no spans = %v, want 0", got)
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	tr := newTracer()
	root := tr.begin(9, 0, "outer", "query")
	child := tr.begin(9, root, "inner", "query")
	tr.end(child)
	tr.end(root)
	if root != 1 || child != 2 {
		t.Fatalf("ids %d, %d; want 1, 2", root, child)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts", s.ID)
		}
	}
	if tr.overheadNS() <= 0 {
		t.Error("an empty span costs nothing?")
	}
	if len(tr.spans) != 2 {
		t.Errorf("measuring overhead left %d spans in the trace, want 2", len(tr.spans))
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[1].Parent != 1 || got[1].Op != 9 || got[1].Name != "inner" {
		t.Errorf("round trip lost the spans: %+v", got)
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	semprox "repro"
	"repro/api"
	"repro/internal/fixtures"
	"repro/internal/mining"
)

// trainedServer builds a server over the paper's toy graph with the
// "classmate" class trained.
func trainedServer(t testing.TB) (*Server, *semprox.Engine, *semprox.Graph) {
	t.Helper()
	g := fixtures.Toy()
	opts := semprox.DefaultOptions()
	opts.Mining = mining.Options{MaxNodes: 4, MinSupport: 1}
	opts.Train.Restarts = 2
	opts.Train.MaxIters = 200
	eng, err := semprox.NewEngine(g, "user", opts)
	if err != nil {
		t.Fatal(err)
	}
	eng.Train("classmate", classmateExamples(g))
	return New(eng), eng, g
}

func classmateExamples(g *semprox.Graph) []semprox.Example {
	return []semprox.Example{
		{Q: g.NodeByName("Kate"), X: g.NodeByName("Jay"), Y: g.NodeByName("Alice")},
		{Q: g.NodeByName("Bob"), X: g.NodeByName("Tom"), Y: g.NodeByName("Alice")},
	}
}

// do runs one request through the handler and returns the recorder.
func do(t testing.TB, s *Server, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// wantErr asserts a structured error response with the given status and
// code.
func wantErr(t *testing.T, rec *httptest.ResponseRecorder, status int, code string) {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status = %d (%s), want %d", rec.Code, rec.Body.String(), status)
	}
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, rec.Body.String())
	}
	if body.Error.Code != code {
		t.Fatalf("error code = %q (%s), want %q", body.Error.Code, body.Error.Message, code)
	}
	if body.Error.Message == "" {
		t.Fatal("error without message")
	}
}

func TestHealthz(t *testing.T) {
	s, eng, g := trainedServer(t)
	rec := do(t, s, http.MethodGet, api.PathHealthz, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body api.HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" || body.Nodes != g.NumNodes() ||
		body.Metagraphs != eng.NumMetagraphs() ||
		len(body.Classes) != 1 || body.Classes[0] != "classmate" {
		t.Fatalf("healthz = %+v", body)
	}
}

func TestClasses(t *testing.T) {
	s, _, _ := trainedServer(t)
	rec := do(t, s, http.MethodGet, api.PathClasses, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var body struct {
		Classes []string `json:"classes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Classes) != 1 || body.Classes[0] != "classmate" {
		t.Fatalf("classes = %v", body.Classes)
	}
}

// TestQuerySingleMatchesEngine pins that the HTTP ranking is exactly the
// engine's ranking, for both GET and POST forms.
func TestQuerySingleMatchesEngine(t *testing.T) {
	s, eng, g := trainedServer(t)
	want, err := eng.Query("classmate", g.NodeByName("Kate"), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*httptest.ResponseRecorder{
		do(t, s, http.MethodGet, api.PathQuery+"?class=classmate&query=Kate&k=5", ""),
		do(t, s, http.MethodPost, api.PathQuery, `{"class":"classmate","query":"Kate","k":5}`),
	} {
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d (%s)", rec.Code, rec.Body.String())
		}
		var body api.QueryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if len(body.Results) != 1 || body.Results[0].Query != "Kate" {
			t.Fatalf("results = %+v", body.Results)
		}
		got := body.Results[0].Results
		if len(got) != len(want) {
			t.Fatalf("%d results, want %d", len(got), len(want))
		}
		for i, r := range got {
			if semprox.NodeID(r.Node) != want[i].Node || r.Score != want[i].Score ||
				r.Name != g.Name(want[i].Node) {
				t.Fatalf("result[%d] = %+v, want %+v (%s)", i, r, want[i], g.Name(want[i].Node))
			}
		}
	}
}

// TestQueryGetEqualsPost: a GET query reads class, query and k from its one
// parse of the URL and answers the very body the equivalent POST does, for
// every k a client may send, the default included.
func TestQueryGetEqualsPost(t *testing.T) {
	s, _, _ := trainedServer(t)
	for _, k := range []string{"", "1", "3", "10"} {
		target, body := api.PathQuery+"?class=classmate&query=Kate", `{"class":"classmate","query":"Kate"}`
		if k != "" {
			target, body = target+"&k="+k, `{"class":"classmate","query":"Kate","k":`+k+`}`
		}
		get, post := do(t, s, http.MethodGet, target, ""), do(t, s, http.MethodPost, api.PathQuery, body)
		if get.Code != http.StatusOK || post.Code != http.StatusOK {
			t.Fatalf("k=%q: GET status %d (%s), POST status %d (%s)", k, get.Code, get.Body, post.Code, post.Body)
		}
		if !bytes.Equal(get.Body.Bytes(), post.Body.Bytes()) {
			t.Fatalf("k=%q: GET answered %s, POST %s", k, get.Body, post.Body)
		}
	}
}

// TestQueryBatchMatchesEngine pins the batched form against QueryBatch.
func TestQueryBatchMatchesEngine(t *testing.T) {
	s, eng, g := trainedServer(t)
	names := []string{"Kate", "Bob", "Alice", "Jay"}
	qs := make([]semprox.NodeID, len(names))
	for i, n := range names {
		qs[i] = g.NodeByName(n)
	}
	want, err := eng.QueryBatch("classmate", qs, 3)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(api.QueryRequest{Class: "classmate", Queries: names, K: 3})
	rec := do(t, s, http.MethodPost, api.PathQuery, string(req))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body.String())
	}
	var body api.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Results) != len(names) {
		t.Fatalf("%d rankings, want %d", len(body.Results), len(names))
	}
	for i, qr := range body.Results {
		if qr.Query != names[i] || len(qr.Results) != len(want[i]) {
			t.Fatalf("ranking[%d] = %+v, want %d results for %s", i, qr, len(want[i]), names[i])
		}
		for j, r := range qr.Results {
			if semprox.NodeID(r.Node) != want[i][j].Node || r.Score != want[i][j].Score {
				t.Fatalf("ranking[%d][%d] = %+v, want %+v", i, j, r, want[i][j])
			}
		}
	}
}

func TestQueryClientErrors(t *testing.T) {
	s, _, _ := trainedServer(t)
	cases := []struct {
		name   string
		method string
		target string
		body   string
		status int
		code   string
	}{
		{"bad class", http.MethodGet, api.PathQuery + "?class=nope&query=Kate", "", http.StatusNotFound, "class_not_found"},
		{"bad node", http.MethodGet, api.PathQuery + "?class=classmate&query=Nobody", "", http.StatusNotFound, "node_not_found"},
		{"bad node in batch", http.MethodPost, api.PathQuery, `{"class":"classmate","queries":["Kate","Nobody"]}`, http.StatusNotFound, "node_not_found"},
		{"empty name in batch", http.MethodPost, api.PathQuery, `{"class":"classmate","queries":["Kate",""]}`, http.StatusBadRequest, "bad_request"},
		{"malformed JSON", http.MethodPost, api.PathQuery, `{"class":"classmate",`, http.StatusBadRequest, "bad_request"},
		{"unknown field", http.MethodPost, api.PathQuery, `{"class":"classmate","query":"Kate","frobnicate":1}`, http.StatusBadRequest, "bad_request"},
		{"trailing garbage", http.MethodPost, api.PathQuery, `{"class":"classmate","query":"Kate"} extra`, http.StatusBadRequest, "bad_request"},
		{"missing class", http.MethodPost, api.PathQuery, `{"query":"Kate"}`, http.StatusBadRequest, "bad_request"},
		{"missing query", http.MethodPost, api.PathQuery, `{"class":"classmate"}`, http.StatusBadRequest, "bad_request"},
		{"both forms", http.MethodPost, api.PathQuery, `{"class":"classmate","query":"Kate","queries":["Bob"]}`, http.StatusBadRequest, "bad_request"},
		{"bad k", http.MethodGet, api.PathQuery + "?class=classmate&query=Kate&k=ten", "", http.StatusBadRequest, "bad_request"},
		{"negative k", http.MethodGet, api.PathQuery + "?class=classmate&query=Kate&k=-1", "", http.StatusBadRequest, "bad_request"},
		{"negative k post", http.MethodPost, api.PathQuery, `{"class":"classmate","query":"Kate","k":-5}`, http.StatusBadRequest, "bad_request"},
		{"bad method", http.MethodDelete, api.PathQuery, "", http.StatusMethodNotAllowed, "method_not_allowed"},
		{"bad method healthz", http.MethodPost, api.PathHealthz, `{}`, http.StatusMethodNotAllowed, "method_not_allowed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantErr(t, do(t, s, tc.method, tc.target, tc.body), tc.status, tc.code)
		})
	}
}

func TestQueryBatchTooLarge(t *testing.T) {
	s, _, _ := trainedServer(t)
	big := api.QueryRequest{Class: "classmate", Queries: make([]string, MaxBatch+1)}
	for i := range big.Queries {
		big.Queries[i] = "Kate"
	}
	req, _ := json.Marshal(big)
	wantErr(t, do(t, s, http.MethodPost, api.PathQuery, string(req)), http.StatusBadRequest, "bad_request")
}

func TestProximity(t *testing.T) {
	s, eng, g := trainedServer(t)
	want, err := eng.Proximity("classmate", g.NodeByName("Kate"), g.NodeByName("Jay"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*httptest.ResponseRecorder{
		do(t, s, http.MethodGet, api.PathProximity+"?class=classmate&x=Kate&y=Jay", ""),
		do(t, s, http.MethodPost, api.PathProximity, `{"class":"classmate","x":"Kate","y":"Jay"}`),
	} {
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d (%s)", rec.Code, rec.Body.String())
		}
		var body struct {
			Proximity float64 `json:"proximity"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.Proximity != want {
			t.Fatalf("proximity = %v, want %v", body.Proximity, want)
		}
	}
	wantErr(t, do(t, s, http.MethodGet, api.PathProximity+"?class=classmate&x=Kate", ""),
		http.StatusBadRequest, "bad_request")
	wantErr(t, do(t, s, http.MethodGet, api.PathProximity+"?class=classmate&x=Kate&y=Nobody", ""),
		http.StatusNotFound, "node_not_found")
}

// TestConcurrentQueryDuringTrain is the -race hammer: many goroutines
// drive /query (single and batched) and /healthz while a NEW class trains
// on the same engine, pinning the engine's documented online thread-safety
// through the HTTP layer.
func TestConcurrentQueryDuringTrain(t *testing.T) {
	s, eng, g := trainedServer(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		eng.Train("family", []semprox.Example{
			{Q: g.NodeByName("Alice"), X: g.NodeByName("Bob"), Y: g.NodeByName("Tom")},
		})
	}()
	names := []string{"Kate", "Bob", "Alice", "Jay", "Tom"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := names[(w+i)%len(names)]
				if rec := do(t, s, http.MethodGet, api.PathQuery+"?class=classmate&query="+name, ""); rec.Code != http.StatusOK {
					t.Errorf("query %s: status %d", name, rec.Code)
					return
				}
				body := fmt.Sprintf(`{"class":"classmate","queries":["%s","Kate"],"k":3}`, name)
				if rec := do(t, s, http.MethodPost, api.PathQuery, body); rec.Code != http.StatusOK {
					t.Errorf("batch %s: status %d", name, rec.Code)
					return
				}
				if rec := do(t, s, http.MethodGet, api.PathHealthz, ""); rec.Code != http.StatusOK {
					t.Errorf("healthz: status %d", rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	<-done
	rec := do(t, s, http.MethodGet, api.PathQuery+"?class=family&query=Alice", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("family query after train: %d (%s)", rec.Code, rec.Body.String())
	}
}

// TestSnapshotServesIdentically is the serving half of the snapshot
// acceptance criterion: a server over a saved+loaded engine returns
// byte-identical /query responses to a server over the engine that wrote
// the snapshot.
func TestSnapshotServesIdentically(t *testing.T) {
	s1, eng, _ := trainedServer(t)
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := semprox.LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(loaded)
	targets := []string{
		api.PathQuery + "?class=classmate&query=Kate&k=5",
		api.PathQuery + "?class=classmate&query=Bob",
		api.PathProximity + "?class=classmate&x=Kate&y=Jay",
		api.PathClasses,
		api.PathHealthz,
	}
	for _, target := range targets {
		r1 := do(t, s1, http.MethodGet, target, "")
		r2 := do(t, s2, http.MethodGet, target, "")
		if r1.Code != http.StatusOK || r2.Code != r1.Code {
			t.Fatalf("%s: status %d vs %d", target, r1.Code, r2.Code)
		}
		if !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
			t.Fatalf("%s drifted after snapshot:\n%s\nvs\n%s", target, r1.Body.String(), r2.Body.String())
		}
	}
	batch := `{"class":"classmate","queries":["Kate","Bob","Alice"],"k":4}`
	r1 := do(t, s1, http.MethodPost, api.PathQuery, batch)
	r2 := do(t, s2, http.MethodPost, api.PathQuery, batch)
	if r1.Code != http.StatusOK || !bytes.Equal(r1.Body.Bytes(), r2.Body.Bytes()) {
		t.Fatalf("batched /query drifted after snapshot:\n%s\nvs\n%s", r1.Body.String(), r2.Body.String())
	}
}

// decodeUpdate parses an /update 200 body.
func decodeUpdate(t *testing.T, rec *httptest.ResponseRecorder) api.UpdateResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d (%s)", rec.Code, rec.Body.String())
	}
	var out api.UpdateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestUpdateAddsAndServes(t *testing.T) {
	s, eng, g := trainedServer(t)
	body := `{"nodes":[{"type":"user","name":"Zoe"},{"type":"school","name":"College Z"}],
	          "edges":[{"u":"Zoe","v":"College Z"},{"u":"Kate","v":"College Z"},{"u":"Zoe","v":"College A"}]}`
	out := decodeUpdate(t, do(t, s, http.MethodPost, api.PathUpdate, body))
	if out.Epoch != 1 || out.NodesAdded != 2 || out.EdgesAdded != 3 {
		t.Fatalf("update response = %+v", out)
	}
	if out.Rematched == 0 {
		t.Fatalf("expected re-matching, got %+v", out)
	}
	if g.NodeByName("Zoe") != semprox.InvalidNode {
		t.Fatal("pre-update graph snapshot mutated")
	}
	if eng.Graph().NodeByName("Zoe") == semprox.InvalidNode {
		t.Fatal("new node not served")
	}
	// The new user is queryable: Zoe and Kate now share College Z with
	// College A linking Zoe into Kate's old neighborhood.
	rec := do(t, s, http.MethodGet, api.PathQuery+"?class=classmate&query=Zoe&k=5", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("query after update: %d (%s)", rec.Code, rec.Body.String())
	}
	var res api.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || len(res.Results[0].Results) == 0 {
		t.Fatalf("Zoe has no ranked neighbors after update: %s", rec.Body.String())
	}
}

func TestUpdateValidation(t *testing.T) {
	s, _, _ := trainedServer(t)
	wantErr(t, do(t, s, http.MethodPost, api.PathUpdate, `{}`), http.StatusBadRequest, "bad_request")
	wantErr(t, do(t, s, http.MethodPost, api.PathUpdate,
		`{"nodes":[{"type":"starship","name":"x"}]}`), http.StatusBadRequest, "bad_request")
	wantErr(t, do(t, s, http.MethodPost, api.PathUpdate,
		`{"nodes":[{"type":"user"}]}`), http.StatusBadRequest, "bad_request")
	wantErr(t, do(t, s, http.MethodPost, api.PathUpdate,
		`{"edges":[{"u":"Kate","v":"Nobody Known"}]}`), http.StatusNotFound, "node_not_found")
	wantErr(t, do(t, s, http.MethodPost, api.PathUpdate,
		`{"edges":[{"u":"Kate"}]}`), http.StatusBadRequest, "bad_request")
	wantErr(t, do(t, s, http.MethodGet, api.PathUpdate, ""), http.StatusMethodNotAllowed, "method_not_allowed")
	// Oversized batches are rejected before any resolution work.
	var sb strings.Builder
	sb.WriteString(`{"edges":[`)
	for i := 0; i <= MaxUpdate; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{"u":"Kate","v":"Jay"}`)
	}
	sb.WriteString(`]}`)
	wantErr(t, do(t, s, http.MethodPost, api.PathUpdate, sb.String()), http.StatusBadRequest, "bad_request")
	// Nothing above may have advanced the epoch.
	var st api.StatsResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, api.PathStats, "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 0 {
		t.Fatalf("rejected updates advanced the epoch to %d", st.Epoch)
	}
}

func TestStats(t *testing.T) {
	s, eng, g := trainedServer(t)
	rec := do(t, s, http.MethodGet, api.PathStats, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var st api.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 0 || st.Nodes != g.NumNodes() || st.Edges != g.NumEdges() ||
		st.Metagraphs != eng.NumMetagraphs() || st.Matched != eng.MatchedCount() ||
		st.PendingCompaction != 0 || len(st.Classes) != 1 || st.Classes[0] != "classmate" {
		t.Fatalf("stats = %+v", st)
	}
	// Applied on the engine directly, the update is published complete:
	// /v1/stats sees it at once, with 0 pending compactions.
	n := semprox.NodeID(g.NumNodes())
	if _, err := eng.ApplyUpdate(semprox.Delta{
		Nodes: []semprox.DeltaNode{{Type: "hobby", Value: "chess"}},
		Edges: []semprox.Edge{{U: g.NodeByName("Kate"), V: n}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(do(t, s, http.MethodGet, api.PathStats, "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Nodes != g.NumNodes()+1 || st.Edges != g.NumEdges()+1 || st.PendingCompaction != 0 {
		t.Fatalf("stats after update = %+v", st)
	}
	wantErr(t, do(t, s, http.MethodPost, api.PathStats, "{}"), http.StatusMethodNotAllowed, "method_not_allowed")
}

// TestUpdateAutoCompacts: an update through the server leaves nothing to
// fold. Its response and the next /v1/stats read 0 pending compactions, and
// the very next query, with no wait, is served at the new epoch.
func TestUpdateAutoCompacts(t *testing.T) {
	s, _, g := trainedServer(t)
	out := decodeUpdate(t, do(t, s, http.MethodPost, api.PathUpdate,
		`{"nodes":[{"type":"hobby","name":"chess"}],"edges":[{"u":"Kate","v":"chess"}]}`))
	if out.Epoch != 1 || out.PendingCompaction != 0 {
		t.Fatalf("update response = %+v", out)
	}
	var st api.StatsResponse
	if err := json.Unmarshal(do(t, s, http.MethodGet, api.PathStats, "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 1 || st.Nodes != g.NumNodes()+1 || st.Edges != g.NumEdges()+1 || st.PendingCompaction != 0 {
		t.Fatalf("stats after update = %+v", st)
	}
	if rec := do(t, s, http.MethodGet, api.PathQuery+"?class=classmate&query=Kate&k=5", ""); rec.Code != http.StatusOK || rec.Header().Get(api.HeaderEpoch) != "1" {
		t.Fatalf("query after update: %d at epoch %q", rec.Code, rec.Header().Get(api.HeaderEpoch))
	}
}

// TestUpdateWhileQuerying floods queries while updates stream in; every
// response must be well-formed and the server must end at the expected
// epoch. With -race this exercises the epoch swap under real HTTP load.
func TestUpdateWhileQuerying(t *testing.T) {
	s, eng, _ := trainedServer(t)
	const updates = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := do(t, s, http.MethodGet, api.PathQuery+"?class=classmate&query=Kate&k=5", "")
				if rec.Code != http.StatusOK {
					t.Errorf("query during update: %d (%s)", rec.Code, rec.Body.String())
					return
				}
				if rec := do(t, s, http.MethodGet, api.PathStats, ""); rec.Code != http.StatusOK {
					t.Errorf("stats during update: %d", rec.Code)
					return
				}
			}
		}()
	}
	for i := 0; i < updates; i++ {
		body := fmt.Sprintf(`{"nodes":[{"type":"user","name":"live-%d"}],"edges":[{"u":"live-%d","v":"College A"}]}`, i, i)
		decodeUpdate(t, do(t, s, http.MethodPost, api.PathUpdate, body))
	}
	close(stop)
	wg.Wait()
	if got := eng.Epoch(); got != updates {
		t.Fatalf("epoch = %d, want %d", got, updates)
	}
}

// TestConcurrentUpdatesDoNotCrossWire is the regression test for the
// id-prediction race: two /update handlers that resolved names off the
// same epoch used to predict the same fresh node ids and silently wire
// one request's edges into the other's node. Handlers now serialize, so
// every concurrently added node must end up with exactly its own edges.
func TestConcurrentUpdatesDoNotCrossWire(t *testing.T) {
	s, eng, g := trainedServer(t)
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(
				`{"nodes":[{"type":"user","name":"cc-%d"}],"edges":[{"u":"cc-%d","v":"College A"},{"u":"cc-%d","v":"Alice"}]}`,
				i, i, i)
			if rec := do(t, s, http.MethodPost, api.PathUpdate, body); rec.Code != http.StatusOK {
				t.Errorf("update %d: %d (%s)", i, rec.Code, rec.Body.String())
			}
		}(i)
	}
	wg.Wait()
	ng := eng.Graph()
	if got := ng.NumNodes(); got != g.NumNodes()+n {
		t.Fatalf("nodes = %d, want %d", got, g.NumNodes()+n)
	}
	if got := ng.NumEdges(); got != g.NumEdges()+2*n {
		t.Fatalf("edges = %d, want %d", got, g.NumEdges()+2*n)
	}
	college, alice := ng.NodeByName("College A"), ng.NodeByName("Alice")
	for i := 0; i < n; i++ {
		v := ng.NodeByName(fmt.Sprintf("cc-%d", i))
		if v == semprox.InvalidNode {
			t.Fatalf("cc-%d missing", i)
		}
		if ng.Degree(v) != 2 || !ng.HasEdge(v, college) || !ng.HasEdge(v, alice) {
			t.Fatalf("cc-%d has wrong edges (degree %d)", i, ng.Degree(v))
		}
	}
	if eng.Epoch() != n {
		t.Fatalf("epoch = %d, want %d", eng.Epoch(), n)
	}
}

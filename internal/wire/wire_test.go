package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/api"
)

// stdBody is what the helpers replaced: json.Encoder's rendering, HTML
// escaping on, one trailing newline.
func stdBody(t *testing.T, v any) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestWriteJSONIsCompactEncoderOutputWithLength(t *testing.T) {
	query := &api.QueryResponse{Class: "c<d>", K: 2, Results: []api.QueryResult{
		{Query: "q", Results: []api.RankedResult{{Node: 1, Name: "n&m", Score: 1e-7}, {Node: 2, Name: "é", Score: 0.5}}}}}
	for name, v := range map[string]any{
		"codec":   query,
		"stdlib":  api.StatsResponse{Epoch: 3, Classes: []string{"a"}},
		"byValue": *query, // misses the codec, must not miss the format
	} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusAccepted, v)
		want := stdBody(t, v)
		if rec.Code != http.StatusAccepted || rec.Body.String() != want {
			t.Errorf("%s: %d %q, want 202 %q", name, rec.Code, rec.Body, want)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(want)) {
			t.Errorf("%s: Content-Length %q, want %d", name, got, len(want))
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("%s: Content-Type %q", name, got)
		}
	}
}

// TestWriteJSONUnencodableValueIsA500: the status used to be committed
// before the body existed, so a NaN score was a 200 with an empty body.
func TestWriteJSONUnencodableValueIsA500(t *testing.T) {
	for name, v := range map[string]any{
		"codec":  &api.QueryResponse{Results: []api.QueryResult{{Results: []api.RankedResult{{Score: math.NaN()}}}}},
		"stdlib": api.ProximityResponse{Proximity: math.Inf(1)},
	} {
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, v)
		var env api.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s: body %q: %v", name, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || env.Error.Code != api.CodeInternal ||
			!strings.Contains(env.Error.Message, "encoding response") {
			t.Errorf("%s: %d %+v, want the 500 internal envelope", name, rec.Code, env.Error)
		}
	}
}

func TestWriteErrAndMethodCheck(t *testing.T) {
	rec := httptest.NewRecorder()
	if MethodCheck(rec, httptest.NewRequest(http.MethodGet, "/v1/query", nil), http.MethodGet, http.MethodPost) {
		if rec.Body.Len() != 0 {
			t.Fatal("an allowed method wrote a body")
		}
	} else {
		t.Fatal("GET refused")
	}
	rec = httptest.NewRecorder()
	if MethodCheck(rec, httptest.NewRequest(http.MethodDelete, api.PathUpdate, nil), http.MethodPost) {
		t.Fatal("DELETE allowed")
	}
	want := stdBody(t, api.ErrorEnvelope{Error: api.Error{Code: api.CodeMethodNotAllowed,
		Message: "method DELETE not allowed on /v1/update"}})
	if rec.Code != http.StatusMethodNotAllowed || rec.Body.String() != want || rec.Header().Get("Allow") != "POST" {
		t.Fatalf("%d %q Allow=%q, want 405 %q", rec.Code, rec.Body, rec.Header().Get("Allow"), want)
	}
}

func decode(body io.Reader, v any) *api.Error {
	return DecodeStrict(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/query", body), v)
}

// TestDecodeStrictFastPathAgreesWithStdlib: a canonical body decodes to
// what encoding/json makes of it, and the rejections keep their messages.
func TestDecodeStrictFastPathAgreesWithStdlib(t *testing.T) {
	for _, body := range []string{
		`{"class":"college","query":"user-1","k":10}`,
		`{"class":"college","queries":["a","b","c"],"k":3}` + "\n",
		`{"class":"college","queries":[]}`,
		`{"class":"college"}`,
		`{ "k": 2, "class": "café", "query": "x" }`, // falls back
	} {
		var got, want api.QueryRequest
		if herr := decode(strings.NewReader(body), &got); herr != nil {
			t.Fatalf("%s: %v", body, herr)
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		if got.Class != want.Class || got.Query != want.Query || got.K != want.K ||
			strings.Join(got.Queries, "\x00") != strings.Join(want.Queries, "\x00") {
			t.Errorf("%s: decoded %+v, encoding/json %+v", body, got, want)
		}
	}
	var prox api.ProximityRequest
	if herr := decode(strings.NewReader(`{"class":"c","x":"a","y":"b"}`), &prox); herr != nil ||
		prox != (api.ProximityRequest{Class: "c", X: "a", Y: "b"}) {
		t.Fatalf("proximity: %+v, %v", prox, herr)
	}

	for body, want := range map[string]string{
		`{"class":"c","query":"q"} extra`:        "trailing data after JSON body",
		`{"class":"c","query":"q"}{}`:            "trailing data after JSON body",
		`{"class":"c","bogus":1}`:                `malformed JSON: json: unknown field "bogus"`,
		`{"class":"c","k":"ten"}`:                "malformed JSON: json: cannot unmarshal string into Go struct field QueryRequest.k of type int",
		`{"class":"c","query":`:                  "malformed JSON: unexpected EOF",
		``:                                       "malformed JSON: EOF",
		`{"class":"c","k":99999999999999999999}`: "malformed JSON: json: cannot unmarshal number 99999999999999999999 into Go struct field QueryRequest.k of type int",
	} {
		herr := decode(strings.NewReader(body), new(api.QueryRequest))
		if herr == nil || herr.Status != http.StatusBadRequest || herr.Code != api.CodeBadRequest || herr.Message != want {
			t.Errorf("%q: %+v, want 400 %q", body, herr, want)
		}
	}

	big := `{"class":"` + strings.Repeat("x", api.MaxBodyBytes) + `"}`
	if herr := decode(strings.NewReader(big), new(api.QueryRequest)); herr == nil ||
		herr.Message != "request body exceeds "+strconv.Itoa(api.MaxBodyBytes)+" bytes" {
		t.Errorf("oversized body: %+v", herr)
	}
	if herr := decode(iotest.ErrReader(errors.New("connection reset")), new(api.QueryRequest)); herr == nil ||
		herr.Message != "malformed JSON: connection reset" {
		t.Errorf("failed read: %+v", herr)
	}
}

func TestReadAllAndPool(t *testing.T) {
	src := strings.Repeat("0123456789", 1000)
	got, err := ReadAll([]byte("head:"), iotest.OneByteReader(strings.NewReader(src)), math.MaxInt64)
	if err != nil || string(got) != "head:"+src {
		t.Fatalf("ReadAll: %d bytes, %v", len(got), err)
	}
	if got, _ = ReadAll(nil, strings.NewReader(src), 7); string(got) != src[:7] {
		t.Fatalf("limit 7 read %q", got)
	}
	if _, err = ReadAll(nil, iotest.TimeoutReader(strings.NewReader(src)), math.MaxInt64); err == nil {
		t.Fatal("read error swallowed")
	}

	bp := GetBuf()
	*bp = append(*bp, src...)
	PutBuf(bp)
	if again := GetBuf(); len(*again) != 0 {
		t.Fatal("pooled buffer not reset")
	}
	huge := make([]byte, 0, maxPooled+1)
	PutBuf(&huge) // dropped, not pooled: must not panic
}

func TestValidBaseURL(t *testing.T) {
	for _, ok := range []string{"http://127.0.0.1:8080", "https://primary.internal"} {
		if err := ValidBaseURL(ok); err != nil {
			t.Fatalf("%s rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "127.0.0.1:8080", "ftp://x", "http://", "http://a b"} {
		if err := ValidBaseURL(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}

	got, err := BaseURLs(" http://a:1, ,https://b ,")
	if err != nil || strings.Join(got, "|") != "http://a:1|https://b" {
		t.Fatalf("BaseURLs = %q, %v", got, err)
	}
	if got, err := BaseURLs(""); err != nil || got != nil {
		t.Fatalf("BaseURLs(\"\") = %q, %v", got, err)
	}
	if _, err := BaseURLs("http://a:1,ftp://x"); err == nil || !strings.Contains(err.Error(), "ftp://x") {
		t.Fatalf("a bad element: %v", err)
	}
}

// TestPathLabelIsBounded: every mounted path and /metrics label as
// themselves; whatever else a client sends collapses into one series.
func TestPathLabelIsBounded(t *testing.T) {
	for _, p := range append(api.Paths(), MetricsPath) {
		if got := PathLabel(p); got != p {
			t.Errorf("PathLabel(%q) = %q", p, got)
		}
	}
	for _, p := range []string{"", "/", "/query", api.PathQuery + "/", "/v1/../etc/passwd"} {
		if got := PathLabel(p); got != "other" {
			t.Errorf("PathLabel(%q) = %q, want other", p, got)
		}
	}
}

package api_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/api"
)

// codecStrings covers every branch of the string encoder: plain ASCII,
// each short escape, a \u00XX control byte, the HTML-unsafe trio, DEL,
// multi-byte UTF-8, the two JSONP separators and invalid UTF-8.
var codecStrings = []string{
	"", "user-17", "Kate", "a b", `q"uo\te`, "tab\there", "nl\ncr\r", "\b\f", "\x01\x1f",
	"<script>&amp;</script>", "\x7f", "héllo wörld", "日本語", "line\u2028sep\u2029", "bad\xffutf8\xc3",
	`{"query":`, `{"node":1}`, "]}", "null",
}

// codecScores are the float cases ISSUE 17 names: both zeros, a
// subnormal, both 'e'-form cut-offs from each side, and the extremes.
var codecScores = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 0.30000000000000004, 5e-324, 2.2250738585072014e-308,
	1e-7, 9.99999e-7, 1e-6, 1.5e-9, -3e-10, 1e20, 1e21, 1.2345e22, -1e21, math.MaxFloat64,
	-math.MaxFloat64, 12345.678, 1e-5, 123456789012345680000,
}

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

// randomQueryResponse draws a response whose slices are nil, empty or
// populated with equal weight on the first two, so the null/[] split of
// the format is exercised as often as the common case.
func randomQueryResponse(rng *rand.Rand) api.QueryResponse {
	r := api.QueryResponse{Class: pick(rng, codecStrings), K: rng.Intn(2000) - 100}
	switch rng.Intn(4) {
	case 0:
		return r
	case 1:
		r.Results = []api.QueryResult{}
		return r
	}
	r.Results = make([]api.QueryResult, 1+rng.Intn(4))
	for i := range r.Results {
		qr := &r.Results[i]
		qr.Query = pick(rng, codecStrings)
		switch rng.Intn(4) {
		case 0:
		case 1:
			qr.Results = []api.RankedResult{}
		default:
			qr.Results = make([]api.RankedResult, 1+rng.Intn(5))
			for j := range qr.Results {
				score := pick(rng, codecScores)
				if rng.Intn(2) == 0 {
					score = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
				}
				qr.Results[j] = api.RankedResult{Node: int32(rng.Uint32()), Name: pick(rng, codecStrings), Score: score}
			}
		}
	}
	return r
}

// TestAppendJSONMatchesMarshal is the differential property the codec
// rests on: for the four hand-written types, AppendJSON emits exactly
// json.Marshal's bytes, and the fast decoders produce exactly
// json.Unmarshal's value from them.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	check := func(v interface {
		AppendJSON([]byte) ([]byte, error)
	}) []byte {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v.AppendJSON([]byte("prefix"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("AppendJSON differs from json.Marshal\n got: %s\nwant: prefix%s", got, want)
		}
		return want
	}
	for i := 0; i < 2000; i++ {
		qr := randomQueryResponse(rng)
		body := check(&qr)
		var fast, std api.QueryResponse
		if err := api.UnmarshalQueryResponse(body, &fast); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &std); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, std) {
			t.Fatalf("fast decode differs from json.Unmarshal on %s\nfast: %#v\n std: %#v", body, fast, std)
		}

		pr := api.ProximityResponse{Class: pick(rng, codecStrings), X: pick(rng, codecStrings),
			Y: pick(rng, codecStrings), Proximity: pick(rng, codecScores)}
		body = check(&pr)
		var fastP, stdP api.ProximityResponse
		if err := api.UnmarshalProximityResponse(body, &fastP); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(body, &stdP); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fastP, stdP) {
			t.Fatalf("fast decode differs from json.Unmarshal on %s", body)
		}

		qq := api.QueryRequest{Class: pick(rng, codecStrings), K: rng.Intn(5) - 1}
		switch rng.Intn(4) {
		case 0:
			qq.Query = pick(rng, codecStrings)
		case 1:
			qq.Queries = []string{}
		case 2:
			for n := 1 + rng.Intn(4); n > 0; n-- {
				qq.Queries = append(qq.Queries, pick(rng, codecStrings))
			}
		}
		checkRequestScan(t, check(&qq))
		pq := api.ProximityRequest{Class: pick(rng, codecStrings), X: pick(rng, codecStrings), Y: pick(rng, codecStrings)}
		body = check(&pq)
		var scanned api.ProximityRequest
		if api.ScanProximityRequest(body, &scanned) && scanned != pq {
			t.Fatalf("ScanProximityRequest(%s) = %+v", body, scanned)
		}
	}
}

// TestFastDecodeTakesTheCanonicalForm pins that the common case really
// runs the forward pass (the differential test would also pass if every
// input fell back), and what that buys: three allocations for a whole
// batch response.
func TestFastDecodeTakesTheCanonicalForm(t *testing.T) {
	resp := api.QueryResponse{Class: "college", K: 10}
	for q := 0; q < 8; q++ {
		qr := api.QueryResult{Query: "user-1"}
		for j := 0; j < 10; j++ {
			qr.Results = append(qr.Results, api.RankedResult{Node: int32(j), Name: "user-22", Score: 0.125 * float64(j)})
		}
		resp.Results = append(resp.Results, qr)
	}
	body, err := resp.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, '\n') // the framing servers add
	var out api.QueryResponse
	allocs := testing.AllocsPerRun(100, func() {
		if err := api.UnmarshalQueryResponse(body, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("decoding a canonical batch response allocates %.0f times, want <= 3 (did it fall back to encoding/json?)", allocs)
	}
	if !reflect.DeepEqual(out, resp) {
		t.Fatalf("decoded %+v, want %+v", out, resp)
	}
	// Rankings share one array; growing one must not write into the next.
	first := append(out.Results[0].Results, api.RankedResult{Name: "intruder"})
	if out.Results[1].Results[0].Name != "user-22" || len(first) != 11 {
		t.Fatal("appending to one ranking overwrote its neighbour")
	}

	buf := make([]byte, 0, len(body))
	if allocs := testing.AllocsPerRun(100, func() { buf, _ = resp.AppendJSON(buf[:0]) }); allocs != 0 {
		t.Fatalf("AppendJSON into a sized buffer allocates %.0f times, want 0", allocs)
	}
}

// TestFastDecodeFallsBack: everything outside the canonical form is
// still decoded — by encoding/json — to the same value.
func TestFastDecodeFallsBack(t *testing.T) {
	want := api.QueryResponse{Class: "c", K: 2, Results: []api.QueryResult{
		{Query: "q", Results: []api.RankedResult{{Node: 7, Name: "é<", Score: 1e-9}}}}}
	for name, body := range map[string]string{
		"indented":  "{\n  \"class\": \"c\",\n  \"k\": 2,\n  \"results\": [{\"query\": \"q\", \"results\": [{\"node\": 7, \"name\": \"é<\", \"score\": 1e-9}]}]\n}\n",
		"reordered": `{"k":2,"class":"c","results":[{"results":[{"score":1e-9,"name":"é<","node":7}],"query":"q"}]}`,
		"escaped":   `{"class":"c","k":2,"results":[{"query":"q","results":[{"node":7,"name":"\u00e9\u003c","score":1e-9}]}]}`,
		"unknown":   `{"class":"c","k":2,"extra":[1,{"a":null}],"results":[{"query":"q","results":[{"node":7,"name":"é<","score":1e-9}]}]}`,
		"duplicate": `{"class":"x","class":"c","k":2,"results":[{"query":"q","results":[{"node":7,"name":"é<","score":1e-9}]}]}`,
		"crlf":      `{"class":"c","k":2,"results":[{"query":"q","results":[{"node":7,"name":"é<","score":1e-9}]}]}` + "\r\n",
	} {
		var got api.QueryResponse
		if err := api.UnmarshalQueryResponse([]byte(body), &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decoded %+v, want %+v", name, got, want)
		}
	}
	var got api.QueryResponse
	if err := api.UnmarshalQueryResponse([]byte(`{"class":"c","k":2,"results":null}`), &got); err != nil || got.Results != nil {
		t.Fatalf("null results: %+v, %v", got, err)
	}
	for _, bad := range []string{``, `{`, `{"class":"c","k":2,"results":[]} x`, `{"class":"c","k":2.5,"results":[]}`,
		`{"class":"c","k":2,"results":[{"query":"q","results":[{"node":3000000000,"name":"n","score":1}]}]}`,
		`{"class":"c","k":2,"results":[{"query":"q","results":[{"node":1,"name":"n","score":1e999}]}]}`} {
		if err := api.UnmarshalQueryResponse([]byte(bad), new(api.QueryResponse)); err == nil {
			t.Fatalf("decoding %q succeeded", bad)
		}
	}
}

func TestAppendJSONRejectsNonFiniteScores(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		resp := api.QueryResponse{Results: []api.QueryResult{{Results: []api.RankedResult{{Score: f}}}}}
		if _, err := resp.AppendJSON(nil); err == nil {
			t.Fatalf("AppendJSON encoded score %v", f)
		}
		if _, err := (&api.ProximityResponse{Proximity: f}).AppendJSON(nil); err == nil {
			t.Fatalf("AppendJSON encoded proximity %v", f)
		}
	}
}

// fuzzSeeds are canonical bodies plus near misses on every token the
// forward pass checks.
func fuzzSeeds(f *testing.F, canonical ...string) {
	for _, s := range canonical {
		f.Add([]byte(s))
		f.Add([]byte(s + "\n"))
		f.Add([]byte(s + "\n\n"))
		f.Add([]byte(" " + s))
		f.Add([]byte(strings.Replace(s, ":", ": ", 1)))
		f.Add([]byte(strings.Replace(s, `"c"`, `"cA"`, 1)))
		f.Add([]byte(strings.Replace(s, `"c"`, "\"c\xff\"", 1)))
		f.Add([]byte(strings.Replace(s, `1`, `01`, 1)))
		f.Add([]byte(strings.Replace(s, `1`, `-0`, 1)))
		f.Add([]byte(strings.Replace(s, `1`, `1e`, 1)))
		f.Add([]byte(strings.Replace(s, `1`, `1.`, 1)))
		f.Add([]byte(strings.Replace(s, `1`, `1E+2`, 1)))
		f.Add([]byte(strings.Replace(s, `1`, `null`, 1)))
		f.Add([]byte(s[:len(s)/2]))
	}
}

// FuzzQueryResponseDecode: for arbitrary bytes the decoder's value and
// its error-ness are json.Unmarshal's.
func FuzzQueryResponseDecode(f *testing.F) {
	fuzzSeeds(f,
		`{"class":"c","k":1,"results":[{"query":"q","results":[{"node":1,"name":"n","score":1.5e-9}]}]}`,
		`{"class":"c","k":1,"results":[{"query":"q","results":[]},{"query":"r","results":[{"node":-1,"name":"","score":-0},{"node":2,"name":"m","score":1e21}]}]}`,
		`{"class":"c","k":1,"results":[]}`,
		`{"class":"c","k":1,"results":null}`,
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast, std api.QueryResponse
		errFast := api.UnmarshalQueryResponse(data, &fast)
		errStd := json.Unmarshal(data, &std)
		if (errFast == nil) != (errStd == nil) {
			t.Fatalf("error-ness differs on %q: fast %v, encoding/json %v", data, errFast, errStd)
		}
		if !reflect.DeepEqual(fast, std) {
			t.Fatalf("value differs on %q\nfast: %#v\n std: %#v", data, fast, std)
		}
	})
}

// FuzzProximityResponseDecode is the same property for the pair score.
func FuzzProximityResponseDecode(f *testing.F) {
	fuzzSeeds(f, `{"class":"c","x":"a","y":"b","proximity":1}`, `{"class":"c","x":"a","y":"b","proximity":0.25}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		var fast, std api.ProximityResponse
		errFast := api.UnmarshalProximityResponse(data, &fast)
		errStd := json.Unmarshal(data, &std)
		if (errFast == nil) != (errStd == nil) || fast != std {
			t.Fatalf("differs on %q: fast %+v (%v), encoding/json %+v (%v)", data, fast, errFast, std, errStd)
		}
	})
}

// strictQueryRequest is the decode the servers fall back to: unknown
// fields and anything after the value are errors.
func strictQueryRequest(data []byte) (api.QueryRequest, error) {
	var r api.QueryRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, err
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return r, errors.New("trailing data")
	}
	return r, nil
}

// checkRequestScan: the request pass may decline any body, but one it
// accepts is a body the strict decode accepts, with the same value.
func checkRequestScan(t *testing.T, data []byte) bool {
	t.Helper()
	var fast api.QueryRequest
	if !api.ScanQueryRequest(data, &fast) {
		if !reflect.DeepEqual(fast, api.QueryRequest{}) {
			t.Fatalf("declined %q but wrote %+v", data, fast)
		}
		return false
	}
	std, err := strictQueryRequest(data)
	if err != nil || !reflect.DeepEqual(fast, std) {
		t.Fatalf("ScanQueryRequest accepted %q as %+v; strict encoding/json: %+v, %v", data, fast, std, err)
	}
	return true
}

func TestScanQueryRequestTakesTheCanonicalForm(t *testing.T) {
	for _, req := range []api.QueryRequest{
		{Class: "college", Query: "user-17", K: 10},
		{Class: "college", Queries: []string{"user-1", "user-2", "user-3"}, K: 10},
		{Class: "college", Query: "user-17"},
	} {
		body, _ := req.AppendJSON(nil)
		if !checkRequestScan(t, body) || !checkRequestScan(t, append(body, '\n')) {
			t.Fatalf("canonical request %s fell back", body)
		}
	}
	for _, body := range []string{
		`{"class":"c","query":"q","k":1} `, `{"class":"c","query":"q","k":1}{}`, `{"class":"c","bogus":1}`,
		`{"class":"c","k":1,"query":"q"}`, `{"class":"c","query":"caf\u00e9"}`, `{"class":"c","query":"café"}`,
		`{"class":"c","queries":["a",]}`, `{"class":"c","queries":["a""b"]}`, `{"class":"c","k":01}`, `{"class":"c","k":1.0}`,
	} {
		if checkRequestScan(t, []byte(body)) {
			t.Fatalf("%s is not canonical but the forward pass took it", body)
		}
	}
}

// FuzzQueryRequestScan holds the request pass inside the strict decode.
func FuzzQueryRequestScan(f *testing.F) {
	fuzzSeeds(f, `{"class":"c","query":"q","k":1}`, `{"class":"c","queries":["a","b"],"k":1}`, `{"class":"c"}`)
	f.Fuzz(func(t *testing.T, data []byte) { checkRequestScan(t, data) })
}

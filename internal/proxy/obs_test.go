package proxy

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/api"
)

// expoValue finds one exact series ("name" or `name{label="v"}`) in a
// Prometheus text exposition.
func expoValue(t *testing.T, expo, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(expo, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if name, val, ok := strings.Cut(line, " "); ok && name == series {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("series %s: bad value %q: %v", series, val, err)
			}
			return f
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", series, expo)
	return 0
}

// TestStatsMetricsConsistent: api.ProxyStats on /v1/stats is DERIVED
// from the proxy's metric registry, so after traffic (driven
// concurrently — run under -race) every stats field must agree exactly
// with its /metrics series.
func TestStatsMetricsConsistent(t *testing.T) {
	primary := newFake(t, api.RolePrimary, 0)
	follower := newFake(t, api.RoleFollower, 0)
	_, ts := fakeStack(t, Options{CacheEntries: 16}, primary, follower)

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				// Repeated keys give cache hits, distinct ones misses.
				status, _, _ := get(t, ts.URL+api.PathQuery+"?q="+strconv.Itoa(j%3))
				if status != http.StatusOK {
					t.Errorf("query status = %d", status)
				}
			}
		}(i)
	}
	wg.Wait()
	resp, err := http.Post(ts.URL+api.PathUpdate, "application/json",
		bytes.NewReader([]byte(`{"class":"c","adds":[{"text":"x"}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	// /v1/stats snapshots the counters (after its own epoch advance), and
	// nothing else runs before /metrics — the two renderings must agree on
	// every field.
	status, body, _ := get(t, ts.URL+api.PathStats)
	if status != http.StatusOK {
		t.Fatalf("stats status = %d: %s", status, body)
	}
	var st api.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Proxy == nil {
		t.Fatal("stats response carries no proxy block")
	}
	status, expoB, _ := get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	expo := string(expoB)

	for series, want := range map[string]uint64{
		"semprox_proxy_reads_total":                        st.Proxy.Reads,
		`semprox_proxy_hedges_total{outcome="issued"}`:     st.Proxy.HedgesIssued,
		`semprox_proxy_hedges_total{outcome="won"}`:        st.Proxy.HedgesWon,
		`semprox_proxy_hedges_total{outcome="cancelled"}`:  st.Proxy.HedgesCancelled,
		`semprox_proxy_cache_lookups_total{result="hit"}`:  st.Proxy.CacheHits,
		`semprox_proxy_cache_lookups_total{result="miss"}`: st.Proxy.CacheMisses,
		"semprox_proxy_cache_evictions_total":              st.Proxy.CacheEvictions,
		"semprox_proxy_cache_epoch_flushes_total":          st.Proxy.EpochFlushes,
		"semprox_proxy_cache_entries":                      uint64(st.Proxy.CacheEntries),
		"semprox_proxy_cache_bytes":                        uint64(st.Proxy.CacheBytes),
		"semprox_proxy_cache_epoch":                        st.Proxy.Epoch,
	} {
		if got := expoValue(t, expo, series); got != float64(want) {
			t.Errorf("%s = %v on /metrics, %d on /v1/stats", series, got, want)
		}
	}
	if st.Proxy.CacheHits == 0 || st.Proxy.CacheMisses == 0 {
		t.Errorf("traffic drove no cache activity: %+v", st.Proxy)
	}
	// The middleware's own families cover the proxy surface too.
	if expoValue(t, expo, `semprox_http_requests_total{code="2xx",path="/v1/query"}`) == 0 {
		t.Error("no 2xx query requests recorded")
	}
	if expoValue(t, expo, "semprox_router_live_followers") != 1 {
		t.Error("live follower gauge should read 1")
	}
}

// TestProxyTracePropagation: a caller-supplied trace ID is echoed on the
// proxy response AND forwarded to the backend; a missing one is minted;
// error envelopes carry the header too.
func TestProxyTracePropagation(t *testing.T) {
	primary := newFake(t, api.RolePrimary, 0)
	follower := newFake(t, api.RoleFollower, 0)
	_, ts := fakeStack(t, Options{}, primary, follower)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+api.PathQuery+"?q=x", nil)
	req.Header.Set(api.HeaderTrace, "trace-prox-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.HeaderTrace); got != "trace-prox-1" {
		t.Fatalf("response trace = %q, want the caller's", got)
	}
	if got, _ := follower.lastTrace.Load().(string); got != "trace-prox-1" {
		t.Fatalf("backend saw trace %q, want the caller's", got)
	}

	resp, err = http.Get(ts.URL + api.PathQuery + "?q=y")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(api.HeaderTrace) == "" {
		t.Fatal("proxy minted no trace for a bare request")
	}

	// A caller's ID the proxy will not repeat — too long, or bytes outside
	// [A-Za-z0-9._:-] — is replaced by a minted one, which is also what
	// the backend sees; the IDs the docs and tests use pass through.
	for id, keep := range map[string]bool{
		"debug-42": true, "trace-log-1": true,
		strings.Repeat("a", 65): false, "two words": false, "tab\there": false,
	} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+api.PathQuery+"?q="+strconv.Itoa(len(id)), nil)
		req.Header.Set(api.HeaderTrace, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		got := resp.Header.Get(api.HeaderTrace)
		if keep != (got == id) || got == "" {
			t.Errorf("caller trace %q: echoed %q, want it kept = %v", id, got, keep)
		}
		if seen, _ := follower.lastTrace.Load().(string); seen != got {
			t.Errorf("caller trace %q: backend saw %q, the caller was told %q", id, seen, got)
		}
	}

	// DELETE on /v1/update: a proxy-generated error envelope. The trace
	// header must be present even though no backend was involved.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+api.PathUpdate, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
	if resp.Header.Get(api.HeaderTrace) == "" {
		t.Fatal("error envelope carries no trace header")
	}
}

package api_test

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/api"
)

func TestPathsAreVersioned(t *testing.T) {
	paths := api.Paths()
	if len(paths) == 0 {
		t.Fatal("no paths declared")
	}
	seen := map[string]bool{}
	for _, p := range paths {
		if !strings.HasPrefix(p, api.Prefix+"/") {
			t.Fatalf("path %q does not carry the %s prefix", p, api.Prefix)
		}
		if seen[p] {
			t.Fatalf("path %q declared twice", p)
		}
		seen[p] = true
	}
}

func TestErrorfAndEnvelope(t *testing.T) {
	e := api.Errorf(404, api.CodeNodeNotFound, "node %q not in graph", "zoe")
	if e.Status != 404 || e.Code != api.CodeNodeNotFound {
		t.Fatalf("Errorf = %+v", e)
	}
	if got := e.Error(); got != `node_not_found: node "zoe" not in graph` {
		t.Fatalf("Error() = %q", got)
	}

	// The envelope serializes code and message only — Status is transport
	// metadata and must not leak into the body.
	body, err := json.Marshal(api.ErrorEnvelope{Error: *e})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"error":{"code":"node_not_found","message":"node \"zoe\" not in graph"}}`
	if string(body) != want {
		t.Fatalf("envelope = %s, want %s", body, want)
	}
	var back api.ErrorEnvelope
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatal(err)
	}
	if back.Error.Code != e.Code || back.Error.Message != e.Message || back.Error.Status != 0 {
		t.Fatalf("round trip = %+v", back.Error)
	}
}

func TestReadyResponseReady(t *testing.T) {
	if !(api.ReadyResponse{Status: api.StatusReady}).Ready() {
		t.Fatal("ready status not ready")
	}
	for _, s := range []string{api.StatusCatchingUp, api.StatusWALFailed, ""} {
		if (api.ReadyResponse{Status: s}).Ready() {
			t.Fatalf("status %q reported ready", s)
		}
	}
}

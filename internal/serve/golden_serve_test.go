package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var updateServeGolden = flag.Bool("update", false, "rewrite serve golden files")

// TestTenantGolden pins the multi-tenant wire protocol as one golden
// transcript: two tenants with different quotas exercising the 401, 202,
// quota-429 (+ Retry-After), cross-tenant 404, filtered listing and
// /v1/audit envelopes. The worker is parked on the first job so every
// state in the transcript is deterministic.
func TestTenantGolden(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Workers:    1,
		QueueDepth: 4,
		Tenants: []TenantConfig{
			{Name: "alpha", Key: "key-alpha", Quota: 2, Weight: 2},
			{Name: "beta", Key: "key-beta", Quota: 1, Weight: 1},
		},
	})

	// Park the worker on the first job it picks up so later submissions
	// stay queued (and quota slots stay charged) for the whole transcript.
	gate := make(chan struct{})
	gated := make(chan struct{}, 1)
	var gateOne sync.Once
	s.mu.Lock()
	s.testExecHook = func(*Job) {
		block := false
		gateOne.Do(func() { block = true })
		if block {
			gated <- struct{}{}
			<-gate
		}
	}
	s.mu.Unlock()
	defer close(gate)

	var transcript bytes.Buffer
	record := func(name, method, path, key string, body any) []byte {
		t.Helper()
		headers := map[string]string{}
		if key != "" {
			headers["X-API-Key"] = key
		}
		resp, data := headerJSON(t, method, ts.URL+path, headers, body)
		fmt.Fprintf(&transcript, "### %s\n%s %s as %s\nstatus: %d\n", name, method, path, keyName(key), resp.StatusCode)
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			fmt.Fprintf(&transcript, "retry-after: %s\n", ra)
		}
		transcript.Write(scrubJSON(t, data))
		transcript.WriteString("\n\n")
		return data
	}
	submitBody := func(i int) SubmitRequest {
		req := SubmitRequest{}
		req.DSL = uniqueDSL(i)
		req.Analysis = "profile"
		req.Ranks = 2
		return req
	}

	record("unauthenticated submit", http.MethodPost, "/v1/jobs", "", submitBody(1))

	// alpha (quota 2): first job runs, second queues, third trips the quota.
	record("alpha submit 1 (runs)", http.MethodPost, "/v1/jobs", "key-alpha", submitBody(1))
	<-gated
	record("alpha submit 2 (queues)", http.MethodPost, "/v1/jobs", "key-alpha", submitBody(2))
	record("alpha submit 3 (quota 429)", http.MethodPost, "/v1/jobs", "key-alpha", submitBody(3))

	// beta (quota 1): first job queues, second trips the smaller quota.
	data := record("beta submit 1 (queues)", http.MethodPost, "/v1/jobs", "key-beta", submitBody(4))
	betaJob := decodeView(t, data)
	record("beta submit 2 (quota 429)", http.MethodPost, "/v1/jobs", "key-beta", submitBody(5))

	// Tenant isolation: alpha cannot see beta's job; listings are scoped.
	record("alpha gets beta's job (404)", http.MethodGet, "/v1/jobs/"+betaJob.ID, "key-alpha", nil)
	record("beta list (only beta's jobs)", http.MethodGet, "/v1/jobs", "key-beta", nil)

	record("audit view", http.MethodGet, "/v1/audit", "key-alpha", nil)

	golden := filepath.Join("testdata", "golden", "tenants.golden")
	if *updateServeGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, transcript.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(transcript.Bytes(), want) {
		t.Errorf("tenant transcript drifted from %s (run with -update to rewrite)\n--- got ---\n%s", golden, transcript.Bytes())
	}
}

func keyName(key string) string {
	if key == "" {
		return "anonymous"
	}
	return key
}

// scrubJSON normalizes the nondeterministic fields of a response body —
// timestamps only; job IDs, content addresses and states are deterministic
// in the scripted transcript and deliberately pinned.
func scrubJSON(t *testing.T, data []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("non-JSON response body %q: %v", data, err)
	}
	out, err := json.MarshalIndent(scrubValue(v), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var scrubbedKeys = map[string]bool{
	"submitted_at": true,
	"started_at":   true,
	"finished_at":  true,
	"detected_at":  true,
	"last_cycle":   true,
	"elapsed_us":   true,
}

func scrubValue(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			if scrubbedKeys[k] {
				x[k] = "<scrubbed>"
			} else {
				x[k] = scrubValue(val)
			}
		}
		return x
	case []any:
		for i, val := range x {
			x[i] = scrubValue(val)
		}
		return x
	default:
		return v
	}
}

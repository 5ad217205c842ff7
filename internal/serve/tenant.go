package serve

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
)

// TenantConfig declares one tenant of a multi-tenant server: an API key,
// an in-flight quota, and a fair-share weight. It is the element type of
// the -auth-file JSON and of Options.Tenants.
type TenantConfig struct {
	// Name identifies the tenant in job views, metrics and fairness
	// accounting.
	Name string `json:"name"`
	// Key is the tenant's API key, presented as `Authorization: Bearer
	// <key>` or `X-API-Key: <key>`.
	Key string `json:"key"`
	// Quota bounds the tenant's in-flight (queued + running) jobs;
	// submissions beyond it get 429 + Retry-After. <= 0 means unlimited.
	Quota int `json:"quota,omitempty"`
	// Weight is the tenant's share in the weighted-fair dequeue across
	// tenants (<= 0 is treated as 1): at equal backlog, a weight-2 tenant
	// gets twice the job slots of a weight-1 tenant.
	Weight int `json:"weight,omitempty"`
}

// anonymousTenant is the single implicit tenant of an unauthenticated
// server (no Options.Tenants): unlimited quota, weight 1 — exactly the
// pre-multi-tenant behavior.
const anonymousTenant = "default"

// tenantState is a tenant's runtime accounting. inflight is guarded by the
// server mutex.
type tenantState struct {
	cfg      TenantConfig
	inflight int // queued + running jobs now
}

func (t *tenantState) weight() int {
	if t.cfg.Weight <= 0 {
		return 1
	}
	return t.cfg.Weight
}

// LoadAuthFile reads a tenant declaration file: {"tenants": [{"name":
// ..., "key": ..., "quota": N, "weight": N}, ...]}.
func LoadAuthFile(path string) ([]TenantConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("auth file: %w", err)
	}
	var f struct {
		Tenants []TenantConfig `json:"tenants"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("auth file %s: %w", path, err)
	}
	if err := validateTenants(f.Tenants); err != nil {
		return nil, fmt.Errorf("auth file %s: %w", path, err)
	}
	return f.Tenants, nil
}

// validateTenants rejects duplicate names/keys and empty fields.
func validateTenants(tenants []TenantConfig) error {
	names := make(map[string]bool, len(tenants))
	keys := make(map[string]bool, len(tenants))
	for i, tc := range tenants {
		switch {
		case tc.Name == "":
			return fmt.Errorf("tenant %d: empty name", i)
		case tc.Key == "":
			return fmt.Errorf("tenant %q: empty key", tc.Name)
		case names[tc.Name]:
			return fmt.Errorf("duplicate tenant name %q", tc.Name)
		case keys[tc.Key]:
			return fmt.Errorf("tenant %q: key already assigned", tc.Name)
		}
		names[tc.Name] = true
		keys[tc.Key] = true
	}
	return nil
}

// tenantRegistry resolves API keys to tenants. The registry itself is
// immutable after New; the per-tenant inflight counters inside its states
// are guarded by the owning Server's mutex.
type tenantRegistry struct {
	enabled bool
	byName  map[string]*tenantState
	byKey   map[string]*tenantState
}

func newTenantRegistry(tenants []TenantConfig) (*tenantRegistry, error) {
	r := &tenantRegistry{
		byName: make(map[string]*tenantState),
		byKey:  make(map[string]*tenantState),
	}
	if len(tenants) == 0 {
		ts := &tenantState{cfg: TenantConfig{Name: anonymousTenant, Weight: 1}}
		r.byName[anonymousTenant] = ts
		return r, nil
	}
	if err := validateTenants(tenants); err != nil {
		return nil, err
	}
	r.enabled = true
	for _, tc := range tenants {
		ts := &tenantState{cfg: tc}
		r.byName[tc.Name] = ts
		r.byKey[tc.Key] = ts
	}
	return r, nil
}

// resolve authenticates a request: with auth disabled every request is the
// anonymous tenant; with auth enabled the bearer/API key must match a
// configured tenant (constant-time compare).
func (r *tenantRegistry) resolve(req *http.Request) (*tenantState, bool) {
	if !r.enabled {
		return r.byName[anonymousTenant], true
	}
	key := req.Header.Get("X-API-Key")
	if auth := req.Header.Get("Authorization"); key == "" && strings.HasPrefix(auth, "Bearer ") {
		key = strings.TrimPrefix(auth, "Bearer ")
	}
	if key == "" {
		return nil, false
	}
	for k, ts := range r.byKey {
		if subtle.ConstantTimeCompare([]byte(k), []byte(key)) == 1 {
			return ts, true
		}
	}
	return nil, false
}

// weightOf reports a tenant's fair-share weight for the queue's dequeue.
func (r *tenantRegistry) weightOf(name string) int {
	if ts, ok := r.byName[name]; ok {
		return ts.weight()
	}
	return 1
}

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"d2m/internal/api"
)

// Multi-tenant admission (API v1.6). When Config.Tenants is set, every
// job-submitting endpoint requires an X-API-Key header naming a known
// tenant; each tenant carries a token-bucket rate limit enforced here,
// in front of the shared pipeline, and a queue share enforced inside
// the scheduler's deficit-round-robin dequeue. The two layers answer
// different questions — the bucket bounds how fast a tenant may submit
// (429 rate_limited, per tenant, before anything is queued), the share
// bounds how much of a contended worker pool its backlog may hold —
// and together they make one hostile tenant's flood invisible to the
// others. Without Config.Tenants the service is single-tenant and the
// whole layer is inert: no header required, no limits, exact pre-v1.6
// behavior.

// TenantSpec declares one tenant in the -tenants config file (a JSON
// array of these).
type TenantSpec struct {
	// Name labels the tenant in errors, metrics, and the scheduler's
	// fair queueing. Required, unique.
	Name string `json:"name"`
	// Key is the X-API-Key credential. Required, unique.
	Key string `json:"key"`
	// Rate is the sustained admission rate in submissions per second
	// (a batch costs its run count, a sweep its cell count). Zero or
	// negative means unlimited.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the bucket depth: how many submissions may land at once
	// after an idle spell. Zero means max(1, ceil(Rate)). Ignored when
	// Rate is unlimited.
	Burst int `json:"burst,omitempty"`
	// Share is the tenant's weight in the scheduler's deficit round
	// robin: per contended round it drains Share jobs for every one of
	// a share-1 tenant. Omitted means 1. An explicit 0 declares a
	// zero-share tenant: its key authenticates but every submission is
	// rejected rate_limited — a kill switch that keeps the tenant's
	// reads working.
	Share *int `json:"share,omitempty"`
}

// tenant is the runtime state behind one spec: the token bucket.
type tenant struct {
	spec  TenantSpec
	share int

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// take charges n submissions against the bucket. It returns ok, or the
// wait until enough tokens accrue.
func (t *tenant) take(n int, now time.Time) (bool, time.Duration) {
	if t.spec.Rate <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	burst := float64(t.spec.Burst)
	t.tokens += now.Sub(t.last).Seconds() * t.spec.Rate
	t.last = now
	if t.tokens > burst {
		t.tokens = burst
	}
	if t.tokens >= float64(n) {
		t.tokens -= float64(n)
		return true, 0
	}
	short := float64(n) - t.tokens
	return false, time.Duration(short / t.spec.Rate * float64(time.Second))
}

// tenantRegistry resolves API keys to tenants. Immutable after New.
type tenantRegistry struct {
	byKey  map[string]*tenant
	byName map[string]*tenant
}

// newTenantRegistry validates the specs and builds the runtime state.
func newTenantRegistry(specs []TenantSpec) (*tenantRegistry, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	reg := &tenantRegistry{
		byKey:  make(map[string]*tenant, len(specs)),
		byName: make(map[string]*tenant, len(specs)),
	}
	for i, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("tenants[%d]: name is required", i)
		}
		if spec.Key == "" {
			return nil, fmt.Errorf("tenants[%d] (%s): key is required", i, spec.Name)
		}
		if _, dup := reg.byName[spec.Name]; dup {
			return nil, fmt.Errorf("tenants[%d]: duplicate name %q", i, spec.Name)
		}
		if _, dup := reg.byKey[spec.Key]; dup {
			return nil, fmt.Errorf("tenants[%d] (%s): key already assigned", i, spec.Name)
		}
		share := 1
		if spec.Share != nil {
			if *spec.Share < 0 {
				return nil, fmt.Errorf("tenants[%d] (%s): share %d is negative", i, spec.Name, *spec.Share)
			}
			share = *spec.Share
		}
		if spec.Rate > 0 && spec.Burst <= 0 {
			spec.Burst = int(math.Ceil(spec.Rate))
			if spec.Burst < 1 {
				spec.Burst = 1
			}
		}
		t := &tenant{spec: spec, share: share, last: time.Now()}
		t.tokens = float64(spec.Burst) // start full: a fresh tenant has its burst
		reg.byKey[spec.Key] = t
		reg.byName[spec.Name] = t
	}
	return reg, nil
}

// LoadTenants reads a -tenants config file: a JSON array of TenantSpec.
func LoadTenants(path string) ([]TenantSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var specs []TenantSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return nil, fmt.Errorf("tenants file %s: %v", path, err)
	}
	if _, err := newTenantRegistry(specs); err != nil {
		return nil, fmt.Errorf("tenants file %s: %v", path, err)
	}
	return specs, nil
}

// tenantShare is the scheduler's TenantShare hook. The default tenant
// ("" — single-tenant mode, or internal work) weighs 1.
func (s *Server) tenantShare(name string) int {
	if s.tenants == nil {
		return 1
	}
	if t, ok := s.tenants.byName[name]; ok {
		return t.share
	}
	return 1
}

// Auth resolves an X-API-Key to its tenant and charges n submissions
// to the tenant's bucket. With no registry every request is the
// default tenant (""). With one, a missing or unknown key is 401; a
// zero-share tenant or an empty bucket is 429 rate_limited carrying
// the machine-readable retry_after_ms / tenant / limit fields —
// distinct from the global overloaded rejection of a full queue.
func (s *Server) Auth(_ context.Context, key string, n int) (string, error) {
	if s.tenants == nil {
		return "", nil
	}
	t, ok := s.tenants.byKey[key]
	if !ok {
		return "", api.Unauthorized(key)
	}
	name := t.spec.Name
	if n == 0 {
		return name, nil
	}
	if t.share == 0 {
		s.metrics.TenantRateLimited(name, n)
		return "", &api.Error{
			Code:    api.ErrRateLimited,
			Message: fmt.Sprintf("tenant %q has zero queue share: submissions are disabled", name),
			Tenant:  name,
		}
	}
	if ok, wait := t.take(n, time.Now()); !ok {
		s.metrics.TenantRateLimited(name, n)
		return "", &api.Error{
			Code: api.ErrRateLimited,
			Message: fmt.Sprintf("tenant %q exceeded its admission rate (%g/s)",
				name, t.spec.Rate),
			RetryAfterMS: max(wait.Milliseconds(), 1),
			Tenant:       name,
			Limit:        t.spec.Rate,
		}
	}
	s.metrics.TenantAdmitted(name, n)
	return name, nil
}

// tenancyCaps renders the capabilities advert: enabled plus, when the
// caller presented a valid key, its own limits.
func (s *Server) tenancyCaps(key string) *api.TenancyCaps {
	if s.tenants == nil {
		return nil
	}
	caps := &api.TenancyCaps{Enabled: true}
	if t, ok := s.tenants.byKey[key]; ok {
		caps.Tenant = t.spec.Name
		caps.Rate = t.spec.Rate
		caps.Burst = t.spec.Burst
		caps.Share = t.share
	}
	return caps
}

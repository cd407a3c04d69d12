package httpapi

import (
	"sync"
	"time"
)

// HeaderTenant carries the caller's tenant identity for per-tenant rate
// limiting and quotas. Absent means the default tenant.
const HeaderTenant = "X-Dod-Tenant"

// tenantLimiter enforces per-tenant admission at the front: a token bucket
// (rate + burst) smoothing request arrival, and an optional lifetime line
// quota. Tenants are identified by the X-Dod-Tenant header; requests
// without one share the "" (default) tenant.
type tenantLimiter struct {
	rps   float64 // bucket refill rate, requests/second; <= 0 disables
	burst float64 // bucket depth
	quota int64   // lifetime ingested-line quota per tenant; <= 0 disables
	now   func() time.Time

	mu      sync.Mutex
	tenants map[string]*tenantState
}

type tenantState struct {
	tokens float64
	last   time.Time
	used   int64 // lines charged against the quota
}

func newTenantLimiter(rps float64, burst int, quota int64, now func() time.Time) *tenantLimiter {
	if burst <= 0 {
		burst = 1
	}
	return &tenantLimiter{
		rps:     rps,
		burst:   float64(burst),
		quota:   quota,
		now:     now,
		tenants: make(map[string]*tenantState),
	}
}

// state returns (creating if needed) the refilled bucket for a tenant.
// Callers hold l.mu.
func (l *tenantLimiter) state(tenant string) *tenantState {
	ts := l.tenants[tenant]
	now := l.now()
	if ts == nil {
		ts = &tenantState{tokens: l.burst, last: now}
		l.tenants[tenant] = ts
		return ts
	}
	ts.tokens += now.Sub(ts.last).Seconds() * l.rps
	if ts.tokens > l.burst {
		ts.tokens = l.burst
	}
	ts.last = now
	return ts
}

// allowRequest charges one request against the tenant's bucket. On
// rejection it returns how long the tenant should wait before retrying.
func (l *tenantLimiter) allowRequest(tenant string) (ok bool, retryAfter time.Duration) {
	if l.rps <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := l.state(tenant)
	if ts.tokens >= 1 {
		ts.tokens--
		return true, 0
	}
	wait := time.Duration((1 - ts.tokens) / l.rps * float64(time.Second))
	if wait < time.Second {
		wait = time.Second // Retry-After is whole seconds; never hint 0
	}
	return false, wait
}

// chargeQuota charges n ingested lines against the tenant's lifetime quota,
// reporting whether the tenant is still within it. The charge is applied
// only when it fits, so a rejected batch does not consume quota.
func (l *tenantLimiter) chargeQuota(tenant string, n int) (ok bool, remaining int64) {
	if l.quota <= 0 {
		return true, -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	ts := l.tenants[tenant]
	if ts == nil {
		ts = &tenantState{tokens: l.burst, last: l.now()}
		l.tenants[tenant] = ts
	}
	if ts.used+int64(n) > l.quota {
		return false, l.quota - ts.used
	}
	ts.used += int64(n)
	return true, l.quota - ts.used
}

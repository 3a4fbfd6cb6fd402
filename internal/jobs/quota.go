package jobs

import (
	"sync"
	"time"
)

// Quota is the per-tenant admission policy. The zero value admits
// everything; each field gates independently.
type Quota struct {
	// RatePerSec refills each tenant's token bucket at this rate;
	// <= 0 disables rate limiting.
	RatePerSec float64
	// Burst is the bucket capacity (how many submissions a tenant may
	// make back to back); <= 0 with RatePerSec set means 1.
	Burst int
	// MaxActive bounds one tenant's jobs that are queued or running at
	// once; <= 0 disables the bound.
	MaxActive int
}

// tenantTable tracks per-tenant token buckets and active-job counts.
// One lock guards the whole table: admission is a handful of float
// operations, never worth sharding.
type tenantTable struct {
	mu    sync.Mutex
	q     Quota
	clock func() time.Time
	byKey map[string]*tenantState
}

// tenantState is one tenant's bucket: tokens as of last, plus the
// tenant's live job count.
type tenantState struct {
	tokens float64
	last   time.Time
	active int
}

func newTenantTable(q Quota, clock func() time.Time) *tenantTable {
	if q.RatePerSec > 0 && q.Burst <= 0 {
		q.Burst = 1
	}
	return &tenantTable{q: q, clock: clock, byKey: make(map[string]*tenantState)}
}

// admit charges one submission to tenant. ok=false carries the reject
// reason and, for rate limiting, how long until the next token.
func (t *tenantTable) admit(tenant string, now time.Time) (reason string, wait time.Duration, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.byKey[tenant]
	if s == nil {
		s = &tenantState{tokens: float64(t.q.Burst), last: now}
		t.byKey[tenant] = s
	}
	if t.q.MaxActive > 0 && s.active >= t.q.MaxActive {
		return reasonActiveLimit, 0, false
	}
	if t.q.RatePerSec > 0 {
		elapsed := now.Sub(s.last).Seconds()
		if elapsed > 0 {
			s.tokens += elapsed * t.q.RatePerSec
			if s.tokens > float64(t.q.Burst) {
				s.tokens = float64(t.q.Burst)
			}
			s.last = now
		}
		if s.tokens < 1 {
			need := (1 - s.tokens) / t.q.RatePerSec
			return ReasonRateLimited, time.Duration(need * float64(time.Second)), false
		}
		s.tokens--
	}
	s.active++
	return "", 0, true
}

// release returns one active-job slot to tenant (the job reached a
// terminal state).
func (t *tenantTable) release(tenant string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.byKey[tenant]; s != nil && s.active > 0 {
		s.active--
	}
}

package sched

// Weighted fair queueing across tenants (API v1.6). Each priority
// class's queue is no longer one FIFO but a classQueue: per-tenant
// FIFOs served deficit-round-robin. On each visit a tenant's deficit
// grows by its share (quantum) and every dequeued job costs one
// credit, so over any contended window tenants drain in proportion to
// their configured shares — a hostile tenant's backlog delays only its
// own jobs. The class-level policy is unchanged: the 4:1
// interactive/bulk weighting picks the class, then the class's DRR
// picks the tenant. A single-tenant scheduler degenerates to the exact
// pre-v1.6 FIFO order.

// tenantFIFO is one tenant's queued jobs within a class, FIFO, plus
// its DRR credit.
type tenantFIFO struct {
	name    string
	jobs    []*Job
	deficit int
}

// classQueue is one priority class's queue: the per-tenant FIFOs with
// waiting work, in round-robin ring order, and the DRR cursor.
// All methods are called with Scheduler.mu held.
type classQueue struct {
	active []*tenantFIFO
	cursor int
}

func (cq *classQueue) empty() bool { return len(cq.active) == 0 }

// fifo finds the tenant's FIFO among the active set.
func (cq *classQueue) fifo(tenant string) *tenantFIFO {
	for _, t := range cq.active {
		if t.name == tenant {
			return t
		}
	}
	return nil
}

// push appends a job to its tenant's FIFO, activating the tenant —
// it joins the ring with zero credit, so it is served after every
// already-waiting tenant gets its current round's grant.
func (cq *classQueue) push(j *Job) {
	t := cq.fifo(j.spec.Tenant)
	if t == nil {
		t = &tenantFIFO{name: j.spec.Tenant}
		cq.active = append(cq.active, t)
	}
	t.jobs = append(t.jobs, j)
}

// pop dequeues the next job under deficit round robin: the cursor
// tenant spends credit one job at a time; when its credit (or its
// queue) runs out it receives next round's quantum — shareOf, floored
// at 1 — and the cursor moves on. A tenant emptied mid-round leaves
// the ring and forfeits its residual credit, so idle tenants cannot
// bank priority.
func (cq *classQueue) pop(shareOf func(string) int) *Job {
	n := len(cq.active)
	if n == 0 {
		return nil
	}
	// Two passes bound the scan: the first grants every broke tenant a
	// quantum >= 1, the second therefore finds a serveable one.
	for tries := 0; tries < 2*n+1; tries++ {
		if cq.cursor >= len(cq.active) {
			cq.cursor = 0
		}
		t := cq.active[cq.cursor]
		if t.deficit < 1 {
			q := 1
			if shareOf != nil {
				if s := shareOf(t.name); s > 1 {
					q = s
				}
			}
			t.deficit += q
			cq.cursor++
			continue
		}
		t.deficit--
		j := t.jobs[0]
		t.jobs[0] = nil
		t.jobs = t.jobs[1:]
		if len(t.jobs) == 0 {
			cq.removeFIFO(cq.cursor)
		}
		return j
	}
	return nil
}

// removeFIFO drops the i-th tenant from the ring, keeping the cursor
// pointed at the same next tenant.
func (cq *classQueue) removeFIFO(i int) {
	cq.active = append(cq.active[:i], cq.active[i+1:]...)
	if i < cq.cursor {
		cq.cursor--
	}
	if cq.cursor >= len(cq.active) {
		cq.cursor = 0
	}
}

// remove takes one queued job out (Cancel's and promotion's queue
// surgery).
func (cq *classQueue) remove(j *Job) bool {
	for ti, t := range cq.active {
		if t.name != j.spec.Tenant {
			continue
		}
		for i, q := range t.jobs {
			if q != j {
				continue
			}
			copy(t.jobs[i:], t.jobs[i+1:])
			t.jobs[len(t.jobs)-1] = nil
			t.jobs = t.jobs[:len(t.jobs)-1]
			if len(t.jobs) == 0 {
				cq.removeFIFO(ti)
			}
			return true
		}
		return false
	}
	return false
}

// position returns a queued job's 1-based place within its tenant's
// FIFO — the jobs of the same tenant and class ahead of it — or 0 when
// it is not queued here. Under fair queueing this, not the interleaved
// class order, is the client-meaningful queue depth.
func (cq *classQueue) position(j *Job) int {
	t := cq.fifo(j.spec.Tenant)
	if t == nil {
		return 0
	}
	for i, q := range t.jobs {
		if q == j {
			return i + 1
		}
	}
	return 0
}

// steal removes up to max queued jobs matching pred, scanning
// tenants in ring order (lane-group gathering). Emptied tenants leave
// the ring.
func (cq *classQueue) steal(max int, pred func(*Job) bool) []*Job {
	if max <= 0 {
		return nil
	}
	var out []*Job
	for ti := 0; ti < len(cq.active); {
		t := cq.active[ti]
		kept := t.jobs[:0]
		for _, cand := range t.jobs {
			if len(out) < max && pred(cand) {
				out = append(out, cand)
			} else {
				kept = append(kept, cand)
			}
		}
		for i := len(kept); i < len(t.jobs); i++ {
			t.jobs[i] = nil
		}
		t.jobs = kept
		if len(t.jobs) == 0 {
			cq.removeFIFO(ti)
			continue // ring shifted left; revisit index ti
		}
		ti++
	}
	return out
}

package serve

import "sync"

// queue is the dispatcher's one job queue: a bounded set of per-tenant FIFO
// queues drained by every worker with weighted-fair round-robin across
// tenants, so one hot tenant cannot starve the rest and no job waits while
// a worker is idle.
type queue struct {
	depth int // bound on the total queued jobs across tenants

	mu   sync.Mutex
	cond *sync.Cond
	// queues holds each tenant's FIFO backlog; order is the round-robin
	// ring of tenants that ever queued here.
	queues map[string][]*Job
	order  []string
	rrIdx  int
	// credits implements deficit-style weighted fairness: each dequeue
	// spends one credit of the chosen tenant, and when every backlogged
	// tenant is out of credits they are refilled to the tenants' weights —
	// so over a refill epoch tenant shares converge to weight ratios.
	credits map[string]int
	queued  int
	closed  bool
}

func newQueue(depth int) *queue {
	q := &queue{
		depth:   depth,
		queues:  make(map[string][]*Job),
		credits: make(map[string]int),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// enqueue appends a job to its tenant's queue, rejecting it when the
// dispatcher is draining or, if bounded, when the total bound is reached.
// Journal-recovered jobs enqueue unbounded: the previous process already
// acknowledged them, so rejecting them now would break the write-ahead
// contract. The backlog can transiently exceed depth by the recovered
// count; fresh submissions still honor the bound.
func (q *queue) enqueue(j *Job, bounded bool) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrDraining
	}
	if bounded && q.queued >= q.depth {
		return ErrQueueFull
	}
	tq, known := q.queues[j.Tenant]
	if !known {
		q.order = append(q.order, j.Tenant)
	}
	q.queues[j.Tenant] = append(tq, j)
	q.queued++
	q.cond.Signal()
	return nil
}

// dequeue blocks until a job is available or the queue is closed and
// empty. weight reports a tenant's fair-share weight (>= 1).
func (q *queue) dequeue(weight func(tenant string) int) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for q.queued == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.queued == 0 {
			return nil, false // closed and drained
		}
		if j := q.pickLocked(weight); j != nil {
			return j, true
		}
	}
}

// pickLocked chooses the next tenant by weighted round-robin: scan the
// ring from the cursor for a backlogged tenant with credit; if every
// backlogged tenant is out of credit, refill to weights and rescan.
func (q *queue) pickLocked(weight func(string) int) *Job {
	for pass := 0; pass < 2; pass++ {
		n := len(q.order)
		for i := 0; i < n; i++ {
			idx := (q.rrIdx + i) % n
			tenant := q.order[idx]
			if len(q.queues[tenant]) == 0 || q.credits[tenant] <= 0 {
				continue
			}
			q.credits[tenant]--
			q.rrIdx = (idx + 1) % n
			return q.popLocked(tenant)
		}
		// Refill every backlogged tenant and retry once.
		for tenant, tq := range q.queues {
			if len(tq) > 0 {
				q.credits[tenant] = weight(tenant)
			}
		}
	}
	return nil // unreachable while queued > 0, but keep dequeue's loop safe
}

// popLocked removes the head of a tenant's FIFO.
func (q *queue) popLocked(tenant string) *Job {
	tq := q.queues[tenant]
	j := tq[0]
	tq[0] = nil
	q.queues[tenant] = tq[1:]
	q.queued--
	return j
}

// remove deletes a queued job from its tenant's queue — the DELETE
// /v1/jobs path for queued jobs. It reports whether the job was still
// queued (false means a worker already claimed it).
func (q *queue) remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	tq := q.queues[j.Tenant]
	for i, cand := range tq {
		if cand == j {
			q.queues[j.Tenant] = append(tq[:i:i], tq[i+1:]...)
			q.queued--
			return true
		}
	}
	return false
}

// close stops intake; workers keep dequeuing until the backlog is empty,
// then dequeue returns false.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depthNow reports the current backlog, for admission control and tests.
func (q *queue) depthNow() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.queued
}

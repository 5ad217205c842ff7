package serve

import (
	"expvar"
	"fmt"
	"strings"
	"sync"
	"time"

	"perflow/internal/serve/store"
)

// Server metrics in the expvar idiom: every counter is an expvar.Var
// assembled into a private expvar.Map that the /metrics handler renders as
// JSON. The map is built with Init rather than expvar.Publish so several
// servers (tests!) coexist without colliding in the process-global
// registry; cmd/pflow publishes the map globally for /debug/vars.

// latencyBucketsMS are the upper bounds (milliseconds) of the per-analysis
// latency histogram; the last bucket is unbounded.
var latencyBucketsMS = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// latencyHist is a fixed-bucket latency histogram implementing expvar.Var.
type latencyHist struct {
	mu     sync.Mutex
	counts []int64 // len(latencyBucketsMS)+1
	count  int64
	sumUS  int64
	maxUS  int64
}

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]int64, len(latencyBucketsMS)+1)}
}

func (h *latencyHist) Observe(d time.Duration) {
	us := d.Microseconds()
	ms := float64(us) / 1000
	i := 0
	for i < len(latencyBucketsMS) && ms > latencyBucketsMS[i] {
		i++
	}
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sumUS += us
	if us > h.maxUS {
		h.maxUS = us
	}
	h.mu.Unlock()
}

// String renders the histogram as JSON (the expvar.Var contract).
func (h *latencyHist) String() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, `{"count":%d,"sum_us":%d,"max_us":%d,"buckets_ms":{`, h.count, h.sumUS, h.maxUS)
	for i, c := range h.counts {
		if i > 0 {
			b.WriteByte(',')
		}
		if i < len(latencyBucketsMS) {
			fmt.Fprintf(&b, `"le_%g":%d`, latencyBucketsMS[i], c)
		} else {
			fmt.Fprintf(&b, `"inf":%d`, c)
		}
	}
	b.WriteString("}}")
	return b.String()
}

// metrics aggregates every serving counter the /metrics endpoint exposes.
type metrics struct {
	jobsSubmitted        expvar.Int // accepted onto the queue (cache hits excluded)
	jobsQueued           expvar.Int // gauge: waiting in the queue now
	jobsRunning          expvar.Int // gauge: executing now
	jobsDone             expvar.Int
	jobsFailed           expvar.Int
	jobsCanceled         expvar.Int
	jobsRejected         expvar.Int // 429 queue backpressure rejections
	jobsQuotaRejected    expvar.Int // 429 tenant-quota rejections
	jobsDeadlineRejected expvar.Int // 429 deadline-budget admission rejections
	jobsRetried          expvar.Int // execution attempts retried after a transient failure
	jobsRecovered        expvar.Int // jobs re-enqueued from the journal after a restart

	cacheHits      expvar.Int
	cacheMisses    expvar.Int
	cacheEvictions expvar.Int
	cacheCorrupt   expvar.Int // CRC-failed reads discarded by the store
	cacheBytes     expvar.Int // gauge
	cacheEntries   expvar.Int // gauge

	storeErrors    expvar.Int // gauge: backend-error operations (from store stats)
	storeDegraded  expvar.Int // gauge: 1 while the store circuit breaker is open
	breakerTrips   expvar.Int // gauge: times the breaker has tripped open
	journalRecords expvar.Int // gauge: records the job journal has written

	auditCycles  expvar.Int
	auditChecked expvar.Int
	auditDrift   expvar.Int
	auditErrors  expvar.Int

	latency *expvar.Map // analysis name -> *latencyHist
	histMu  sync.Mutex
	hists   map[string]*latencyHist

	tenantVars *expvar.Map // tenant name -> {submitted, completed, rejected}
	tenantMu   sync.Mutex
	tenants    map[string]*tenantCounters

	top *expvar.Map
}

// tenantCounters is one tenant's traffic block in the metric tree.
type tenantCounters struct {
	submitted, completed, rejected expvar.Int
	m                              *expvar.Map
}

func newMetrics() *metrics {
	m := &metrics{
		latency:    new(expvar.Map).Init(),
		hists:      make(map[string]*latencyHist),
		tenantVars: new(expvar.Map).Init(),
		tenants:    make(map[string]*tenantCounters),
		top:        new(expvar.Map).Init(),
	}
	m.top.Set("jobs_submitted", &m.jobsSubmitted)
	m.top.Set("jobs_queued", &m.jobsQueued)
	m.top.Set("jobs_running", &m.jobsRunning)
	m.top.Set("jobs_done", &m.jobsDone)
	m.top.Set("jobs_failed", &m.jobsFailed)
	m.top.Set("jobs_canceled", &m.jobsCanceled)
	m.top.Set("jobs_rejected", &m.jobsRejected)
	m.top.Set("jobs_quota_rejected", &m.jobsQuotaRejected)
	m.top.Set("jobs_deadline_rejected", &m.jobsDeadlineRejected)
	m.top.Set("jobs_retried", &m.jobsRetried)
	m.top.Set("jobs_recovered", &m.jobsRecovered)
	m.top.Set("cache_hits", &m.cacheHits)
	m.top.Set("cache_misses", &m.cacheMisses)
	m.top.Set("cache_evictions", &m.cacheEvictions)
	m.top.Set("cache_corrupt", &m.cacheCorrupt)
	m.top.Set("cache_bytes", &m.cacheBytes)
	m.top.Set("cache_entries", &m.cacheEntries)
	m.top.Set("store_errors", &m.storeErrors)
	m.top.Set("store_degraded", &m.storeDegraded)
	m.top.Set("breaker_trips", &m.breakerTrips)
	m.top.Set("journal_records", &m.journalRecords)
	m.top.Set("audit_cycles", &m.auditCycles)
	m.top.Set("audit_checked", &m.auditChecked)
	m.top.Set("audit_drift", &m.auditDrift)
	m.top.Set("audit_errors", &m.auditErrors)
	m.top.Set("latency_us", m.latency)
	m.top.Set("tenants", m.tenantVars)
	return m
}

// tenant returns (creating on first use) a tenant's counter block.
func (m *metrics) tenant(name string) *tenantCounters {
	m.tenantMu.Lock()
	defer m.tenantMu.Unlock()
	tc, ok := m.tenants[name]
	if !ok {
		tc = &tenantCounters{m: new(expvar.Map).Init()}
		tc.m.Set("submitted", &tc.submitted)
		tc.m.Set("completed", &tc.completed)
		tc.m.Set("rejected", &tc.rejected)
		m.tenants[name] = tc
		m.tenantVars.Set(name, tc.m)
	}
	return tc
}

func (m *metrics) tenantSubmitted(name string) { m.tenant(name).submitted.Add(1) }
func (m *metrics) tenantCompleted(name string) { m.tenant(name).completed.Add(1) }
func (m *metrics) tenantRejected(name string)  { m.tenant(name).rejected.Add(1) }

// ObserveLatency records one finished job's run latency under its analysis
// name.
func (m *metrics) ObserveLatency(analysis string, d time.Duration) {
	m.histMu.Lock()
	h, ok := m.hists[analysis]
	if !ok {
		h = newLatencyHist()
		m.hists[analysis] = h
		m.latency.Set(analysis, h)
	}
	m.histMu.Unlock()
	h.Observe(d)
}

// syncCache copies the result store's counters into the exported gauges.
func (m *metrics) syncCache(st store.Stats) {
	m.cacheHits.Set(st.Hits)
	m.cacheMisses.Set(st.Misses)
	m.cacheEvictions.Set(st.Evictions)
	m.cacheCorrupt.Set(st.Corrupt)
	m.cacheBytes.Set(st.Bytes)
	m.cacheEntries.Set(int64(st.Entries))
	m.storeErrors.Set(st.Errors)
	if st.Degraded {
		m.storeDegraded.Set(1)
	} else {
		m.storeDegraded.Set(0)
	}
}

// Var returns the metric tree as one expvar.Var (a Map rendering to JSON).
func (m *metrics) Var() expvar.Var { return m.top }

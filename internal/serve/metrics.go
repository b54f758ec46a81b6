package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"parbitonic/internal/obs"
	"parbitonic/internal/spmd"
	"parbitonic/internal/verify"
)

// recentKeep and slowestKeep size the sortz request rings: the last N
// completed requests and the N slowest seen since start.
const (
	recentKeep  = 64
	slowestKeep = 16
)

// RequestRecord is one completed request as the ops surface shows it:
// identity, size, outcome, and the per-stage latency breakdown.
// Durations encode to JSON as nanoseconds.
type RequestRecord struct {
	// ID is the request's ID (client-supplied or minted).
	ID string `json:"id"`
	// Keys is the request's key count.
	Keys int `json:"keys"`
	// Outcome is the request's outcome label ("ok", "overloaded", ...).
	Outcome string `json:"outcome"`
	// Degraded marks requests served by the sequential fallback.
	Degraded bool `json:"degraded"`
	// Retried marks requests whose engine run was retried.
	Retried bool `json:"retried"`
	// Start is the wall-clock admission instant.
	Start time.Time `json:"start"`
	// Total is the end-to-end latency, admission to record.
	Total time.Duration `json:"total"`
	// Stages is the per-stage breakdown; it sums to ~Total.
	Stages obs.StageBreakdown `json:"stages"`
}

// ActiveBatch is one engine run currently in flight: which request IDs
// it coalesced and how many keys it carries.
type ActiveBatch struct {
	// Seq is the run's sequence number (monotonic per server).
	Seq uint64 `json:"seq"`
	// Requests lists the coalesced member request IDs.
	Requests []string `json:"requests"`
	// Keys is the batch's summed key count, pre-padding.
	Keys int `json:"keys"`
	// Started is when the run entered flight.
	Started time.Time `json:"started"`
}

// latencyBuckets are the request-latency histogram upper bounds in
// seconds: log-spaced from 100µs (a pooled in-memory hit) to 10s.
var latencyBuckets = [...]float64{1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 10}

// sizeBuckets are the batch-size histogram upper bounds in requests.
var sizeBuckets = [...]float64{1, 2, 4, 8, 16, 32, 64}

// driftBuckets are the plan-drift histogram upper bounds: the
// measured/predicted engine-time ratio of Auto runs, bracketed around
// 1.0 (an exact prediction). Mass above 2 means the planner's machine
// profile no longer describes the host — re-calibrate (TUNING.md).
var driftBuckets = [...]float64{0.5, 0.75, 0.9, 1, 1.1, 1.25, 1.5, 2, 4}

// planShape identifies one autotuner-chosen execution shape for the
// plan_chosen counter labels.
type planShape struct {
	alg string
	p   int
}

// hist is a fixed-bucket cumulative histogram (Prometheus semantics):
// counts[i] counts observations ≤ bounds[i], overflow lands only in
// the implicit +Inf bucket.
type hist struct {
	bounds []float64
	counts []uint64
	sum    float64
	count  uint64
}

func newHist(bounds []float64) *hist {
	return &hist{bounds: bounds, counts: make([]uint64, len(bounds))}
}

func (h *hist) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.counts) {
		h.counts[i]++
	}
	h.sum += v
	h.count++
}

// poolStatser decouples Metrics from the pool's element type: every
// PoolOf instantiation satisfies it.
type poolStatser interface {
	Stats() PoolStats
}

// Metrics aggregates the serve layer's operational signals — the ones
// engine-run telemetry (internal/obs) cannot see because they live in
// front of the runtime: admission rejections, queue depth, batch
// sizes, end-to-end request latency. Scrape via WriteProm (the HTTP
// handler merges it into /metrics); every series carries an elem label
// naming the server's element type, so the per-type servers behind a
// Gateway scrape as one valid exposition. All methods are safe for
// concurrent use.
type Metrics struct {
	mu       sync.Mutex
	elem     string             // element-type label value (u32, u64, ...)
	requests map[string]float64 // outcome -> count
	batches  float64
	batched  float64 // requests that shared a run with >= 1 companion
	retries  float64 // engine runs retried after a transient failure
	runs     int64   // engine-run attempts timed, for meanEngineRun
	runTime  time.Duration
	degraded float64 // requests served by the sequential fallback
	latency  *hist   // seconds, admission to response
	size     *hist   // requests per batch

	planKinds map[planShape]float64 // Auto runs by plan-chosen shape
	planDrift *hist                 // measured/predicted engine time, native Auto runs

	queueDepth   func() int // sampled at scrape time
	breakerState func() int // sampled at scrape time; nil = no breaker
	pool         poolStatser

	stages *obs.Stages // request-scoped stage/tail/SLO telemetry; own locking

	recent    [recentKeep]RequestRecord // ring of the last completed requests
	recentPos int
	recentN   int
	slowest   []RequestRecord // the slowest requests seen, descending by Total

	active   map[uint64]ActiveBatch // engine runs in flight, by sequence
	batchSeq uint64
}

func newMetrics(elem string, queueDepth func() int, pool poolStatser, slo obs.SLOConfig) *Metrics {
	return &Metrics{
		elem: elem,
		requests: map[string]float64{
			"ok": 0, "overloaded": 0, "canceled": 0, "deadline": 0,
			"verify-failure": 0, "breaker-open": 0, "error": 0,
		},
		latency:    newHist(latencyBuckets[:]),
		size:       newHist(sizeBuckets[:]),
		planKinds:  make(map[planShape]float64),
		planDrift:  newHist(driftBuckets[:]),
		queueDepth: queueDepth,
		pool:       pool,
		stages:     obs.NewStages(elem, slo),
		active:     make(map[uint64]ActiveBatch),
	}
}

// outcome classifies a completed request's error for the counter
// label set (pre-registered at zero in newMetrics so absent series
// never alias to zero series in alerts).
func outcome(err error) string {
	var verr *verify.Error
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrBreakerOpen):
		return "breaker-open"
	case errors.Is(err, spmd.ErrCanceled), errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, spmd.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.As(err, &verr):
		return "verify-failure"
	default:
		return "error"
	}
}

func (m *Metrics) observeRequest(d time.Duration, err error) {
	m.mu.Lock()
	m.requests[outcome(err)]++
	m.latency.observe(d.Seconds())
	m.mu.Unlock()
}

func (m *Metrics) reject() {
	m.mu.Lock()
	m.requests["overloaded"]++
	m.mu.Unlock()
}

// failFast counts a request refused by an open circuit breaker.
func (m *Metrics) failFast() {
	m.mu.Lock()
	m.requests["breaker-open"]++
	m.mu.Unlock()
}

// retry counts one engine-run retry of a transient failure.
func (m *Metrics) retry() {
	m.mu.Lock()
	m.retries++
	m.mu.Unlock()
}

// observeEngineRun records the wall time of one engine-run attempt —
// the same interval its members charge to the engine stage.
func (m *Metrics) observeEngineRun(d time.Duration) {
	m.mu.Lock()
	m.runs++
	m.runTime += d
	m.mu.Unlock()
}

// meanEngineRun returns the mean engine-run attempt time so far, or 0
// before the first run. It is taken per run, not from the request
// stage histogram, because refused requests record a zero engine stage
// and would drag the mean down exactly under overload.
func (m *Metrics) meanEngineRun() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.runs == 0 {
		return 0
	}
	return m.runTime / time.Duration(m.runs)
}

// degrade counts one request served by the sequential fallback.
func (m *Metrics) degrade() {
	m.mu.Lock()
	m.degraded++
	m.mu.Unlock()
}

// planChoose counts one engine run executed under an autotuner-chosen
// plan shape (Config.Engine.Auto).
func (m *Metrics) planChoose(alg string, p int) {
	m.mu.Lock()
	m.planKinds[planShape{alg: alg, p: p}]++
	m.mu.Unlock()
}

// planObserve records the measured/predicted engine-time ratio of one
// successful native Auto run: 1.0 means the planner's cost model was
// exact, above 1 the run was slower than predicted.
func (m *Metrics) planObserve(ratio float64) {
	m.mu.Lock()
	m.planDrift.observe(ratio)
	m.mu.Unlock()
}

// PlanChosenCount returns how many engine runs executed under the
// given autotuner-chosen shape (algorithm name as parbitonic renders
// it, processor count). Always zero without Engine.Auto.
func (m *Metrics) PlanChosenCount(alg string, p int) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.planKinds[planShape{alg: alg, p: p}]
}

// PlanDrift returns the count and sum of the plan-drift ratio
// observations (successful native Auto runs); sum/count is the mean
// measured/predicted ratio.
func (m *Metrics) PlanDrift() (count uint64, sum float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.planDrift.count, m.planDrift.sum
}

// recordRequest folds one completed request's stage track into the
// request-scoped telemetry: stage histograms, tail estimators, the SLO
// window, and the sortz recent/slowest rings. Called by the submitting
// goroutine at SortDegradable exit (never for abandoned requests, whose
// tracks the pipeline still owns).
func (m *Metrics) recordRequest(tr *reqTrack, err error, degraded bool) {
	total := tr.total()
	m.stages.Observe(tr.dur, total, tr.neg, err == nil)
	rec := RequestRecord{
		ID:       tr.id,
		Keys:     tr.keys,
		Outcome:  outcome(err),
		Degraded: degraded,
		Retried:  tr.dur[obs.StageRetry] > 0,
		Start:    tr.wallStart,
		Total:    total,
		Stages:   tr.dur,
	}
	m.mu.Lock()
	m.recent[m.recentPos] = rec
	m.recentPos = (m.recentPos + 1) % recentKeep
	if m.recentN < recentKeep {
		m.recentN++
	}
	i := sort.Search(len(m.slowest), func(i int) bool { return m.slowest[i].Total < rec.Total })
	if i < slowestKeep {
		m.slowest = append(m.slowest, RequestRecord{})
		copy(m.slowest[i+1:], m.slowest[i:])
		m.slowest[i] = rec
		if len(m.slowest) > slowestKeep {
			m.slowest = m.slowest[:slowestKeep]
		}
	}
	m.mu.Unlock()
}

// batchStart registers an engine run entering flight and returns its
// sequence number for batchEnd.
func (m *Metrics) batchStart(ids []string, keys int) uint64 {
	m.mu.Lock()
	m.batchSeq++
	seq := m.batchSeq
	m.active[seq] = ActiveBatch{
		Seq: seq, Requests: append([]string(nil), ids...),
		Keys: keys, Started: time.Now(),
	}
	m.mu.Unlock()
	return seq
}

// batchEnd removes a completed engine run from the active set.
func (m *Metrics) batchEnd(seq uint64) {
	m.mu.Lock()
	delete(m.active, seq)
	m.mu.Unlock()
}

// Stages returns the request-scoped stage/tail/SLO telemetry.
func (m *Metrics) Stages() *obs.Stages { return m.stages }

// Elem returns the element-type label the server's series carry.
func (m *Metrics) Elem() string { return m.elem }

// RecentRequests returns the last completed requests, newest first.
func (m *Metrics) RecentRequests() []RequestRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RequestRecord, 0, m.recentN)
	for i := 0; i < m.recentN; i++ {
		out = append(out, m.recent[(m.recentPos-1-i+2*recentKeep)%recentKeep])
	}
	return out
}

// SlowestRequests returns the slowest completed requests since start,
// slowest first.
func (m *Metrics) SlowestRequests() []RequestRecord {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]RequestRecord(nil), m.slowest...)
}

// ActiveBatches returns the engine runs currently in flight, oldest
// first.
func (m *Metrics) ActiveBatches() []ActiveBatch {
	m.mu.Lock()
	out := make([]ActiveBatch, 0, len(m.active))
	for _, b := range m.active {
		out = append(out, b)
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

func (m *Metrics) observeBatch(size int) {
	m.mu.Lock()
	m.batches++
	if size > 1 {
		m.batched += float64(size)
	}
	m.size.observe(float64(size))
	m.mu.Unlock()
}

// RequestCount returns the count of requests with the given outcome
// ("ok", "overloaded", "canceled", "deadline", "verify-failure",
// "error").
func (m *Metrics) RequestCount(outcome string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests[outcome]
}

// BatchCount returns (batches executed, requests that shared a batch).
func (m *Metrics) BatchCount() (batches, batchedRequests float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batches, m.batched
}

// RetryCount returns how many engine runs were retried.
func (m *Metrics) RetryCount() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.retries
}

// DegradedCount returns how many requests the sequential fallback
// served.
func (m *Metrics) DegradedCount() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degraded
}

// WriteProm writes the serve metrics in the Prometheus text exposition
// format (version 0.0.4).
func (m *Metrics) WriteProm(w io.Writer) error {
	return m.writeProm(w, true)
}

// writeProm is WriteProm with the HELP/TYPE headers optional: when
// several per-element servers scrape into one response (Gateway), only
// the first may emit headers — a metric name must carry at most one
// TYPE line per exposition.
func (m *Metrics) writeProm(w io.Writer, headers bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	if !headers {
		raw := p
		p = func(format string, args ...any) {
			if len(format) > 0 && format[0] == '#' {
				return
			}
			raw(format, args...)
		}
	}

	p("# HELP parbitonic_serve_requests_total Sort requests by outcome.\n")
	p("# TYPE parbitonic_serve_requests_total counter\n")
	keys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p("parbitonic_serve_requests_total{elem=%q,outcome=%q} %v\n", m.elem, k, m.requests[k])
	}

	p("# HELP parbitonic_serve_queue_depth Requests waiting in the admission queue (sampled at scrape).\n")
	p("# TYPE parbitonic_serve_queue_depth gauge\n")
	p("parbitonic_serve_queue_depth{elem=%q} %d\n", m.elem, m.queueDepth())

	p("# HELP parbitonic_serve_batches_total Engine runs executed (a batch of size 1 is a solo run).\n")
	p("# TYPE parbitonic_serve_batches_total counter\n")
	p("parbitonic_serve_batches_total{elem=%q} %v\n", m.elem, m.batches)

	p("# HELP parbitonic_serve_batched_requests_total Requests that shared a run with at least one companion.\n")
	p("# TYPE parbitonic_serve_batched_requests_total counter\n")
	p("parbitonic_serve_batched_requests_total{elem=%q} %v\n", m.elem, m.batched)

	p("# HELP parbitonic_serve_retries_total Engine runs retried after a transient failure.\n")
	p("# TYPE parbitonic_serve_retries_total counter\n")
	p("parbitonic_serve_retries_total{elem=%q} %v\n", m.elem, m.retries)

	p("# HELP parbitonic_serve_degraded_total Requests served by the sequential degraded-mode fallback.\n")
	p("# TYPE parbitonic_serve_degraded_total counter\n")
	p("parbitonic_serve_degraded_total{elem=%q} %v\n", m.elem, m.degraded)

	if len(m.planKinds) > 0 {
		p("# HELP parbitonic_serve_plan_chosen_total Engine runs by autotuner-chosen plan shape (Config.Engine.Auto).\n")
		p("# TYPE parbitonic_serve_plan_chosen_total counter\n")
		shapes := make([]planShape, 0, len(m.planKinds))
		for k := range m.planKinds {
			shapes = append(shapes, k)
		}
		sort.Slice(shapes, func(i, j int) bool {
			if shapes[i].alg != shapes[j].alg {
				return shapes[i].alg < shapes[j].alg
			}
			return shapes[i].p < shapes[j].p
		})
		for _, k := range shapes {
			p("parbitonic_serve_plan_chosen_total{elem=%q,alg=%q,p=\"%d\"} %v\n", m.elem, k.alg, k.p, m.planKinds[k])
		}
		p("# HELP parbitonic_serve_plan_drift_ratio Measured/predicted engine time of successful Auto runs (native backend).\n")
		p("# TYPE parbitonic_serve_plan_drift_ratio histogram\n")
		m.writeServeHist(p, "parbitonic_serve_plan_drift_ratio", m.planDrift)
	}

	if m.breakerState != nil {
		p("# HELP parbitonic_serve_breaker_state Circuit breaker position (0 closed, 1 open, 2 half-open).\n")
		p("# TYPE parbitonic_serve_breaker_state gauge\n")
		p("parbitonic_serve_breaker_state{elem=%q} %d\n", m.elem, m.breakerState())
	}

	p("# HELP parbitonic_serve_batch_requests Requests coalesced per engine run.\n")
	p("# TYPE parbitonic_serve_batch_requests histogram\n")
	m.writeServeHist(p, "parbitonic_serve_batch_requests", m.size)

	p("# HELP parbitonic_serve_request_seconds End-to-end request latency, admission to response.\n")
	p("# TYPE parbitonic_serve_request_seconds histogram\n")
	m.writeServeHist(p, "parbitonic_serve_request_seconds", m.latency)

	ps := m.pool.Stats()
	p("# HELP parbitonic_serve_pool_gets_total Engine checkouts from the pool.\n")
	p("# TYPE parbitonic_serve_pool_gets_total counter\n")
	p("parbitonic_serve_pool_gets_total{elem=%q} %d\n", m.elem, ps.Gets)
	p("# HELP parbitonic_serve_pool_hits_total Checkouts served without constructing an engine.\n")
	p("# TYPE parbitonic_serve_pool_hits_total counter\n")
	p("parbitonic_serve_pool_hits_total{elem=%q} %d\n", m.elem, ps.Hits)
	p("# HELP parbitonic_serve_pool_idle_engines Engines currently parked in the pool.\n")
	p("# TYPE parbitonic_serve_pool_idle_engines gauge\n")
	p("parbitonic_serve_pool_idle_engines{elem=%q} %d\n", m.elem, ps.Idle)
	p("# HELP parbitonic_serve_quarantined_engines_total Engines destroyed instead of recycled after an unhealthy run.\n")
	p("# TYPE parbitonic_serve_quarantined_engines_total counter\n")
	p("parbitonic_serve_quarantined_engines_total{elem=%q} %d\n", m.elem, ps.Quarantined)
	p("# HELP parbitonic_serve_evicted_engines_total Idle engines evicted by a per-shape failure streak.\n")
	p("# TYPE parbitonic_serve_evicted_engines_total counter\n")
	p("parbitonic_serve_evicted_engines_total{elem=%q} %d\n", m.elem, ps.Evicted)

	if err == nil {
		err = m.stages.WriteProm(w, headers)
	}
	return err
}

func (m *Metrics) writeServeHist(p func(string, ...any), name string, h *hist) {
	cum := uint64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i]
		p("%s_bucket{elem=%q,le=\"%g\"} %d\n", name, m.elem, ub, cum)
	}
	p("%s_bucket{elem=%q,le=\"+Inf\"} %d\n", name, m.elem, h.count)
	p("%s_sum{elem=%q} %v\n", name, m.elem, h.sum)
	p("%s_count{elem=%q} %d\n", name, m.elem, h.count)
}

// Package server implements relm-serve, the long-running query service over
// the relm engine (DESIGN.md decision 8). The ROADMAP's north star is a
// system that "serves heavy traffic from millions of users"; this package is
// the session layer that makes the library operable behind a stable HTTP
// interface:
//
//	POST /v1/search   — run a query, streaming matches incrementally as
//	                    NDJSON (default) or SSE (Accept: text/event-stream)
//	GET  /v1/stats    — per-query and aggregate engine.Stats, shared-cache
//	                    attribution, device counters
//	GET  /v1/models   — the model registry
//	GET  /v1/trace    — recent query traces (DESIGN.md decision 16); see
//	                    observe.go
//	GET  /metrics     — Prometheus text exposition of every counter family
//	GET  /healthz     — liveness, uptime, build info, drain state, model
//	                    fingerprints
//	/v1/jobs...       — the durable validation-job API (DESIGN.md decision
//	                    11), mounted by EnableJobs; see jobs.go
//
// Every query runs in a relm.Session: one shared logit cache and one virtual
// device per model, with per-query cache-hit attribution. Admission control
// bounds concurrent queries; per-query deadlines and client disconnects
// cancel the underlying traversal via Results.Close, so an abandoned stream
// stops consuming the device.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/relm"
)

// Config sizes the service. Zero values take the listed defaults.
type Config struct {
	// MaxConcurrent bounds queries in flight; further requests are rejected
	// with 429 (default 4).
	MaxConcurrent int
	// MaxMatches caps any single query's match budget (default 1000).
	MaxMatches int
	// DefaultMatches is the budget when a request omits max_matches
	// (default 10).
	DefaultMatches int
	// MaxDeadline caps a request's deadline (default 30s).
	MaxDeadline time.Duration
	// DefaultDeadline applies when a request omits deadline_ms (default 10s).
	DefaultDeadline time.Duration
	// MaxParallelism caps a request's engine worker width — without it one
	// admitted query could fan expansion out across an unbounded goroutine
	// count, bypassing the shared pool's host-concurrency bound (default
	// runtime.NumCPU()).
	MaxParallelism int
	// MaxBatchExpand caps a request's frontier batch per device round,
	// bounding per-round memory (default 1024).
	MaxBatchExpand int
	// MaxBeamWidth caps a request's beam hypothesis budget — the beam
	// holds Width nodes per step, so an unclamped width is an unclamped
	// memory bound (default 256).
	MaxBeamWidth int
	// MaxEdits caps the Levenshtein preprocessor distance. Each edit
	// composes another distance-1 automaton product, so cost grows steeply
	// with K; larger requests are rejected rather than silently weakened,
	// since clamping would change the query's language (default 3).
	MaxEdits int
	// History is how many finished queries /v1/stats retains (default 64).
	History int
}

func (c *Config) defaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.MaxMatches <= 0 {
		c.MaxMatches = 1000
	}
	if c.DefaultMatches <= 0 {
		c.DefaultMatches = 10
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 10 * time.Second
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = runtime.NumCPU()
	}
	if c.MaxBatchExpand <= 0 {
		c.MaxBatchExpand = 1024
	}
	if c.MaxBeamWidth <= 0 {
		c.MaxBeamWidth = 256
	}
	if c.MaxEdits <= 0 {
		c.MaxEdits = 3
	}
	if c.History <= 0 {
		c.History = 64
	}
}

// Server is the query service. Create with New, register models with
// AddModel, then mount it as an http.Handler.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	sem     chan struct{}
	started time.Time

	nextID   atomic.Int64
	rejected atomic.Int64
	// draining flips once at shutdown: admission stops (503 + Retry-After so
	// load balancers and retrying clients move on), health checks fail, and
	// in-flight streams run to completion under the drain timeout.
	draining atomic.Bool

	mu      sync.Mutex
	models  map[string]*relm.Model
	active  map[int64]*queryRecord
	history []*queryRecord
	agg     engine.Stats // summed over finished queries
	byState map[string]int64
	// fingerprints caches each model's behavioral fingerprint, computed once
	// at registration — Fingerprint hashes probe generations, too expensive
	// for every /healthz poll.
	fingerprints map[string]string
	// jobsMgr is the validation-job subsystem, mounted by EnableJobs (nil:
	// the /v1/jobs API is absent and /v1/stats omits the jobs block).
	jobsMgr *jobs.Manager
}

// New builds a server with an empty registry.
func New(cfg Config) *Server {
	cfg.defaults()
	s := &Server{
		cfg:          cfg,
		mux:          http.NewServeMux(),
		sem:          make(chan struct{}, cfg.MaxConcurrent),
		started:      time.Now(),
		models:       map[string]*relm.Model{},
		active:       map[int64]*queryRecord{},
		byState:      map[string]int64{},
		fingerprints: map[string]string{},
	}
	s.mux.HandleFunc("/v1/search", s.handleSearch)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/trace", s.handleTraceList)
	s.mux.HandleFunc("/v1/trace/", s.handleTraceGet)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// BeginDrain stops admission: new searches, job submissions, and resumes get
// 503 + Retry-After while queries already streaming finish. Idempotent;
// Serve calls it on the shutdown signal, and tests call it directly.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether admission has been stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// retryAfter stamps the backoff hint on a rejection. One second matches the
// admission-control story: overload and drain are short-lived conditions, and
// clients honoring the header (relm-audit does) re-poll instead of hammering.
func retryAfter(w http.ResponseWriter) { w.Header().Set("Retry-After", "1") }

// AddModel registers a model under name. Models are shared across queries:
// each request runs in a session over the model's cache and device. When
// the jobs subsystem is mounted, the model joins its registry too.
func (s *Server) AddModel(name string, m *relm.Model) {
	// Fingerprint runs probe generations — compute it outside the lock, once,
	// so /healthz can serve it for free.
	fp := m.Fingerprint()
	// Trace IDs become "name-N", so /v1/trace rows are attributable to a
	// model without a second lookup.
	m.Tracer().SetIDPrefix(name)
	s.mu.Lock()
	jm := s.jobsMgr
	s.models[name] = m
	s.fingerprints[name] = fp
	s.mu.Unlock()
	if jm != nil {
		jm.RegisterModel(name, m)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// errUnknownModel classifies registry misses, mapped to 404 by the search
// handler (every other request defect is a 400).
var errUnknownModel = errors.New("unknown model")

// lookup resolves a model by name; an empty name resolves iff exactly one
// model is registered.
func (s *Server) lookup(name string) (*relm.Model, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" {
		if len(s.models) == 1 {
			for n, m := range s.models {
				return m, n, nil
			}
		}
		return nil, "", fmt.Errorf("model is required (registry has %d models)", len(s.models))
	}
	m, ok := s.models[name]
	if !ok {
		return nil, "", fmt.Errorf("%w %q", errUnknownModel, name)
	}
	return m, name, nil
}

// queryRecord tracks one query's lifecycle for /v1/stats. The engine and
// cache counters it references are atomic, so live snapshots are race-free
// while the traversal runs.
type queryRecord struct {
	id       int64
	model    string
	pattern  string
	prefix   string
	strategy string
	started  time.Time

	matches atomic.Int64

	mu       sync.Mutex
	status   string // "running", then a terminal status
	errMsg   string
	finished time.Time
	// results/session are live only while the query runs; finish swaps
	// them for value snapshots so a retired record doesn't pin the
	// traversal's node heap in the /v1/stats history.
	results     *relm.Results
	session     *relm.Session
	finalEngine engine.Stats
	finalCache  cache.ScopeStats
}

// Terminal statuses.
const (
	statusRunning   = "running"
	statusBudget    = "budget"    // hit the per-query match budget
	statusExhausted = "exhausted" // language fully drained
	statusCancelled = "cancelled" // client disconnect or explicit cancel
	statusDeadline  = "deadline"  // per-query deadline expired
	statusError     = "error"     // engine failure
)

func (r *queryRecord) finish(status, errMsg string) {
	r.mu.Lock()
	r.status = status
	r.errMsg = errMsg
	r.finished = time.Now()
	r.finalEngine = r.results.Stats()
	r.finalCache = r.session.CacheStats()
	r.results = nil
	r.session = nil
	r.mu.Unlock()
}

// QuerySnapshot is one query's state as reported by /v1/stats.
type QuerySnapshot struct {
	ID         int64            `json:"id"`
	Model      string           `json:"model"`
	Pattern    string           `json:"pattern"`
	Prefix     string           `json:"prefix,omitempty"`
	Strategy   string           `json:"strategy"`
	Status     string           `json:"status"`
	Error      string           `json:"error,omitempty"`
	Matches    int64            `json:"matches"`
	Engine     engine.Stats     `json:"engine"`
	Cache      cache.ScopeStats `json:"cache"`
	DurationMS int64            `json:"duration_ms"`
}

func (r *queryRecord) snapshot() QuerySnapshot {
	r.mu.Lock()
	status, errMsg, finished := r.status, r.errMsg, r.finished
	es, cs := r.finalEngine, r.finalCache
	if r.results != nil { // still running: read the live atomic counters
		es = r.results.Stats()
		cs = r.session.CacheStats()
	}
	r.mu.Unlock()
	end := finished
	if end.IsZero() {
		end = time.Now()
	}
	return QuerySnapshot{
		ID:         r.id,
		Model:      r.model,
		Pattern:    r.pattern,
		Prefix:     r.prefix,
		Strategy:   r.strategy,
		Status:     status,
		Error:      errMsg,
		Matches:    r.matches.Load(),
		Engine:     es,
		Cache:      cs,
		DurationMS: end.Sub(r.started).Milliseconds(),
	}
}

// register enters a started query into the active table.
func (s *Server) register(rec *queryRecord) {
	s.mu.Lock()
	s.active[rec.id] = rec
	s.mu.Unlock()
}

// retire moves a finished query from the active table into history and
// accumulates its engine counters into the aggregate.
func (s *Server) retire(rec *queryRecord, status string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.active, rec.id)
	s.history = append(s.history, rec)
	if len(s.history) > s.cfg.History {
		s.history = s.history[len(s.history)-s.cfg.History:]
	}
	rec.mu.Lock()
	es := rec.finalEngine
	rec.mu.Unlock()
	s.agg.Add(es)
	s.byState[status]++
}

// ModelStats is one registry entry's shared-infrastructure counters.
type ModelStats struct {
	Name         string  `json:"name"`
	VocabSize    int     `json:"vocab_size"`
	MaxSeqLen    int     `json:"max_seq_len"`
	DeviceClock  int64   `json:"device_clock_ms"`
	DeviceUtil   float64 `json:"device_utilization"`
	Batches      int64   `json:"device_batches"`
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheFlights int64   `json:"cache_flights"`
	CacheLen     int     `json:"cache_len"`
	// Plan-cache counters (DESIGN.md decision 9): PlanHits are queries that
	// skipped regex/token compilation entirely because an identical compiled
	// plan was cached; PlanCompileMS is the cumulative wall time the misses
	// spent compiling — on a warm cache it stops growing.
	PlanHits      int64 `json:"plan_hits"`
	PlanMisses    int64 `json:"plan_misses"`
	PlanBypassed  int64 `json:"plan_bypassed"`
	PlanEntries   int   `json:"plan_entries"`
	PlanCompileMS int64 `json:"plan_compile_ms"`
	// KV-arena counters (DESIGN.md decision 10): parent-state reuse during
	// incremental frontier expansion. KVHits are one-token extensions that
	// replaced full-prefix forwards; KVEvictions and KVResidentBytes show
	// the byte budget at work.
	KVHits          int64 `json:"kv_hits"`
	KVMisses        int64 `json:"kv_misses"`
	KVEvictions     int64 `json:"kv_evictions"`
	KVResidentBytes int64 `json:"kv_resident_bytes"`
	KVNodes         int   `json:"kv_nodes"`
	// Tiered-compression counters (DESIGN.md decision 14): the demoted slice
	// of the arena right now, and tier transitions over its lifetime.
	KVCompressedNodes int   `json:"kv_compressed_nodes"`
	KVCompressedBytes int64 `json:"kv_compressed_bytes"`
	KVPromotions      int64 `json:"kv_promotions"`
	KVDemotions       int64 `json:"kv_demotions"`
	// Batcher is the continuous-batching section (DESIGN.md decision 12),
	// present only when fusion is enabled on the model's device.
	Batcher *BatcherBlock `json:"batcher,omitempty"`
	// Trace is the query-tracing section (DESIGN.md decision 16), present
	// once the model has made at least one sampling decision.
	Trace *TraceBlock `json:"trace,omitempty"`
}

// TraceBlock reports the tracer's sampling activity: queries traced vs
// skipped by the sampling rate, traces published over the model's lifetime,
// and how many the bounded ring currently retains for /v1/trace.
type TraceBlock struct {
	Sampled  int64 `json:"sampled"`
	Skipped  int64 `json:"skipped"`
	Stored   int64 `json:"stored"`
	Retained int   `json:"retained"`
}

// BatcherBlock reports the fusion scheduler's counters: how much cross-query
// packing the device is getting (occupancy, multi-query batches), how deep
// the admission queue runs, why batches flushed, and the fair-share spread.
// Ready flushes are batches sent before the window expired because every
// live query already had a request pending.
type BatcherBlock struct {
	FusedBatches      int64   `json:"fused_batches"`
	FusedRows         int64   `json:"fused_rows"`
	MeanOccupancy     float64 `json:"mean_occupancy"`
	MultiQueryBatches int64   `json:"multi_query_batches"`
	QueueDepth        int     `json:"queue_depth"`
	PeakQueueDepth    int     `json:"peak_queue_depth"`
	WindowFlushes     int64   `json:"window_flushes"`
	SizeFlushes       int64   `json:"size_flushes"`
	UrgentFlushes     int64   `json:"urgent_flushes"`
	ReadyFlushes      int64   `json:"ready_flushes"`
	FairnessDeficit   int64   `json:"fairness_deficit"`
	// Circuit breaker: "closed" or "open"; trips are closed→open
	// transitions, shed is requests refused while open (their callers ran
	// them as unfused batches instead).
	BreakerState string `json:"breaker_state"`
	BreakerTrips int64  `json:"breaker_trips"`
	BreakerShed  int64  `json:"breaker_shed"`
}

// StatsResponse is the /v1/stats payload. Jobs is present only when the
// validation-job subsystem is mounted: lifecycle counters plus ledger bytes
// written, alongside the per-model kv_*/plan_* counters.
type StatsResponse struct {
	Active    int                `json:"active"`
	Rejected  int64              `json:"rejected"`
	ByStatus  map[string]int64   `json:"by_status"`
	Aggregate engine.Stats       `json:"aggregate"`
	Queries   []QuerySnapshot    `json:"queries"`
	Models    []ModelStats       `json:"models"`
	Jobs      *jobs.ManagerStats `json:"jobs,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	writeJSON(w, http.StatusOK, s.snapshotStats())
}

// snapshotStats gathers every counter family at one coherent point — the
// single reader behind both /v1/stats and /metrics, so the two exposures can
// never disagree about what a counter means or when it is read.
//
// Read order is part of the contract: per-query engine counters are
// snapshotted BEFORE the shared model families (device, batcher, caches). A
// query's counters advance only after the shared infrastructure has already
// recorded the underlying work (a batcher row is counted before the request's
// done channel closes and the stream adds its model call), so reading queries
// first guarantees reconciliation invariants like fused_rows >= the rows
// implied by any per-query total — TestStatsCoherence holds the server to
// this.
func (s *Server) snapshotStats() StatsResponse {
	s.mu.Lock()
	jm := s.jobsMgr
	resp := StatsResponse{
		Active:    len(s.active),
		Rejected:  s.rejected.Load(),
		ByStatus:  map[string]int64{},
		Aggregate: s.agg,
	}
	for k, v := range s.byState {
		resp.ByStatus[k] = v
	}
	recs := make([]*queryRecord, 0, len(s.active)+len(s.history))
	recs = append(recs, s.history...)
	for _, rec := range s.active {
		recs = append(recs, rec)
	}
	var names []string
	for n := range s.models {
		names = append(names, n)
	}
	models := make(map[string]*relm.Model, len(s.models))
	for n, m := range s.models {
		models[n] = m
	}
	s.mu.Unlock()

	sort.Slice(recs, func(i, j int) bool { return recs[i].id < recs[j].id })
	for _, rec := range recs {
		snap := rec.snapshot()
		resp.Queries = append(resp.Queries, snap)
		if snap.Status == statusRunning {
			// Live queries contribute to the aggregate view too.
			resp.Aggregate.Add(snap.Engine)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		resp.Models = append(resp.Models, modelStats(n, models[n]))
	}
	if jm != nil {
		js := jm.Stats()
		resp.Jobs = &js
	}
	return resp
}

// modelStats snapshots one model's shared counter families back-to-back.
func modelStats(n string, m *relm.Model) ModelStats {
	ms := ModelStats{
		Name:      n,
		VocabSize: m.LM.VocabSize(),
		MaxSeqLen: m.LM.MaxSeqLen(),
	}
	ds := m.Dev.Stats()
	ms.DeviceClock = ds.Clock.Milliseconds()
	ms.DeviceUtil = ds.Utilization
	ms.Batches = ds.Batches
	if c := m.Cache(); c != nil {
		ms.CacheHits, ms.CacheMisses = c.Stats()
		ms.CacheFlights = c.FlightStats()
		ms.CacheLen = c.Len()
	}
	ps := m.PlanCacheStats()
	ms.PlanHits = ps.Hits
	ms.PlanMisses = ps.Misses
	ms.PlanBypassed = ps.Bypassed
	ms.PlanEntries = ps.Entries
	ms.PlanCompileMS = ps.CompileTime.Milliseconds()
	ks := m.KVStats()
	ms.KVHits = ks.Hits
	ms.KVMisses = ks.Misses
	ms.KVEvictions = ks.Evictions
	ms.KVResidentBytes = ks.ResidentBytes
	ms.KVNodes = ks.Nodes
	ms.KVCompressedNodes = ks.CompressedNodes
	ms.KVCompressedBytes = ks.CompressedBytes
	ms.KVPromotions = ks.Promotions
	ms.KVDemotions = ks.Demotions
	if m.Fused() {
		bs := m.BatcherStats()
		ms.Batcher = &BatcherBlock{
			FusedBatches:      bs.FusedBatches,
			FusedRows:         bs.Rows,
			MeanOccupancy:     bs.MeanOccupancy,
			MultiQueryBatches: bs.MultiQueryBatches,
			QueueDepth:        bs.QueueDepth,
			PeakQueueDepth:    bs.PeakQueueDepth,
			WindowFlushes:     bs.WindowFlushes,
			SizeFlushes:       bs.SizeFlushes,
			UrgentFlushes:     bs.UrgentFlushes,
			ReadyFlushes:      bs.ReadyFlushes,
			FairnessDeficit:   bs.FairnessDeficit,
			BreakerState:      bs.BreakerState,
			BreakerTrips:      bs.BreakerTrips,
			BreakerShed:       bs.BreakerShed,
		}
	}
	if tc := m.Tracer().Counts(); tc.Sampled+tc.Skipped > 0 {
		ms.Trace = &TraceBlock{
			Sampled:  tc.Sampled,
			Skipped:  tc.Skipped,
			Stored:   tc.Stored,
			Retained: tc.Retained,
		}
	}
	return ms
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	names := make([]string, 0, len(s.models))
	for n := range s.models {
		names = append(names, n)
	}
	s.mu.Unlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string][]string{"models": names})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

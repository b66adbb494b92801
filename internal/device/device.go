// Package device simulates the accelerator that backs LLM inference (see
// DESIGN.md, substitution table: the paper ran a GTX-3080). The executor
// submits batches of contexts; the device charges a latency model (fixed
// dispatch overhead plus per-sequence and per-token costs) against a virtual
// clock and meters busy time, so experiments can report throughput and
// utilization figures analogous to the paper's nvidia-smi measurements —
// without any wall-clock dependence, keeping benches deterministic.
//
// A Device is a *view*: the model it scores with plus a shared accounting
// core (clock, counters, worker pool). WithModel derives a second view over
// the same core scoring through a different model — a query-serving layer
// uses this to give each query a cache-attribution scope while all queries
// share one device's clock, batch limits, and workers (DESIGN.md
// decision 8).
package device

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/model"
	"repro/internal/trace"
)

// LatencyModel prices a batch. Defaults approximate a mid-range GPU running
// a 1.5B-parameter model: ~3ms dispatch, ~0.9ms per sequence in the batch,
// ~0.02ms per context token.
type LatencyModel struct {
	Dispatch    time.Duration // fixed cost per batch
	PerSequence time.Duration // marginal cost per sequence
	PerToken    time.Duration // marginal cost per context token
}

// DefaultLatency is the stock latency model.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		Dispatch:    3 * time.Millisecond,
		PerSequence: 900 * time.Microsecond,
		PerToken:    20 * time.Microsecond,
	}
}

// Cost returns the simulated execution time of a batch with the given
// sequence count and total token count.
func (lm LatencyModel) Cost(sequences, totalTokens int) time.Duration {
	return lm.Dispatch +
		time.Duration(sequences)*lm.PerSequence +
		time.Duration(totalTokens)*lm.PerToken
}

// core is the accounting state shared by every view of one device: the
// virtual clock, activity counters, and the host-side scoring workers.
type core struct {
	latency  LatencyModel
	maxBatch int

	mu        sync.Mutex
	workers   int
	pool      *Pool
	clock     time.Duration // virtual time elapsed
	busy      time.Duration // virtual time spent executing
	batches   int64
	sequences int64
	tokens    int64

	// batcher, when non-nil, fuses scoring calls from all views into shared
	// forwards (continuous cross-query batching, DESIGN.md decision 12).
	// Atomic so the dispatch hot path never takes the accounting mutex just
	// to discover fusion is off.
	batcher atomic.Pointer[Batcher]

	// engaged counts live sessions (Engage minus releases): the principals
	// that may still contribute rows to a pending fused batch.
	engaged atomic.Int64
}

// Device executes language-model batches against a virtual clock.
type Device struct {
	lm  model.LanguageModel
	qos QoS
	c   *core

	// tr/trParent, when set (WithTrace), record a span per dispatch made
	// through this view. nil on untraced views — the hot-path cost of the
	// instrumentation is then a single pointer check.
	tr       *trace.Trace
	trParent trace.SpanID

	// sess, when set (Engage), is the live session this view scores for;
	// every view derived from it carries the same token.
	sess *session
}

// session is the token an engaged view carries. The batcher counts
// distinct sessions with pending requests against core.engaged.
type session struct {
	c    *core
	once sync.Once
}

// release disengages the session once and wakes the batcher, which may now
// find every remaining live session waiting.
func (s *session) release() {
	s.once.Do(func() {
		s.c.engaged.Add(-1)
		if b := s.c.batcher.Load(); b != nil {
			b.kick()
		}
	})
}

// QoS identifies the principal a view scores for. The fusion batcher uses
// Query as the fair-share account and Deadline for queue-jump priority; a
// zero QoS makes the view itself the principal with no deadline.
type QoS struct {
	Query    string    // fair-share identity ("" = per-view)
	Deadline time.Time // completion deadline (zero = none)
}

// New creates a device for the given model. maxBatch bounds batch size
// (<= 0 means 64).
func New(lm model.LanguageModel, latency LatencyModel, maxBatch int) *Device {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	return &Device{lm: lm, c: &core{latency: latency, maxBatch: maxBatch, workers: 1}}
}

// WithModel returns a view of this device that scores through lm but shares
// the clock, counters, batch limit, and worker pool. Use it to thread a
// per-query model wrapper (e.g. a cache attribution scope) through a shared
// device: work done via any view is billed to the one virtual accelerator.
func (d *Device) WithModel(lm model.LanguageModel) *Device {
	v := *d
	v.lm = lm
	return &v
}

// WithQoS returns a view with the given scheduling identity: same model,
// same shared core, but scoring calls made through it are accounted (and,
// under fusion, prioritized) for q.
func (d *Device) WithQoS(q QoS) *Device {
	v := *d
	v.qos = q
	return &v
}

// Engage returns a view that scores for a new live session, plus the
// idempotent release that ends it. Under fusion the batcher holds a partial
// batch only while some live session has no request waiting; once every
// engaged session is waiting, no other session can add rows and the batch
// flushes at once instead of sitting out the admission window (DESIGN.md
// decision 12). Views derived from the returned one (WithModel, WithQoS,
// WithTrace) belong to the same session. Views that were never engaged do
// not count: while no session is live, the window alone paces flushes.
func (d *Device) Engage() (*Device, func()) {
	s := &session{c: d.c}
	d.c.engaged.Add(1)
	v := *d
	v.sess = s
	return &v, s.release
}

// Batcher returns the fusion scheduler attached to this device's core, or
// nil when dispatch is direct.
func (d *Device) Batcher() *Batcher { return d.c.batcher.Load() }

// SetWorkers sets the host worker-pool width used to execute each dispatched
// batch (DESIGN.md decision 6). The virtual latency model is unaffected —
// it prices the simulated accelerator, which executes a dispatched batch as
// one unit — but wall-clock scoring of a chunk is sharded across n
// goroutines, modelling the accelerator's internal parallelism on the host
// CPU. n <= 1 keeps execution on the calling goroutine. When a persistent
// Pool is attached (SetPool), the pool's width wins and SetWorkers only
// records the preference.
func (d *Device) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	d.c.mu.Lock()
	d.c.workers = n
	d.c.mu.Unlock()
}

// SetPool attaches a persistent worker pool, shared with any other devices
// the caller attaches it to. A long-running server sizes one pool for the
// whole process instead of letting every query spin up its own transient
// goroutines (DESIGN.md decision 8). nil detaches.
func (d *Device) SetPool(p *Pool) {
	d.c.mu.Lock()
	d.c.pool = p
	d.c.mu.Unlock()
}

// Workers reports the effective worker width (the attached pool's size, or
// the SetWorkers value).
func (d *Device) Workers() int {
	d.c.mu.Lock()
	defer d.c.mu.Unlock()
	if d.c.pool != nil {
		return d.c.pool.Size()
	}
	return d.c.workers
}

// Model returns this view's language model.
func (d *Device) Model() model.LanguageModel { return d.lm }

// MaxBatch reports the device batch-size limit.
func (d *Device) MaxBatch() int { return d.c.maxBatch }

// Forward runs one batch of contexts and returns their next-token log-prob
// vectors, charging the latency model. Batches larger than MaxBatch are
// split internally. Scoring goes through the model's ScoreBatch path, so a
// batched substrate (the packed Transformer forward, the miss-forwarding
// cache) sees the whole chunk at once; with workers > 1 each chunk is
// additionally sharded across the worker pool. Forward is safe for
// concurrent use, including across views.
func (d *Device) Forward(ctxs [][]model.Token) [][]float64 {
	r := &request{kind: reqForward, ctxs: ctxs, rows: make([][]float64, len(ctxs))}
	d.dispatch(fault.DeviceForward, r)
	return r.rows
}

// dispatch is the one execution path behind every entry point; name is
// both the fault point and the span name. The request goes to the fusion
// scheduler when one admits it. Otherwise (fusion off, breaker open,
// batcher closed) the caller runs it as MaxBatch-sized batches of its own
// on the same executor, core.run, so both paths charge, count, shard,
// score and trace alike. A panic in any row re-raises here, in the caller.
func (d *Device) dispatch(name string, r *request) {
	d.inject(name)
	r.lm = d.lm
	span := d.traceStart(name, r)
	fused := false
	if b := d.c.batcher.Load(); b != nil {
		fused = b.submit(d, r)
	}
	if !fused {
		n := r.rowCount()
		for lo := 0; lo < n && !r.panicked; lo += d.c.maxBatch {
			fb := fusedBatch{queries: 1}
			fb.add(r, lo, min(lo+d.c.maxBatch, n))
			d.c.run(&fb)
		}
	}
	if r.panicked {
		panic(r.panicVal)
	}
	d.traceEnd(span, r, fused)
}

// inject consults the fault registry at a dispatch entry point. Latency
// spikes stall the virtual clock; failures panic in the submitting goroutine
// with the *fault.Fault — the device API has no error returns, and the
// existing containment chain (segment recover, Pool re-panic, per-item
// recover in the jobs worker, the search handler's recover) carries the
// panic to the layer that owns the failing query.
func (d *Device) inject(point string) {
	f := fault.Hit(point)
	if f == nil {
		return
	}
	if f.Latency > 0 {
		d.Idle(f.Latency)
	}
	if f.Failure() {
		panic(f)
	}
}

// runShards executes the shards on the persistent pool when one is attached,
// or on transient goroutines otherwise. Shards recover their own panics
// (fusedBatch.shards), so a bare goroutine never unwinds with one.
func runShards(shards []func(), pool *Pool) {
	if pool != nil {
		pool.Run(shards)
		return
	}
	var wg sync.WaitGroup
	for _, shard := range shards {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(shard)
	}
	wg.Wait()
}

// Idle advances the virtual clock without work, modelling host-side time
// (graph bookkeeping, result verification) during which the device sits
// unused. Utilization drops accordingly.
func (d *Device) Idle(dt time.Duration) {
	d.c.mu.Lock()
	d.c.clock += dt
	d.c.mu.Unlock()
}

// Clock returns the current virtual time.
func (d *Device) Clock() time.Duration {
	d.c.mu.Lock()
	defer d.c.mu.Unlock()
	return d.c.clock
}

// Stats summarizes device activity.
type Stats struct {
	Clock       time.Duration
	Busy        time.Duration
	Utilization float64 // busy / clock, in [0,1]
	Batches     int64
	Sequences   int64
	Tokens      int64
}

// Stats returns a snapshot of the device counters (shared across views).
func (d *Device) Stats() Stats {
	d.c.mu.Lock()
	defer d.c.mu.Unlock()
	util := 0.0
	if d.c.clock > 0 {
		util = float64(d.c.busy) / float64(d.c.clock)
	}
	return Stats{
		Clock:       d.c.clock,
		Busy:        d.c.busy,
		Utilization: util,
		Batches:     d.c.batches,
		Sequences:   d.c.sequences,
		Tokens:      d.c.tokens,
	}
}

// Reset zeroes the clock and counters.
func (d *Device) Reset() {
	d.c.mu.Lock()
	defer d.c.mu.Unlock()
	d.c.clock, d.c.busy = 0, 0
	d.c.batches, d.c.sequences, d.c.tokens = 0, 0, 0
}
